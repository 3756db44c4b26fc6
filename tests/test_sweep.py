"""The standing report sweep (tools/sweep.py): every job of its list
exits as the list says when run in-process, so the list is the CLI's
exit contract, and its comparison sorts each kind of difference into
its outcome. The sweep itself needs git and two checkouts, and is not
run here.

The same in-process runs pin the package's reach: each function
defined in the package is entered by some job of the list, or is a key
of `UNREACHED`, whose value says why it stays."""

import functools
import importlib
import importlib.util
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import cosserat_weyl
from cosserat_weyl import cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"
_SPEC = importlib.util.spec_from_file_location("sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def test_job_names_are_unique():
    names = [sweep.job_name(job) for job in sweep.jobs()]
    assert len(set(names)) == len(names), "--allow names a job by its argv"


def test_every_rejected_job_names_its_check():
    assert all(job.says for job in sweep.jobs() if job.exit == 2)


def _reject_constant(name):
    raise ValueError(f"the report holds {name}, which strict JSON has not")


@pytest.mark.parametrize("job", sweep.jobs(), ids=sweep.job_name)
def test_job_exits_as_listed(job, tmp_path, monkeypatch, capsys):
    """Exit 0 or 1 writes a strict-JSON report whose verdict is the exit's;
    exit 2 writes an error line holding the job's `says` and nothing else.
    A RuntimeWarning fails the job through pytest's warning filter."""
    monkeypatch.chdir(tmp_path)
    code = _main_recording_reach(job)
    out, err = capsys.readouterr()
    assert code == job.exit, err
    assert job.says in err, err
    if code == 2:
        assert err.startswith("error: ")
        assert out == "" and not list(tmp_path.iterdir()), "exit 2 left output behind"
        return
    argv = job.argv
    text = (tmp_path / argv[argv.index("--out") + 1]).read_text() if "--out" in argv else out
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["verdict"] == ("pass" if code == 0 else "fail")


# Package functions that no job of the list enters, each with the
# reason it stays: what calls it outside the CLI, or the ROADMAP item
# that is to give it a report
_CLAIM6 = ("claim 6: perfbench's claim-6 job and tools/abbench.py call it; "
           "ROADMAP items 1, 13 and 26 give it a report")
UNREACHED = {
    "correspondence.stationary_frame_path": _CLAIM6,
    "cosserat.lagrangian_coframe": _CLAIM6,
    "cosserat.kinetic_2form": "claim 6: lagrangian_coframe's kinetic 2-form",
    "cosserat._norm2_2form": "claim 6: lagrangian_coframe's kinetic norm",
    "geometry._wedge_component": "claim 6: kinetic_2form's wedges",
    "cwf.read_field": "perfbench's planewave job reads back the spinor the CLI wrote",
    "weyl.weyl_residual_norm": "perfbench's planewave job checks the read-back spinor with it",
    "sampling.random_nonvanishing_spinor": "the claim-6 draws of perfbench and "
                                           "tools/abbench.py",
    "weyl.el_gradient_fd_check": "ROADMAP item 14 reports the same comparison",
    "spinor.lagrangian_dynamic": "ROADMAP item 13: claim 6 off the stationary ansatz",
    "spinor._sandwich": "lagrangian_dynamic's bilinear",
    "weyl.el_residual": "library API: the one-field form of the stack kernel that "
                        "theorem reaches",
    "geometry.TorusGrid.coords": "library API: README Conventions keeps it for callers",
}

# The code objects each job entered, by job name: filled by
# test_job_exits_as_listed, and completed by _reach_gaps for the jobs a
# -k selection left out
_REACHED = {}


def _functions_of(member) -> list:
    """The functions behind one attribute of a module or class: itself
    (a functools.cache one by its wrapper), a property's accessors, a
    cached property's function, or a class or static method's function."""
    if isinstance(member, property):
        return [f for f in (member.fget, member.fset, member.fdel) if f is not None]
    if isinstance(member, functools.cached_property):
        return [member.func]
    if isinstance(member, (classmethod, staticmethod)):
        return [member.__func__]
    if inspect.isfunction(inspect.unwrap(member)):
        return [member]
    return []


def _package_functions() -> dict:
    """{"module.qualname": function} of each function a package module
    defines, at module level or in a class. A name one module imports
    from another counts for the module that defines it; code that is not
    in a package file (the methods a dataclass generates) and nested
    functions are left out."""
    package = Path(cosserat_weyl.__file__).parent
    found = {}
    for info in pkgutil.iter_modules(cosserat_weyl.__path__):
        module = importlib.import_module(f"cosserat_weyl.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for function in (f for member in members for f in _functions_of(member)):
                if Path(inspect.unwrap(function).__code__.co_filename).parent == package:
                    found[f"{info.name}.{function.__qualname__}"] = function
    return found


def _main_recording_reach(job) -> int:
    """``cli.main(job.argv)``, recording in `_REACHED` the code objects it
    enters. A functools.cache function whose cache answers the call
    enters no code, so a change in its ``cache_info()`` counts as its
    code entered."""
    entered = set()
    caches = [f for f in _package_functions().values() if hasattr(f, "cache_info")]
    before = [f.cache_info() for f in caches]

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        return cli.main(list(job.argv))
    finally:
        sys.setprofile(previous)
        entered.update(inspect.unwrap(f).__code__ for f, info in zip(caches, before)
                       if f.cache_info() != info)
        _REACHED[sweep.job_name(job)] = entered


def _reach_gaps(tmp_path, monkeypatch, capsys) -> tuple:
    """(listed but reached, unreached but unlisted): the names of
    `UNREACHED` that some job enters, and the package functions that no
    job enters and `UNREACHED` does not list. Runs each job that
    test_job_exits_as_listed has not recorded, in a directory of its
    own."""
    for i, job in enumerate(sweep.jobs()):
        if sweep.job_name(job) not in _REACHED:
            workdir = tmp_path / f"job{i}"
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            _main_recording_reach(job)
    capsys.readouterr()
    reached = set().union(*_REACHED.values())
    unreached = {name for name, function in _package_functions().items()
                 if inspect.unwrap(function).__code__ not in reached}
    return set(UNREACHED) - unreached, unreached - set(UNREACHED)


def test_every_function_is_reached_or_listed(tmp_path, monkeypatch, capsys):
    listed_but_reached, unlisted = _reach_gaps(tmp_path, monkeypatch, capsys)
    assert not listed_but_reached and not unlisted, (
        f"reached now: unlist {sorted(listed_but_reached)}; unreached and unlisted: "
        f"delete it or give a reason {sorted(unlisted)}")


def test_the_scan_finds_each_kind_of_function():
    functions = _package_functions()
    for name in ["geometry.spectral_partial",  # a plain function
                 "geometry.TorusGrid.shape",  # a property
                 "spinor.SpinorField.A",  # a cached property
                 "geometry.Metric3.from_matrix",  # a class method
                 "cli.build_parser",  # a functools.cache function
                 "geometry.TorusGrid.__post_init__"]:
        assert name in functions, name
    assert "geometry.TorusGrid.__init__" not in functions  # dataclass-generated
    assert "spinor._slabs" not in functions  # imported from geometry, not defined there


def test_a_planted_function_is_unreached_and_unlisted(tmp_path, monkeypatch, capsys):
    def _planted():
        pass

    geometry = importlib.import_module("cosserat_weyl.geometry")
    _planted.__code__ = _planted.__code__.replace(co_filename=geometry.__file__)
    _planted.__module__ = geometry.__name__
    _planted.__qualname__ = "_planted"
    monkeypatch.setattr(geometry, "_planted", _planted, raising=False)
    assert _reach_gaps(tmp_path, monkeypatch, capsys) == (set(), {"geometry._planted"})


def _side(code=0, report=None, stderr="", files=None):
    stdout = json.dumps({"timestamp": "t", **report}) if report is not None else ""
    return {"code": code, "stdout": stdout, "stderr": stderr, "files": files or {}}


@pytest.mark.parametrize("base, change, outcome", [
    (_side(report={"verdict": "pass", "r": 1.0}),
     _side(report={"verdict": "pass", "r": 1.0}), "identical"),
    (_side(report={"verdict": "pass", "r": [1.0, 2.0]}),
     _side(report={"verdict": "pass", "r": [1.0, 2.0 + 4e-16]}), "floats moved"),
    (_side(files={"eta.cwf": b"a"}), _side(files={"eta.cwf": b"b"}), "floats moved"),
    (_side(code=2, stderr="error: a\n"), _side(code=2, stderr="error: b\n"), "message changed"),
    (_side(code=0), _side(code=1), "verdict/exit changed"),
    (_side(report={"verdict": "pass"}), _side(report={"verdict": "fail"}),
     "verdict/exit changed"),
    (_side(report={"verdict": "fail", "ok": True}),
     _side(report={"verdict": "fail", "ok": False}), "report changed"),
    (_side(report={"verdict": "pass"}),
     _side(report={"verdict": "pass", "new": 1}), "report changed"),
    (_side(), _side(files={"eta.cwf": b"a"}), "report changed"),
    (_side(), _side(stderr="x.py:1: RuntimeWarning: overflow\n"), "warned"),
    (_side(), _side(stderr="Traceback (most recent call last):\nKeyError: 1\n"), "crashed"),
])
def test_compare(base, change, outcome):
    assert sweep.compare(base, change)[0] == outcome
