"""The standing report sweep (tools/sweep.py): every job of its list
exits as the list says when run in-process, so the list is the CLI's
exit contract, and its comparison sorts each kind of difference into
its outcome. The sweep itself needs git and two checkouts, and is not
run here."""

import importlib.util
import json
from pathlib import Path

import pytest

from cosserat_weyl import cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"
_SPEC = importlib.util.spec_from_file_location("sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def test_job_names_are_unique():
    names = [sweep.job_name(job) for job in sweep.jobs()]
    assert len(set(names)) == len(names), "--allow names a job by its argv"


def _reject_constant(name):
    raise ValueError(f"the report holds {name}, which strict JSON has not")


@pytest.mark.parametrize("job", sweep.jobs(), ids=sweep.job_name)
def test_job_exits_as_listed(job, tmp_path, monkeypatch, capsys):
    """Exit 0 or 1 writes a strict-JSON report whose verdict is the exit's;
    exit 2 writes an error line and nothing else. A RuntimeWarning fails
    the job through pytest's warning filter."""
    monkeypatch.chdir(tmp_path)
    code = cli.main(list(job.argv))
    out, err = capsys.readouterr()
    assert code == job.exit, err
    if code == 2:
        assert err.startswith("error: ")
        assert out == "" and not list(tmp_path.iterdir()), "exit 2 left output behind"
        return
    argv = job.argv
    text = (tmp_path / argv[argv.index("--out") + 1]).read_text() if "--out" in argv else out
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["verdict"] == ("pass" if code == 0 else "fail")


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
