"""The in-process A/B timer (tools/abbench.py): two copies of the package
load side by side under distinct names, and every job runs on each of
them. No timing is asserted; the tool's numbers are evidence, not a gate."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("abbench", _ROOT / "tools" / "abbench.py")
abbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abbench)


@pytest.fixture(scope="module")
def packages():
    """The working tree's package three times, as base, change and control."""
    loaded = {side: abbench.load_package(f"cw_abbench_test_{side}", _ROOT / "src")
              for side in ("base", "change", "control")}
    yield loaded
    for package in loaded.values():
        for name in [n for n in sys.modules if n.split(".")[0] == package.__name__]:
            del sys.modules[name]


def test_copies_are_distinct(packages):
    base, change = packages["base"], packages["change"]
    assert base.TorusGrid is not change.TorusGrid
    assert base.__name__ != change.__name__
    assert sys.modules[f"{change.__name__}.weyl"].__file__.startswith(str(_ROOT / "src"))


@pytest.mark.parametrize("name", list(abbench.JOBS))
def test_every_job_runs_on_each_copy(packages, name, tmp_path):
    result = abbench.bench_job(name, packages, rounds=2, workdir=tmp_path, edge=8)
    json.dumps(result)
    assert result["rounds"] == 2 and result["grid_edge"] == 8
    for pair in ("change_vs_base", "control_vs_base"):
        low, high = result[pair]["ci95"]
        assert 0.0 < low <= high
    assert set(result["seconds"]) == set(result["tracemalloc_peak_mib"]) == set(packages)


def test_kernel_jobs_cover_three_grid_edges():
    for kernel in ("dirac", "axial", "maps", "elgrad"):
        for edge in (16, 32, 64):
            assert abbench.JOBS[f"{kernel}-{edge}"][1] == edge


@pytest.mark.parametrize("kernel, function", [("maps", "frame_to_spinor"),
                                              ("elgrad", "el_gradient")])
def test_a_kernel_job_runs_once_while_prepared(packages, monkeypatch, tmp_path, kernel,
                                               function):
    # the timed call is a repeated one: the warm-up is part of the preparation
    package, calls = packages["change"], []
    original = getattr(package, function)
    monkeypatch.setattr(package, function,
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    draw = abbench.JOBS[f"{kernel}-16"][0]
    run = draw(np.random.default_rng(0), tmp_path, 8)(package)
    assert len(calls) == 1
    run()
    assert len(calls) == 2


def test_help_states_its_limits(capsys):
    with pytest.raises(SystemExit):
        abbench.main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    for limit in ("peak_rss_mb", "setup_s", "FFT plan cache", "perfbench"):
        assert limit in text
