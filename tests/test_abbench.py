"""The in-process A/B timer (tools/abbench.py): two copies of the package
load side by side under distinct names, and every job runs on each of
them. No timing is asserted; the tool's numbers are evidence, not a gate."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

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
    kernel = name.split("-")[0] in ("dirac", "axial", "maps", "elgrad")
    assert result["calls_per_run"] == (abbench.KERNEL_POINTS // 8**3 if kernel else 1)
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
    prepare, _ = draw(np.random.default_rng(0), tmp_path, 8)
    run = prepare(package)
    assert len(calls) == 1
    run()
    assert len(calls) == 2


@pytest.mark.parametrize("edge, calls", [(4, 1024), (8, 128), (16, 16), (32, 2), (64, 1)])
def test_a_kernel_run_makes_a_count_of_calls_set_by_the_grid_edge(tmp_path, edge, calls):
    for kernel in ("dirac", "axial", "maps", "elgrad"):
        draw = abbench.JOBS[f"{kernel}-16"][0]
        assert draw(np.random.default_rng(0), tmp_path, edge)[1] == calls
    assert abbench.JOBS["witness-16"][0](np.random.default_rng(0), tmp_path, 8)[1] == 1


def test_a_pair_makes_the_count_on_each_side_and_times_per_call(monkeypatch):
    # a clock that advances 6 s per reading: each run of 3 calls spans 6 s
    clock = iter(range(0, 100, 6))
    monkeypatch.setattr(abbench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    made = []
    prepare = lambda package: lambda: made.append(package)
    assert abbench._pair(prepare, 3, "base", "change", swap=True) == (2.0, 2.0)
    assert made == ["change"] * 3 + ["base"] * 3


def test_help_states_its_limits(capsys):
    with pytest.raises(SystemExit):
        abbench.main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    for limit in ("peak_rss_mb", "setup_s", "FFT plan cache", "perfbench"):
        assert limit in text
