"""Paired in-process A/B timer: time a base revision's package against
the working tree's, job by job, in one interpreter.

    python tools/abbench.py --base REV [--job NAME]... [--rounds N] [--out FILE]

The base's ``src/`` is extracted with ``git archive`` (as in
``tools/sweep.py``) and loaded as the package ``cw_base``; the working
tree's is loaded as ``cw_change``, and the base a second time as
``cw_control``. The package uses only relative imports, so the copies
live side by side. Each round draws one input per job and times the
pair (base, change) and the pair (base, control) on it, each pair
prepared right before it runs and in alternating order, so a slow phase
of the host hits both sides of a pair alike. Per job it reports the median over rounds of the time
ratio change/base, its bootstrap 95% confidence interval, the share of
rounds the change was faster, the same for the A/A control
control/base (whose interval should contain 1), the fastest and median
time per side, and each side's tracemalloc peak over one job. It
writes them, with the machine and library versions, as sorted-key JSON.

Jobs: ``witness-16`` (``theorem --n 2`` at 16^3 on a drawn ``full:``
metric), the four ``identities-32`` suites and the four
``dictionary-64`` jobs (their field outputs in a temporary directory),
each drawn by the benchmark's own ``perfbench/workload.py``
(``make_job``), and four kernels on one field of N^3 points:
``dirac-N``, one ``spinor._dirac`` call; ``axial-N``, one
``spinor._axial_density`` call on eta and its sigma^a d_a eta;
``maps-N``, ``spinor_to_frame`` then ``frame_to_spinor``; ``elgrad-N``,
one ``el_gradient`` call on a field whose sigma^a d_a eta is cached.
Each kernel is called once while it is prepared, so the timed call is
a repeated one, as in timeit, and a timed kernel run makes one call per
2^16 grid points (at least one: 16 calls at 16^3), as timeit's
``number``, the same count on both sides of a pair. Times are reported
per call.

Limits. Both sides share one process, so this cannot tell the sides'
``peak_rss_mb`` or ``setup_s`` apart, and both share numpy's FFT plan
cache and the allocator (pinned as ``cli.main`` pins it). perfbench
(``perfbench/run.py``) stays the gated harness; this adds evidence.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
sys.path[:0] = [str(TOOLS), str(TOOLS.parent / "perfbench"), str(TOOLS.parent / "src")]
import workload  # noqa: E402  perfbench's job draws
from sweep import ROOT, extract_base  # noqa: E402

TWO_PI = 2.0 * math.pi
BOOTSTRAP = 2000
KERNEL_POINTS = 2**16  # grid points per call of a kernel's timed run


def load_package(name: str, src: Path):
    """The package under ``src`` imported as ``name`` (its submodules as
    ``name.cli`` and so on)."""
    init = Path(src) / "cosserat_weyl" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


# -- jobs: each draw takes its input from rng and returns (prepare, calls):
#    prepare(package) builds the package's inputs untimed and returns the
#    call to time, and each timed run makes ``calls`` calls of it

def _on_grid(argv: list, edge: int) -> list:
    """``argv`` run on the grid edge^3."""
    grid = f"{edge},{edge},{edge}"
    if "--grid" not in argv:
        return argv + ["--grid", grid]
    at = argv.index("--grid") + 1
    return argv[:at] + [grid] + argv[at + 1:]


def _cli(kind):
    """A CLI job as perfbench's `workload.make_job` draws it."""
    def draw(rng, workdir, edge):
        argv = _on_grid(workload.make_job(kind, rng, workdir, None)["argv"], edge)

        def prepare(package):
            main = importlib.import_module(f"{package.__name__}.cli").main

            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(list(argv))
                if code not in (0, 1):
                    raise RuntimeError(f"{' '.join(argv)} exited {code}")
            return run
        return prepare, 1
    return draw


def _claim6(rng, workdir, edge):
    """The claim-6 library calls, drawn as `workload.make_job` draws them.
    The job holds what the benchmark's `workload._claim6` holds: the
    frame, its velocity, the density and the coframe Lagrangian, all
    alive while the spinor Lagrangian is evaluated."""
    seed = int(rng.integers(2**31))
    p0 = workload.P0_CHOICES[int(rng.integers(len(workload.P0_CHOICES)))]

    def prepare(package):
        grid = package.TorusGrid((edge,) * 3, (TWO_PI,) * 3)
        lib_rng = np.random.default_rng(seed)
        metric = package.sampling.random_spd_metric(lib_rng)
        eta = package.sampling.random_nonvanishing_spinor(grid, lib_rng, amplitude=0.1,
                                                          max_mode=1)
        pauli = package.build_pauli(metric)

        def run():
            theta, dtheta0, rho = package.stationary_frame_path(eta, p0, pauli, metric, grid)
            lag_frame = package.lagrangian_coframe(theta, dtheta0, rho, metric, grid)
            return lag_frame, package.lagrangian_stationary(eta, p0, pauli, metric, grid)
        return run
    return prepare, 1


def _kernel(call):
    """A kernel job: ``call(package, grid, metric, pauli, eta)`` returns
    the call to time on a drawn metric and nonvanishing spinor, which
    runs once before it is returned. A timed run makes one call per
    `KERNEL_POINTS` grid points, at least one: a single call of some µs
    on a small grid is too short to time."""
    def draw(rng, workdir, edge):
        seed = int(rng.integers(2**31))

        def prepare(package):
            grid = package.TorusGrid((edge,) * 3, (TWO_PI,) * 3)
            lib_rng = np.random.default_rng(seed)
            metric = package.sampling.random_spd_metric(lib_rng)
            eta = package.sampling.random_nonvanishing_spinor(grid, lib_rng)
            run = call(package, grid, metric, package.build_pauli(metric), eta)
            run()
            return run
        return prepare, max(1, KERNEL_POINTS // edge**3)
    return draw


def _dirac(package, grid, metric, pauli, eta):
    dirac = importlib.import_module(f"{package.__name__}.spinor")._dirac
    return lambda: dirac(eta, pauli.sigma_upper, grid)


def _axial(package, grid, metric, pauli, eta):
    spinor = importlib.import_module(f"{package.__name__}.spinor")
    slash = spinor._dirac(eta, pauli.sigma_upper, grid)
    return lambda: spinor._axial_density(eta, slash)


def _maps(package, grid, metric, pauli, eta):
    def run():
        theta, rho = package.spinor_to_frame(eta, pauli, metric, grid)
        return package.frame_to_spinor(theta, rho, pauli, metric)
    return run


def _elgrad(package, grid, metric, pauli, eta):
    field = package.SpinorField(eta, pauli, grid)  # sigma^a d_a eta cached by the first run
    return lambda: package.el_gradient(field, 1.0, pauli, metric, grid)


# name -> (draw, grid edge, default rounds)
JOBS = {
    "witness-16": (_cli("theorem"), 16, 300),
    **{f"identities-{what}": (_cli(what), 32, 150)
       for what in ("factorization", "fierz", "u1", "scaling")},
    **{f"dictionary-{what}": (_cli(what), 64, 20)
       for what in ("correspondence", "conformal", "planewave")},
    "dictionary-claim6": (_claim6, 64, 20),
    **{f"{name}-{edge}": (_kernel(call), edge, 100)
       for name, call, edges in (("dirac", _dirac, (4, 16, 32, 64)), ("axial", _axial, (16, 32, 64)),
                                 ("maps", _maps, (16, 32, 64)), ("elgrad", _elgrad, (16, 32, 64)))
       for edge in edges},
}


# -- timing ---------------------------------------------------------------

def _timed(run, calls: int) -> float:
    """Seconds per call over ``calls`` calls of ``run`` in a row."""
    start = time.perf_counter()
    for _ in range(calls):
        run()
    return (time.perf_counter() - start) / calls


def _pair(prepare, calls: int, first, second, swap: bool) -> tuple:
    """Seconds per call on the packages ``first`` and ``second``, each
    prepared right before the pair runs and called ``calls`` times, in
    the order they run: the second first if ``swap``."""
    order = (second, first) if swap else (first, second)
    runs = [prepare(package) for package in order]
    times = [_timed(run, calls) for run in runs]
    return tuple(reversed(times)) if swap else tuple(times)


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _summary(ratios, rng) -> dict:
    ratios = np.asarray(ratios)
    boot = np.median(rng.choice(ratios, size=(BOOTSTRAP, len(ratios))), axis=1)
    low, high = np.percentile(boot, [2.5, 97.5])
    return {"median_ratio": round(float(np.median(ratios)), 4),
            "ci95": [round(float(low), 4), round(float(high), 4)],
            "faster_share": round(float(np.mean(ratios < 1.0)), 3)}


def bench_job(name: str, packages: dict, rounds: int, workdir: Path, edge: int | None = None,
              seed: int = 0) -> dict:
    """Time job ``name`` on ``packages`` (keys base, change, control) for
    ``rounds`` rounds; ``edge`` overrides the job's grid edge."""
    draw, default_edge, _ = JOBS[name]
    edge = edge or default_edge
    rng = np.random.default_rng(seed)
    times = {side: [] for side in packages}
    ab, aa = [], []
    for i in range(rounds):
        prepare, calls = draw(rng, workdir, edge)
        base, change = _pair(prepare, calls, packages["base"], packages["change"],
                             swap=bool(i % 2))
        base2, control = _pair(prepare, calls, packages["base"], packages["control"],
                               swap=not i % 2)
        for side, seconds in (("base", base), ("base", base2), ("change", change),
                              ("control", control)):
            times[side].append(seconds)
        ab.append(change / base)
        aa.append(control / base2)
    prepare, calls = draw(np.random.default_rng(seed), workdir, edge)
    peaks = {side: _peak(prepare(package)) for side, package in packages.items()}
    stats = np.random.default_rng(seed)
    return {
        "rounds": rounds,
        "grid_edge": edge,
        "calls_per_run": calls,
        "change_vs_base": _summary(ab, stats),
        "control_vs_base": _summary(aa, stats),
        "seconds": {side: {"min": float(f"{min(t):.6g}"),
                           "median": float(f"{statistics.median(t):.6g}")}
                    for side, t in times.items()},
        "tracemalloc_peak_mib": {side: round(peak / 2**20, 4) for side, peak in peaks.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--job", action="append", choices=sorted(JOBS), metavar="NAME",
                        help=f"a job to time (default: all): {', '.join(JOBS)}")
    parser.add_argument("--rounds", type=int, help="rounds per job (default: per job)")
    parser.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 2:
        parser.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory(prefix="abbench-") as tmp:
        tmp = Path(tmp)
        short = extract_base(args.base, tmp / "base")
        base_src = tmp / "base" / "src"
        packages = {"base": load_package("cw_base", base_src),
                    "change": load_package("cw_change", ROOT / "src"),
                    "control": load_package("cw_control", base_src)}
        # the allocator's thresholds as cli.main pins them, for the whole
        # process; one warm-up run per side and job fills the FFT caches
        importlib.import_module("cw_change.cli")._keep_freed_memory_mapped()
        jobs = {}
        for name in args.job or JOBS:
            rounds = args.rounds or JOBS[name][2]
            bench_job(name, packages, 2, tmp)
            jobs[name] = bench_job(name, packages, rounds, tmp)
            print(f"{name}: {jobs[name]['change_vs_base']}", file=sys.stderr, flush=True)
    report = {"base": f"{short} ({args.base})", "change": "working tree",
              "machine": workload.environment(), "jobs": jobs}
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
