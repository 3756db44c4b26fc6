"""One workload in its own process: warm up, run jobs in a closed loop
with one client, check every output, print one JSON line.

Started by ``run.py`` with ``--workload --seed --seconds --trace``;
see README.md. CLI jobs call ``cosserat_weyl.cli.main(argv)`` in this
process; the claim-6 job and the field read-back call the public
library functions. Job set-up (drawing inputs) and the benchmark's
checks are outside every job time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cosserat_weyl
from cosserat_weyl import cli, sampling
from host import HostReference
from tracer import LAYERS, ROOT_PREFIX, Tracer

TWO_PI = 2.0 * math.pi
# relative tolerance of the claim-6 check in tests/test_correspondence.py
CLAIM6_TOL = 1e-10
P0_CHOICES = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)

# Round-robin of job types per workload. --cases per verify suite is
# chosen so that the four identities-32 job types take similar times.
WORKLOADS = {
    "witness-16": ("theorem",),
    "identities-32": ("factorization", "fierz", "u1", "scaling"),
    "dictionary-64": ("correspondence", "conformal", "planewave", "claim6"),
}
# Seconds one round-robin cycle takes on a 2-CPU Xeon host in a slow
# phase (jobs, read-back, checks and host reference). A run does
# round(seconds / CYCLE_S) whole cycles: the job count depends only on
# --seconds and the workload, so the same seed gives the same jobs, and
# the same failures, on every run.
CYCLE_S = {"witness-16": 0.6, "identities-32": 0.8, "dictionary-64": 7.5}
# Grid edge of the host reference kernel (see host.py) per workload.
REFERENCE_GRID = {"witness-16": 16, "identities-32": 32, "dictionary-64": 64}
THEOREM_N = 2
VERIFY_CASES = {"factorization": 2, "fierz": 3, "u1": 1, "scaling": 1,
                "correspondence": 2}


@dataclass
class Outcome:
    kind: str
    wall: float = 0.0          # main() entry to return, or the library calls
    readback: float = 0.0      # read_field time of a planewave job
    cases: int = 0
    host_slowdown: float = 1.0   # of the host reference run right after the job
    passed: bool = False
    problems: list = field(default_factory=list)   # failed output checks


class Clock:
    """Times job calls and the host reference; the traced clock also
    records spans."""

    def __init__(self, host: HostReference, tracer: Tracer | None = None):
        self.host = host
        self.tracer = tracer

    def call(self, out, slot: str, fn, *args):
        """Run ``fn(*args)`` and add its wall time to ``out.<slot>``, also
        when it raises. Traced, the call is a root span named after the slot."""
        def add(seconds):
            setattr(out, slot, getattr(out, slot) + seconds)

        if self.tracer is not None:
            return self.tracer.root(slot, fn, *args, on_end=add)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            add(time.perf_counter() - start)

    def untraced(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.suspended()


# -- inputs ---------------------------------------------------------------

def _spd_matrix(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q @ np.diag(rng.uniform(0.5, 2.0, size=3)) @ q.T


def _full_metric_spec(rng) -> str:
    g = _spd_matrix(rng)
    upper = (g[0, 0], g[0, 1], g[0, 2], g[1, 1], g[1, 2], g[2, 2])
    return "full:" + ",".join(repr(float(x)) for x in upper)


def _metric_spec(rng) -> str:
    kind = int(rng.integers(3))
    if kind == 0:
        return "identity"
    if kind == 1:
        return "diag:" + ",".join(repr(float(x)) for x in rng.uniform(0.5, 2.0, 3))
    return _full_metric_spec(rng)


def _scale_expr(rng) -> str:
    """e^h for `verify conformal`: a constant above the sum of the
    trigonometric amplitudes, so the scale stays positive."""
    terms, total = [], 0.0
    for _ in range(int(rng.integers(1, 4))):
        coef = float(rng.uniform(0.05, 0.4))
        total += float(f"{coef:.3f}")
        sign = "+" if rng.integers(2) else "-"
        fn = "cos" if rng.integers(2) else "sin"
        terms.append(f"{sign}{coef:.3f}*{fn}({int(rng.integers(1, 4))}*x{int(rng.integers(1, 4))})")
    return f"{1.0 + total:.3f}" + "".join(terms)


def make_job(kind: str, rng, workdir: Path, clock: Clock) -> dict:
    seed = str(int(rng.integers(2**31)))
    if kind == "theorem":
        return {"argv": ["theorem", "--n", str(THEOREM_N), "--seed", seed,
                         "--metric", _full_metric_spec(rng)]}
    if kind in ("factorization", "fierz", "u1", "scaling"):
        return {"argv": ["verify", kind, "--cases", str(VERIFY_CASES[kind]),
                         "--grid", "32,32,32", "--seed", seed]}
    if kind == "correspondence":
        return {"argv": ["verify", kind, "--cases", str(VERIFY_CASES[kind]),
                         "--grid", "64,64,64", "--seed", seed]}
    if kind == "conformal":
        return {"argv": ["verify", kind, "--h", _scale_expr(rng),
                         "--grid", "64,64,64"]}
    if kind == "planewave":
        while True:
            k = rng.integers(-3, 4, size=3)
            if np.any(k != 0):
                break
        eta_path, csv_path = workdir / "eta.cwf", workdir / "density.csv"
        # "--k=" form: a value such as "-1,2,3" would read as an option
        return {"argv": ["planewave", "--k=" + ",".join(str(int(m)) for m in k),
                         "--branch=" + ("+" if rng.integers(2) else "-"),
                         "--metric", _metric_spec(rng), "--grid", "64,64,64",
                         "--eta-out", str(eta_path), "--density-csv", str(csv_path)],
                "eta": eta_path, "csv": csv_path}
    if kind == "claim6":
        lib_rng = np.random.default_rng(int(seed))
        p0 = P0_CHOICES[int(rng.integers(len(P0_CHOICES)))]
        grid = cosserat_weyl.TorusGrid((64, 64, 64), (TWO_PI,) * 3)
        with clock.untraced():
            metric = sampling.random_spd_metric(lib_rng)
            eta = sampling.random_nonvanishing_spinor(
                grid, lib_rng, amplitude=0.1, max_mode=1)
            pauli = cosserat_weyl.build_pauli(metric)
        return {"claim6": (eta, p0, pauli, metric, grid)}
    raise ValueError(f"unknown job type {kind!r}")


# -- jobs and their output checks ------------------------------------------

def _numbers(node, path="report"):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numbers(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numbers(value, f"{path}[{i}]")
    elif isinstance(node, float):
        yield path, node


def _run_cli(job: dict, clock: Clock, out: Outcome) -> dict:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        rc = clock.call(out, "wall", cli.main, job["argv"])
    report = json.loads(text.getvalue())
    verdict = report.get("verdict")
    if rc not in (0, 1) or (rc == 0) != (verdict == "pass"):
        out.problems.append(f"exit code {rc} with verdict {verdict!r}")
    bad = [path for path, value in _numbers(report) if not math.isfinite(value)]
    if bad:
        out.problems.append(f"non-finite residuals at {bad[:3]}")
    out.passed = verdict == "pass"
    return report


def _check_planewave(job: dict, report: dict, clock: Clock, out: Outcome) -> None:
    kind, eta, grid = clock.call(out, "readback", cosserat_weyl.read_field, str(job["eta"]))
    if kind != "spinor" or grid.dims != (64, 64, 64) or eta.shape != grid.shape + (2,):
        out.problems.append(f"read back kind {kind!r}, dims {grid.dims}, shape {eta.shape}")
        return
    with clock.untraced():
        metric = cosserat_weyl.Metric3.from_matrix(report["config"]["metric"])
        residual = cosserat_weyl.weyl_residual_norm(
            eta, report["p0"], report["weyl_sign"],
            cosserat_weyl.build_pauli(metric), grid)
    if residual != report["weyl_residual"]:
        out.problems.append(f"read-back weyl_residual {residual!r} != "
                            f"reported {report['weyl_residual']!r}")
    with open(job["csv"], "rb") as handle:
        rows = handle.read().count(b"\n")
    if rows != grid.num_points + 1:
        out.problems.append(f"density CSV has {rows} lines, expected {grid.num_points + 1}")


def _claim6(eta, p0, pauli, metric, grid):
    theta, dtheta0, rho = cosserat_weyl.stationary_frame_path(eta, p0, pauli, metric, grid)
    lag_frame = cosserat_weyl.lagrangian_coframe(theta, dtheta0, rho, metric, grid)
    lag_spinor = cosserat_weyl.lagrangian_stationary(eta, p0, pauli, metric, grid)
    return lag_frame, lag_spinor


def run_job(kind: str, job: dict, clock: Clock, out: Outcome) -> None:
    if kind == "claim6":
        lag_frame, lag_spinor = clock.call(out, "wall", _claim6, *job["claim6"])
        rel = float(np.abs(lag_frame - lag_spinor).max() / np.abs(lag_spinor).max())
        out.cases = 1
        out.passed = math.isfinite(rel) and rel <= CLAIM6_TOL
        return
    report = _run_cli(job, clock, out)
    if kind == "planewave":
        out.cases = 1
        _check_planewave(job, report, clock, out)
        for path in (job["eta"], job["csv"]):
            path.unlink(missing_ok=True)
    elif kind == "theorem":
        out.cases = len(report["cases"])
    else:
        result = report["result"]
        out.cases = len(result["cases"])
        if result["what"] != kind or not result["cases"]:
            out.problems.append(f"suite {result['what']!r} returned {out.cases} cases")


def run_one(kind: str, rng, workdir: Path, clock: Clock) -> Outcome:
    job = make_job(kind, rng, workdir, clock)
    out = Outcome(kind)
    try:
        run_job(kind, job, clock, out)
    except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        out.problems.append(f"{kind} raised {type(exc).__name__}: {exc}")
    with clock.untraced():
        out.host_slowdown = clock.host.slowdown()
    return out


def run_phase(kinds, rng, cycles: int, workdir: Path, clock: Clock) -> list:
    """``cycles`` whole round-robin cycles, closed loop."""
    return [run_one(kind, rng, workdir, clock) for _ in range(cycles) for kind in kinds]


def cycle_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[workload]))


# -- metrics ------------------------------------------------------------------

def by_type(outcomes) -> dict:
    groups = {}
    for o in outcomes:
        groups.setdefault(o.kind, []).append(o)
    return groups


def cases_per_s(outcomes, host_scaled: bool = True) -> float | None:
    """Cases per second of a cycle built from each job type's fastest run
    (job plus read-back). Other processes on the machine only ever slow a
    job down, and here they do so in bursts of many seconds that move a
    median by up to half; the fastest run stays within a few percent.

    Host-scaled, the rate is for the host on which the reference
    kernel's nominal time was measured: it is multiplied by the run's
    smallest host slowdown. This cancels the slow phases that last
    longer than a run.

    Only jobs that ran to completion with every output check passed
    count (a `fail` verdict still counts): a job that raised or exited
    early is not a fast run. None if a job type has no such job."""
    groups = [[o for o in jobs if not o.problems] for jobs in by_type(outcomes).values()]
    if not all(groups):
        return None
    cases = sum(statistics.median(o.cases for o in jobs) for jobs in groups)
    busy = sum(min(o.wall + o.readback for o in jobs) for jobs in groups)
    if host_scaled:
        busy /= min(o.host_slowdown for o in outcomes)
    return cases / busy


def tail(walls):
    """Highest percentile of ``walls`` with at least 10 jobs beyond it."""
    ordered = sorted(walls)
    index = max(len(ordered) - 11, 0)
    beyond = len(ordered) - 1 - index
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def end_to_end(outcomes) -> tuple:
    """Returns (metrics, ungated, notes). ``ungated`` are printed but not
    listed in BENCHMARK.json: bursts of load from other processes move
    them by more than any allowed bound between runs of the same code."""
    walls = [o.wall for o in outcomes]
    tail_s, pct, beyond = tail(walls)
    metrics = {
        "cases_per_s": (cases_per_s(outcomes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    if metrics["cases_per_s"][0] is None:   # the run is incorrect anyway
        del metrics["cases_per_s"]
    ungated = {
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_s, "s"),
    }
    notes = {"jobs": len(walls), "tail_percentile": pct, "tail_jobs_beyond": beyond,
             "cases_per_s_unscaled": cases_per_s(outcomes, host_scaled=False),
             "host_slowdown": min(o.host_slowdown for o in outcomes),
             "job_p50_s_by_type": {kind: statistics.median(o.wall for o in jobs)
                                   for kind, jobs in by_type(outcomes).items()}}
    return metrics, ungated, notes


# Per-function metrics named in the benchmark's design; every layer also
# gets <layer>.calls, <layer>.self_s and <layer>.errors.
FUNCTION_CALLS = ("weyl.el_residual_fd", "spinor.lagrangian_stationary",
                  "spinor.bilinears", "spinor.spinor_gradient",
                  "geometry.spectral_partial", "cosserat.induced_metric")
FUNCTION_SELF = FUNCTION_CALLS + (
    "weyl.el_gradient", "weyl.weyl_residual_norm", "weyl.planewave_solution",
    "spinor.factorization_residual", "geometry.norm2_2form",
    "cosserat.axial_torsion", "cosserat.lagrangian_coframe",
    "cosserat.potential_energy", "correspondence.spinor_to_frame",
    "correspondence.frame_to_spinor", "cwf.write_field",
    "cwf.write_scalar_csv", "cwf.read_field")


def per_layer(tracer: Tracer, traced, untraced_rate: float | None) -> tuple:
    """Per-layer metrics of the traced phase, each divided by the number
    of traced jobs (per case for calls_per_case).

    The self-check compares the reported layer self times, plus the self
    time of the benchmark's root spans, with the traced jobs' wall time.
    Time in a span outside every layer, or outside every job, opens a gap."""
    by_name = tracer.summary()
    jobs = len(traced)
    cases = sum(o.cases for o in traced)
    zero = {"calls": 0, "self_s": 0.0, "bytes": 0}

    def total(prefix, key):
        return sum(s[key] for name, s in by_name.items() if name.startswith(prefix))

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (total(layer + ".", "calls") / jobs, "calls/job")
        metrics[f"{layer}.self_s"] = (total(layer + ".", "self_s") / jobs, "s/job")
        metrics[f"{layer}.errors"] = (tracer.errors.get(layer, 0) / jobs, "errors/job")
    for name in FUNCTION_CALLS:
        metrics[f"{name}.calls"] = (by_name.get(name, zero)["calls"] / jobs, "calls/job")
    for name in FUNCTION_SELF:
        metrics[f"{name}.self_s"] = (by_name.get(name, zero)["self_s"] / jobs, "s/job")
    metrics["spinor.spinor_gradient.calls_per_case"] = (
        by_name.get("spinor.spinor_gradient", zero)["calls"] / cases, "calls/case")
    metrics["geometry.spectral_partial.bytes_computed"] = (
        by_name.get("geometry.spectral_partial", zero)["bytes"] / jobs, "B/job")
    metrics["cwf.bytes_written"] = (
        (by_name.get("cwf.write_field", zero)["bytes"]
         + by_name.get("cwf.write_scalar_csv", zero)["bytes"]) / jobs, "B/job")
    metrics["cwf.bytes_read"] = (by_name.get("cwf.read_field", zero)["bytes"] / jobs, "B/job")
    traced_rate = cases_per_s(traced)
    if None not in (traced_rate, untraced_rate):   # else the run is incorrect
        metrics["trace.cases_per_s_untraced"] = (untraced_rate, "1/s")
        metrics["trace.cases_per_s_traced"] = (traced_rate, "1/s")
        metrics["trace.overhead_cases_per_s"] = (traced_rate - untraced_rate, "1/s")
    timed = sum(o.wall + o.readback for o in traced)
    root_self = total(ROOT_PREFIX, "self_s")
    layer_self = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) * jobs
    selfcheck = abs(layer_self + root_self - timed) / timed
    metrics["trace.selfcheck_rel_gap"] = (selfcheck, "1")
    metrics["trace.root_self_share"] = (root_self / timed, "1")
    notes = {"traced_jobs": jobs, "traced_cases": cases, "spans": len(tracer.spans)}
    return metrics, notes, selfcheck


# -- environment ----------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = _read(f"{base}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{base}/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        **caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# -- entry ----------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    kinds = WORKLOADS[args.workload]
    rng = np.random.default_rng([args.seed % 2**32, zlib.crc32(args.workload.encode())])
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        host = HostReference(REFERENCE_GRID[args.workload])
        untraced = Clock(host)
        # warm-up: one untimed job of every type fills the FFT and einsum caches
        for kind in kinds:
            run_one(kind, rng, args.workdir, untraced)
        if args.trace:
            half = cycle_count(args.workload, args.seconds / 2)
            plain = run_phase(kinds, rng, half, args.workdir, untraced)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(kinds, rng, half, args.workdir, Clock(host, tracer))
            finally:
                tracer.uninstall()
            outcomes = plain + traced
            metrics, notes, selfcheck = per_layer(tracer, traced, cases_per_s(plain))
            ungated = {}
            selfcheck_ok = selfcheck <= 1e-9
        else:
            cycles = cycle_count(args.workload, args.seconds)
            outcomes = run_phase(kinds, rng, cycles, args.workdir, untraced)
            metrics, ungated, notes = end_to_end(outcomes)
            selfcheck_ok = True
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    notes["failed_by_type"] = {
        kind: sum(1 for o in jobs if not o.passed or o.problems)
        for kind, jobs in by_type(outcomes).items()}
    problems = [p for o in outcomes for p in o.problems]
    if not selfcheck_ok:
        problems.append("span self times do not sum to the traced job times")
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(notes["failed_by_type"].values()),
        "metrics": metrics,
        "ungated": ungated,
        "notes": notes,
        "problems": problems[:20],
        "environment": {**environment(), "workload": args.workload, "seed": args.seed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
