"""Benchmark of the cosserat-weyl toolkit.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in its own child
process (workload.py), one at a time, as a closed loop with one
client. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run and the tracing
overhead. The last line of standard output is one JSON object. Without
``--workload`` every workload runs in turn. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from host import HostReference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("witness-16", "identities-32", "dictionary-64")
SETUP_RUNS = 11

# A fresh interpreter pays this before any job: import the CLI and
# build its parser. Printed: the time and the file actually imported.
SETUP_SNIPPET = """\
import time
start = time.perf_counter()
import cosserat_weyl.cli as cli
cli.build_parser()
print(repr(time.perf_counter() - start), cli.__file__)
"""


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(SRC))
    return env


def setup_sample(env: dict, deadline: float, host: HostReference) -> tuple:
    """Seconds one fresh interpreter takes to import the CLI and build its
    parser, and the host slowdown measured right after it."""
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    seconds, module_file = proc.stdout.split(maxsplit=1)
    if not Path(module_file.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {module_file.strip()}, not the checkout's src/")
    return float(seconds), host.slowdown()


def run_workload(name: str, args, env: dict, deadline: float) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    with contextlib.suppress(OSError):  # left only if another run is using it
        workdir.parent.rmdir()
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(name: str, args, result: dict, setup) -> dict:
    """Print the workload's metrics; return its contract JSON object."""
    metrics = {key: {"value": value, "unit": unit}
               for key, (value, unit) in result["metrics"].items()}
    if setup:
        # host-scaled like cases_per_s: each sample over its own slowdown
        metrics["setup_s"] = {"value": statistics.median(s / h for s, h in setup), "unit": "s"}
    ungated = {key: {"value": value, "unit": unit}
               for key, (value, unit) in result["ungated"].items()}
    notes = result["notes"]
    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    width = max(len(key) for key in metrics) + 2
    for key, metric in {**metrics, **ungated}.items():
        line = f"  {key:<{width}}{metric['value']:.6g} {metric['unit']}"
        if key in ungated:
            line += "  (printed only, not gated)"
        if key == "job_tail_s":
            line += (f"  (p{notes['tail_percentile']:.1f} of {notes['jobs']} jobs,"
                     f" {notes['tail_jobs_beyond']} beyond)")
        elif key == "setup_s":
            line += (f"  (median of {SETUP_RUNS} fresh interpreters, host-scaled;"
                     f" unscaled {statistics.median(s for s, _ in setup):.6g} s)")
        print(line)
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_ratio':<{width}}{failed / attempted:.6g} 1"
          f"  ({failed} failed of {attempted} attempted)")
    print(f"  notes: {json.dumps(notes, sort_keys=True)}")
    for problem in result["problems"]:
        print(f"  output check failed: {problem}")
    return {"correct": result["correct"], "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="timed seconds per workload (default: 30, as in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cosserat_weyl" / "__init__.py").is_file():
        print(f"error: no cosserat_weyl package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    env = pinned_env()
    host = HostReference(16)
    results = {}
    for name in ([args.workload] if args.workload else WORKLOADS):
        # warm-up, the timed loop and set-up samples; a workload that
        # overruns this is killed and the run fails
        deadline = time.monotonic() + 2 * args.seconds + 60
        setup = []
        if args.trace:
            result = run_workload(name, args, env, deadline)
        else:
            # The first sample writes the bytecode cache, as an installed
            # package would have, and is dropped. The rest are split
            # around the workload, so a burst of load from other
            # processes does not cover them all.
            setup_sample(env, deadline, host)
            setup = [setup_sample(env, deadline, host) for _ in range(SETUP_RUNS // 2)]
            result = run_workload(name, args, env, deadline)
            setup += [setup_sample(env, deadline, host) for _ in range(SETUP_RUNS - len(setup))]
        results[name] = report(name, args, result, setup)
    print(json.dumps(results[args.workload] if args.workload
                     else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
