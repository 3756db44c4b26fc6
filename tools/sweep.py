"""Standing report sweep: run one fixed list of CLI jobs on a base
revision and on the working tree, and compare what each side writes.

    python tools/sweep.py [--base REV] [--allow JOB]... [--list]

The base (default: the parent of HEAD) is extracted with ``git archive``
into a temporary directory. Each job runs on each side as a subprocess,
``python -c`` calling ``cosserat_weyl.cli.main`` with ``PYTHONPATH`` at
that side's ``src/``, in a directory of its own, so the files a job
names (``--out``, ``--eta-out``, ``--density-csv``) land per side. The
sweep compares the exit codes, the reports (stdout or ``--out``) with
``timestamp`` removed, the bytes of every other file the job wrote, and
stderr. Per job it prints the working tree's exit code and one outcome:

- ``identical``;
- ``floats moved``, with the largest relative move per report key, or
  the files whose bytes differ;
- ``message changed``: only stderr differs, as an exit-2 message can;
- ``verdict/exit changed``, ``report changed`` (a key, a string or the
  shape differs), ``warned`` or ``crashed`` (a warning or a traceback on
  stderr of the working tree's run).

It exits 1 if any job has one of the last four outcomes and ``--allow``
does not name it (a job's name is its argv, as ``--list`` prints it).
Uses only the standard library and git.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_MAIN = "import sys; from cosserat_weyl.cli import main; sys.exit(main(sys.argv[1:]))"
FAILING = ("verdict/exit changed", "report changed", "warned", "crashed")

SEEDED_SUITES = ("factorization", "fierz", "u1", "scaling", "correspondence")
SUITE_GRIDS = (("--grid", "4,4,4"), ("--grid", "8,8,8"), ("--grid", "12,16,8"),
               ("--grid", "4,6,10", "--box", "5,7,9"), ("--grid", "32,32,32"))
WITNESS_GRIDS = (("--grid", "8,8,8"), ("--grid", "12,16,8", "--box", "5,7,9"),
                 ("--grid", "16,16,16"), ("--grid", "4,6,10", "--box", "5,7,9"))
METRICS = ("identity", "diag:1,4,9", "full:1.3,0.2,-0.1,0.9,0.15,1.1")
FIELD_FILES = ("--eta-out", "eta.cwf", "--density-csv", "density.csv")


def jobs() -> list[tuple[str, ...]]:
    """The job list: each entry is the argv of one `cli.main` call."""
    out = []
    # every seeded suite on five grids, two seeds each; conformal is not seeded
    for grid in SUITE_GRIDS:
        for what in SEEDED_SUITES:
            for seed in ("0", "5"):
                out.append(("verify", what, "--cases", "3", "--seed", seed, *grid))
        out.append(("verify", "conformal", *grid))
    out.append(("verify", "conformal", "--grid", "16,16,16", "--h", "0.3*cos(x2)"))
    # the witness and the plane waves, with their field outputs, per metric
    for grid in WITNESS_GRIDS:
        for metric in METRICS:
            out.append(("theorem", "--n", "2", "--metric", metric, *grid))
            out.append(("planewave", "--k", "1,1,0", "--metric", metric, *grid, *FIELD_FILES))
    out.append(("planewave", "--k", "-1,0,1", "--branch", "-", "--grid", "8,8,8",
                "--out", "report.json", *FIELD_FILES))
    # 64^3, and two x1 slabs of a (64,32,32) grid
    out += [("theorem", "--n", "4", "--grid", "64,64,64"),
            ("verify", "correspondence", "--cases", "2", "--grid", "64,64,64"),
            ("planewave", "--k", "1,2,3", "--grid", "64,64,64", *FIELD_FILES),
            ("verify", "correspondence", "--cases", "1", "--grid", "64,32,32"),
            ("verify", "u1", "--cases", "1", "--grid", "64,32,32")]
    # known failures: L_max at the rounding floor of high modes, aliasing of
    # e^h eta and of e^h times the rotating coframe on an 8-point axis
    out += [("planewave", "--k", "6,0,0", "--grid", "16,16,16"),
            ("planewave", "--k", "7,1,0", "--grid", "16,16,16"),
            ("verify", "conformal", "--grid", "8,8,8", "--h", "2+0.5*cos(x1)-0.3*sin(3*x3)")]
    # inputs that exit 2 past the parser: unusable options, outputs that
    # cannot be written, metrics, scales and frequencies out of range
    out += [("verify", "conformal", "--cases", "2", "--grid", "8,8,8"),
            ("verify", "fierz", "--cases", "0", "--grid", "8,8,8"),
            ("verify", "fierz", "--seed", "-1"),
            ("verify", "fierz", "--grid", "8,8,8", "--out", "missing/r.json"),
            ("planewave", "--k", "1,0,0", "--grid", "8,8,8", "--eta-out", "p.cwf",
             "--density-csv", "missing/d.csv"),
            ("planewave", "--k", "1,0,0", "--grid", "8,8,8", "--eta-out", "x",
             "--density-csv", "x"),
            ("planewave", "--k", "8,0,0"),
            ("planewave", "--k", "1,0,0", "--grid", "8,8,8", "--metric", "diag:inf,1,1"),
            ("planewave", "--k", "1,0,0", "--grid", "8,8,8",
             "--metric", "diag:1e300,1e300,1e300"),
            ("verify", "scaling", "--cases", "1", "--grid", "8,8,8", "--h", "0.1*cos(5*x1)"),
            ("verify", "scaling", "--cases", "1", "--grid", "8,8,8", "--h", "800*cos(x1)"),
            ("verify", "scaling", "--cases", "1", "--grid", "8,8,8", "--h", "400*cos(x1)"),
            ("verify", "conformal", "--grid", "8,8,8", "--h", "1e100"),
            ("verify", "conformal", "--grid", "8,8,8", "--h", "1e155")]
    for box in ("1e-200,1,1", "1e-152,1,1", "3.2e-152,1,1", "1e300,1,1"):
        out.append(("planewave", "--k", "1,0,0", "--grid", "8,8,8", "--box", box))
    out.append(("planewave", "--k", "1,0,0", "--grid", "32,32,32", "--box", "3.2e-151,1,1"))
    for box in ("1e-300,1,1", "1e-152,1,1", "1e150,1e150,1e150", "1e-140,1e-140,1e-140",
                "1e160,1e160,1e160"):
        out.append(("theorem", "--n", "1", "--grid", "8,8,8", "--box", box))
    out.append(("theorem", "--n", "1", "--grid", "32,32,32", "--seed", "1", "--box", "1e-152,1,1"))
    # the twins' frequency bound: boxes from the step of the perturbation's
    # corners up to twice it, with seeds whose first wave has k1 = 0
    for grid, boxes in (("8,8,8", ("4.05e-152", "8.1e-152")),
                        ("16,16,16", ("1.14e-151", "2.28e-151"))):
        for box in boxes:
            for seed in ("5", "6", "9"):
                out.append(("theorem", "--n", "1", "--grid", grid, "--seed", seed,
                            "--box", f"{box},1,1"))
    return out


def job_name(argv) -> str:
    return " ".join(argv)


def extract_base(rev: str, dest: Path) -> str:
    """Write the ``src/`` tree of ``rev`` under ``dest``; return its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the "data" filter, where this Python has it, refuses links out of dest
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return short


def run_job(src: Path, workdir: Path, argv) -> dict:
    """Run one job with the package at ``src``, in ``workdir``; return
    its exit code, stdout, stderr and the bytes of the files it wrote."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", RUN_MAIN, *argv], cwd=workdir, env=env,
                          capture_output=True, text=True)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def _report(text):
    """A report without its timestamp, or None if ``text`` is no report."""
    try:
        report = json.loads(text)
    except ValueError:
        return None
    if isinstance(report, dict):
        report.pop("timestamp", None)
    return report


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _diff(a, b, key: str, moves: dict):
    """The first key at which reports ``a`` and ``b`` differ other than
    in a number, or None; each number that moved records its relative
    move under its key (list indices dropped) in ``moves``."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{key}{{}}"
        found = (_diff(a[k], b[k], f"{key}.{k}" if key else k, moves) for k in a)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{key}[]"
        found = (_diff(x, y, f"{key}[]", moves) for x, y in zip(a, b))
    elif _is_number(a) and _is_number(b):
        if a != b:
            scale = max(abs(a), abs(b))
            moves[key] = max(moves.get(key, 0.0), abs(a - b) / scale if scale else math.inf)
        return None
    else:
        return None if a == b else key
    return next((k for k in found if k is not None), None)


_WARNING = re.compile(r"\b\w*Warning\b")


def compare(base: dict, change: dict) -> tuple[str, str]:
    """The outcome of one job and a detail line."""
    if "Traceback" in change["stderr"]:
        return "crashed", change["stderr"].strip().splitlines()[-1]
    warning = _WARNING.search(change["stderr"])
    if warning:
        return "warned", warning.group()
    if base["code"] != change["code"]:
        return "verdict/exit changed", f"exit {base['code']} -> {change['code']}"
    names = sorted(set(base["files"]) | set(change["files"]))
    outputs = [("stdout", base["stdout"], change["stdout"])] + [
        (name, base["files"].get(name), change["files"].get(name)) for name in names]
    moves, moved_files = {}, []
    for name, a, b in outputs:
        if a == b:
            continue
        if a is None or b is None:
            return "report changed", f"{name} is written on one side only"
        ra, rb = _report(a), _report(b)
        if ra is None and rb is None and name != "stdout":
            moved_files.append(name)  # a field file: CWF or CSV floats
            continue
        if not (isinstance(ra, dict) and isinstance(rb, dict)):
            return "report changed", f"{name} is not a report on both sides"
        if ra.get("verdict") != rb.get("verdict"):
            return "verdict/exit changed", f"verdict {ra.get('verdict')} -> {rb.get('verdict')}"
        where = _diff(ra, rb, "", moves)
        if where is not None:
            return "report changed", f"{name}: {where} differs"
    if moves or moved_files:
        worst = sorted(moves.items(), key=lambda kv: -kv[1])[:4]
        return "floats moved", ", ".join([f"{k} {v:.1e}" for k, v in worst]
                                         + [f"{name} bytes" for name in moved_files])
    if base["stderr"] != change["stderr"]:
        return "message changed", change["stderr"].strip()
    return "identical", ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD^", help="revision to compare against "
                                                        "(default: the parent of HEAD)")
    parser.add_argument("--allow", action="append", default=[], metavar="JOB",
                        help="a job (its argv, as --list prints it) allowed to change")
    parser.add_argument("--list", action="store_true", help="print the job names and exit")
    args = parser.parse_args(argv)
    job_list = jobs()
    if args.list:
        print("\n".join(job_name(job) for job in job_list))
        return 0
    unknown = set(args.allow) - {job_name(job) for job in job_list}
    if unknown:
        parser.error(f"--allow names no job: {sorted(unknown)}")
    with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
        tmp = Path(tmp)
        short = extract_base(args.base, tmp / "base")
        sides = {"base": tmp / "base" / "src", "change": ROOT / "src"}
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            futures = [{side: pool.submit(run_job, src, tmp / "jobs" / side / str(i), job)
                        for side, src in sides.items()} for i, job in enumerate(job_list)]
            counts, failed = {}, []
            for job, future in zip(job_list, futures):
                change = future["change"].result()
                outcome, detail = compare(future["base"].result(), change)
                counts[outcome] = counts.get(outcome, 0) + 1
                if outcome in FAILING and job_name(job) not in args.allow:
                    failed.append(job_name(job))
                print(f"{outcome:<20} exit {change['code']}  {job_name(job)}"
                      + (f"\n{'':<28}{detail}" if detail else ""), flush=True)
    print(f"\nbase {short} ({args.base}) against the working tree, {len(job_list)} jobs: "
          + ", ".join(f"{n} {k}" for k, n in sorted(counts.items())))
    if failed:
        print(f"{len(failed)} not allowed: " + "; ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
