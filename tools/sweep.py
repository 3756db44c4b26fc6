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

Each job also carries the exit code the working tree must give it and,
for an exit 2, the text its error line must hold, which names the check
that rejects the input. ``tests/test_sweep.py`` runs every job
in-process and asserts both, so the list is the CLI's exit contract as
well as the sweep's input: an input that the CLI must reject past its
parser is a row here, not a test of its own.
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
from typing import NamedTuple

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
SMALL = ("--grid", "8,8,8")


class Job(NamedTuple):
    """One ``cli.main`` call, the exit code the working tree must give it,
    and text its stderr must hold: for an exit 2, the words of the check
    that rejects the input."""
    argv: tuple[str, ...]
    exit: int
    says: str = ""


def jobs() -> list[Job]:
    """The job list: the argv of each ``cli.main`` call, with its exit
    and, for an exit 2, the text of its error line."""
    out = []

    def add(code, *argvs, says=""):
        out.extend(Job(tuple(argv), code, says) for argv in argvs)

    def reject(says, *argvs):
        add(2, *argvs, says=says)

    # every seeded suite on five grids, two seeds each; conformal is not
    # seeded. verify scaling exits 1 on every grid under 16 points per axis,
    # where e^h eta aliases (ROADMAP item 7)
    for grid in SUITE_GRIDS:
        aliased = min(map(int, grid[1].split(","))) < 16
        for what in SEEDED_SUITES:
            add(int(what == "scaling" and aliased),
                *(("verify", what, "--cases", "3", "--seed", seed, *grid) for seed in ("0", "5")))
        add(0, ("verify", "conformal", *grid))
    # the axial torsion's paired complex partials on three axis lengths
    add(0, ("verify", "conformal", "--grid", "16,12,20"))
    # coframes in component planes on non-cubic grids and boxes
    add(0, ("verify", "conformal", "--grid", "12,16,8", "--box", "5,7,9"))
    # 16^3, not 8^3: e^h eta aliases on an 8-point axis; a field expression
    # with a signed exponent; an exponent in a mode and a run of signs
    # before a term
    add(0, *(("verify", "scaling", "--cases", "2", "--grid", "16,16,16", *h)
             for h in ((), ("--h", "1e-1*cos(x2)"), ("--h", "0.1*cos(1e0*x2)--0.05"))))
    # e^h eta in component planes on a non-cubic grid (an axis of 16 points
    # or more: e^h eta aliases on a 12-point one)
    add(0, ("verify", "scaling", "--cases", "2", "--grid", "16,20,24"))
    # the axis sweep of the inverse map on a non-cubic grid and box
    add(0, ("verify", "correspondence", "--cases", "2", "--grid", "12,16,8", "--box", "5,7,9"))
    # the witness and the plane waves, with their field outputs, per metric
    for grid in WITNESS_GRIDS:
        for metric in METRICS:
            add(0, ("theorem", "--n", "2", "--metric", metric, *grid),
                ("planewave", "--k", "1,1,0", "--metric", metric, *grid, *FIELD_FILES))
    add(0, ("planewave", "--k", "-1,0,1", "--branch", "-", "--grid", "8,8,8",
            "--out", "report.json", *FIELD_FILES))
    # the batched FD probes on a non-cubic grid and metric
    add(0, ("theorem", "--n", "2", "--grid", "12,16,8", "--metric", "diag:1,4,9"))
    # FD probes perturbing sigma^a d_a eta with off-diagonal sigma^a on a
    # non-cubic box
    add(0, ("theorem", "--n", "2", "--grid", "8,12,10", "--box", "5,7,9", "--metric", METRICS[2]))
    # the witness's plane waves stay below the Nyquist mode of axes under 8
    # points; at 4^3 the per-case path is all a job does, on an off-diagonal
    # metric
    add(0, ("theorem", "--n", "2", "--grid", "4,4,4"),
        ("theorem", "--n", "2", "--grid", "4,4,4", "--metric", METRICS[2]),
        ("theorem", "--n", "2", "--grid", "6,6,6"))
    # 64^3, and several x1 slabs of a (64,32,32) grid
    add(0, ("theorem", "--n", "4", "--grid", "64,64,64"),
        ("verify", "correspondence", "--cases", "2", "--grid", "64,64,64"),
        ("planewave", "--k", "1,2,3", "--grid", "64,64,64", *FIELD_FILES),
        ("verify", "correspondence", "--cases", "1", "--grid", "64,32,32"))
    # several x1 slabs of the sigma^a d_a symbol, and the axial torsion's
    # paired complex partials on the same non-cubic grid
    add(0, ("verify", "u1", "--cases", "1", "--grid", "64,32,32"),
        ("verify", "conformal", "--grid", "64,32,32"))
    # the witness's stack of a plane wave and its twin: each symbol entry
    # built once per x1 slab for both fields, over several slabs
    add(0, ("theorem", "--n", "1", "--grid", "64,32,32"))
    # plane waves at the rounding floor of a separable field: L_max within
    # the absolute 1e-12 gate, next to the Nyquist mode of a 16-point axis
    # (1.1e-13 and 3.7e-13) and on an anisotropic metric
    add(0, ("planewave", "--k", "6,0,0", "--grid", "16,16,16"),
        ("planewave", "--k", "7,1,0", "--grid", "16,16,16"),
        ("theorem", "--metric", "diag:1,4,9", "--grid", "16,16,16"),
        ("planewave", "--k", "6,0,0", "--metric", "diag:1,4,9"))
    # L_max above the absolute 1e-12 gate at the rounding floor of a 64^3
    # wave (2.50e-12; ROADMAP item 3)
    add(1, ("planewave", "--k", "3,2,1", "--metric", "diag:1,4,9", "--grid", "64,64,64"))
    # e^h eta, and e^h times the rotating coframe, alias on an 8-point axis
    # (ROADMAP item 7)
    add(1, ("verify", "scaling", "--cases", "1", *SMALL, "--h", "0.5*cos(3*x1)"),
        ("verify", "conformal", "--grid", "8,8,8", "--h", "2+0.5*cos(x1)-0.3*sin(3*x3)"))
    # metric condition about 1e6: sigma, p0 and sqrt(det g) from one factor of g
    add(0, ("planewave", "--k", "0,0,1", "--grid", "8,8,8", "--metric",
            "full:126.12158977278821,-298.47704881871073,-143.77935915277035,"
            "710.90338999711435,340.80821138470014,163.97602023009728"))
    # inputs that exit 2 past the parser, each with the text of its check:
    # options a command does not use, and counts, seeds and grids out of range
    wave, witness, conformal_h = (("planewave", "--k", "1,0,0", *SMALL),
                                ("theorem", "--n", "1", *SMALL),
                                ("verify", "conformal", *SMALL, "--h"))
    reject("takes no --cases",
           *(("verify", "conformal", "--cases", n, *SMALL) for n in ("2", "3")))
    reject("takes no --seed", ("verify", "conformal", *SMALL, "--seed", "4"))
    reject("takes no --h", *(("verify", what, *SMALL, "--h", "1.0")
                             for what in ("fierz", "u1", "factorization", "correspondence")))
    reject("n_cases must be at least 1", ("verify", "fierz", "--cases", "0", *SMALL),
           ("verify", "fierz", "--cases", "-3", *SMALL), ("theorem", "--n", "0", *SMALL))
    reject("--seed must be non-negative", ("verify", "fierz", "--seed", "-1"),
           (*witness, "--seed", "-1"))
    reject("grid dims must be even", ("verify", "fierz", "--grid", "15,16,16"))
    reject("box lengths must be finite", *(("verify", "fierz", *SMALL, "--box", f"{x},1,1")
                                           for x in ("nan", "inf")))
    # outputs that cannot be written
    for argv in (("verify", "fierz", *SMALL, "--out", "missing/r.json"),
                 (*wave, "--eta-out", "p.cwf", "--density-csv", "missing/d.csv"),
                 (*wave, "--eta-out", "missing/e.cwf"), (*wave, "--density-csv", "missing/d.csv")):
        reject(f"{argv[-2]} {argv[-1]}: its directory does not exist", argv)
    reject("--density-csv x: the same file as --eta-out x",
           (*wave, "--eta-out", "x", "--density-csv", "x"))
    # metrics out of range: an entry, a determinant that over- or underflows
    # (diag:1e200,1e200,1: a finite sqrt(det g) whose square overflows), and
    # an inverse metric g^ab that overflows, found through the Cholesky factor
    reject("metric matrix has non-finite entries",
           *((*wave, "--metric", spec) for spec in ("diag:inf,1,1", "diag:nan,1,1",
                                                    "full:1,0,0,1,0,inf")),
           (*witness, "--metric", "diag:inf,1,1"))
    reject("metric determinant",
           *((*wave, "--metric", f"diag:{d}") for d in ("1e300,1e300,1e300", "1e200,1e200,1",
                                                       "1e-200,1e-200,1e-200")),
           (*witness, "--metric", "diag:1,1,1e-320"))
    reject("inverse is not a finite normal float",
           *((*job, "--metric", "diag:1e10,1e10,1e-309") for job in (wave, witness)))
    # modes at or above the Nyquist mode N/2 of their axis would alias
    reject("Nyquist mode N/2", ("planewave", "--k", "8,0,0"),
           ("planewave", "--k", "9,0,0", "--grid", "16,16,16"),
           ("planewave", "--k", "1,-4,0", *SMALL))
    reject("'0.1*cos(5*x1)': mode 5 is at or above the Nyquist mode",
           ("verify", "scaling", "--cases", "1", *SMALL, "--h", "0.1*cos(5*x1)"))
    reject("'sin(4*x3)': mode 4 is at or above the Nyquist mode", (*conformal_h, "2+sin(4*x3)"))
    # scales out of range: e^h not positive, e^(2h) overflowing, and a
    # coframe whose induced determinant or rescaled density over- or underflows
    reject("must be positive everywhere",
           ("verify", "conformal", "--grid", "16,16,16", "--h", "0.3*cos(x2)"))
    reject("e^(2h) is not finite", *(("verify", "scaling", "--cases", "1", *SMALL, "--h", h)
                                     for h in ("800*cos(x1)", "400*cos(x1)")))
    reject("not a finite normal float at every point", (*conformal_h, "1e-100"),
           (*conformal_h, "1e100"))
    reject("density must be finite and positive", (*conformal_h, "1e155"), (*conformal_h, "1e200"))
    # values that do not parse, numbers that are not finite, and a metric
    # spec of no known form
    reject("plane wave requires a nonzero mode vector", ("planewave", "--k", "0,0,0", *SMALL))
    reject("--k expects 3 comma-separated values", ("planewave", "--k", "1,2", *SMALL))
    reject("cannot parse --k", ("planewave", "--k", "1,x,0", *SMALL))
    reject("cannot parse --grid", ("verify", "fierz", "--grid", "8,8,x"))
    reject("cannot parse --metric", (*witness, "--metric", "diag:1,a,1"))
    reject("unknown metric spec", (*witness, "--metric", "bogus"))
    # a sign kept in its number's exponent lets no malformed term through
    reject("grammar", *((*conformal_h, h) for h in ("tan(x1)", "e-3", "cos(x1)e-3", "1e-", "1.e-3",
                                                  "1e-3e-3")))
    reject("trailing operator", (*conformal_h, "1e-3-"))
    reject("not finite", *((*conformal_h, h) for h in ("1e999", "1e999*cos(x1)", "1e308+1e308")))
    # a squared frequency out of range exits 2; a box just inside the bound
    # exits 1, its L_max above the absolute 1e-12 gate (ROADMAP item 3)
    for grid, box, code in (("8,8,8", "1e-200,1,1", 2), ("8,8,8", "1e-152,1,1", 2),
                            ("8,8,8", "3.2e-152,1,1", 1), ("8,8,8", "1e300,1,1", 2),
                            ("32,32,32", "3.2e-151,1,1", 1), ("32,32,32", "1e-151,1,1", 2)):
        add(code, ("planewave", "--k", "1,0,0", "--grid", grid, "--box", box),
            says="squared frequency" if code == 2 else "")
    # the witness on tiny and huge boxes: the FD probes do not form the cell
    # volume, and a box in range exits 1 on the absolute gates and floor
    # (ROADMAP item 3)
    for box, code in (("1e-300,1,1", 2), ("1e-152,1,1", 2), ("1e150,1e150,1e150", 1),
                      ("1e-140,1e-140,1e-140", 1)):
        add(code, (*witness, "--box", box), says="squared frequency" if code == 2 else "")
    # a box so large that the perturbation's squared frequency is subnormal,
    # and a wave within the bound whose perturbed twin's modes are not
    reject("of the perturbation's modes", (*witness, "--box", "1e160,1e160,1e160"),
           ("theorem", "--n", "1", "--grid", "32,32,32", "--seed", "1", "--box", "1e-152,1,1"))
    # the twins' frequency bound: boxes from the step of the perturbation's
    # corners up to twice it, with seeds whose first wave has k1 = 0. Each
    # exits 1 on the absolute gates (ROADMAP item 3)
    for grid, boxes in (("8,8,8", ("4.05e-152", "8.1e-152")),
                        ("16,16,16", ("1.14e-151", "2.28e-151"))):
        for box in boxes:
            add(1, *(("theorem", "--n", "1", "--grid", grid, "--seed", seed,
                      "--box", f"{box},1,1") for seed in ("5", "6", "9")))
    return out


def job_name(job: Job) -> str:
    return " ".join(job.argv)


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
            futures = [{side: pool.submit(run_job, src, tmp / "jobs" / side / str(i), job.argv)
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
