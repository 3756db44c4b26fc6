"""Command-line surface: seeded, reproducible verification jobs with
JSON reports.

Exit codes: 0 all residuals within tolerance, 1 verification failure,
2 configuration/usage error or an unwritable output file. The
tolerances are fixed in the library; no option moves one. Identical
config and seed produce byte-identical reports up to the ``timestamp``
field.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import functools
import inspect
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .cwf import write_field, write_scalar_csv
from .errors import ConfigError, ModelError, OutOfRange
from .geometry import Metric3, TorusGrid, build_pauli
from .minilang import parse_scalar_expr
from .spinor import FACTORIZATION_SIGN
from .suites import VERIFIERS
from .weyl import (_PLANEWAVE_GATED, _residuals, _within_gates, planewave_solution,
                   theorem_witness_suite)

TWO_PI = 2.0 * np.pi

# mallopt parameters of glibc's <malloc.h>, and its DEFAULT_MMAP_THRESHOLD_MAX
# on 64-bit: the ceiling its dynamic mmap threshold can reach
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


@functools.cache  # process-wide: set once, and a later job allocates nothing here
def _keep_freed_memory_mapped() -> None:
    """Pin glibc's malloc thresholds at the ceiling of its own dynamic rule.

    glibc sets its mmap and trim thresholds from the largest block freed
    so far, 128 KiB-1 MiB for the fields of a 16^3-32^3 job. It then
    hands the heap top back to the OS after almost every function, and
    the next one faults the same pages in again: 1-3 k minor faults per
    job. With blocks up to 32 MiB kept on the heap and a trim threshold
    of twice that (glibc pairs them so), a repeated job faults almost no
    pages. The trim threshold is set only once the mmap one is: set
    alone, it turns the dynamic rule off with the mmap threshold left at
    128 KiB. Does nothing off glibc. Called by `main`, never at import,
    so a library user keeps the allocator's defaults.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1:
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def _parse_values(text, cast, name, count=3):
    parts = text.split(",")
    if len(parts) != count:
        raise ConfigError(f"{name} expects {count} comma-separated values, got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name} {text!r}: {exc}") from None


def _parse_metric(text: str) -> Metric3:
    if text == "identity":
        return Metric3.identity()
    if text.startswith("diag:"):
        a, b, c = _parse_values(text[len("diag:"):], float, "--metric diag")
        return Metric3.diagonal(a, b, c)
    if text.startswith("full:"):
        g11, g12, g13, g22, g23, g33 = _parse_values(
            text[len("full:"):], float, "--metric full (g11,g12,g13,g22,g23,g33)", count=6)
        return Metric3.from_matrix([[g11, g12, g13],
                                    [g12, g22, g23],
                                    [g13, g23, g33]])
    raise ConfigError(f"unknown metric spec {text!r} "
                      "(use identity | diag:a,b,c | full:6 entries)")


def _build_grid(args) -> TorusGrid:
    dims = _parse_values(args.grid, int, "--grid")
    box = _parse_values(args.box, float, "--box")
    try:
        return TorusGrid(dims=dims, box=box)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_seed(seed) -> None:
    if seed is not None and seed < 0:  # numpy's generators take none
        raise ConfigError(f"--seed must be non-negative, got {seed}")


def _check_outputs(args) -> None:
    """Reject, before any work, an output path whose directory is missing
    and two outputs that resolve to one file (the later would overwrite
    the earlier)."""
    taken = {}
    for key in ("out", "eta_out", "density_csv"):
        path = getattr(args, key, None)
        if not path:
            continue
        named = f"--{key.replace('_', '-')} {path}"
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"{named}: its directory does not exist")
        real = os.path.realpath(path)
        if real in taken:
            raise ConfigError(f"{named}: the same file as {taken[real]}")
        taken[real] = named


def _canonical_config(args, grid, metric=None) -> dict:
    cfg = {
        "command": args.command,
        "grid": list(grid.dims),
        "box": list(grid.box),
        "version": __version__,
    }
    if metric is not None:
        cfg["metric"] = metric.g_lower.tolist()
    for key in ("what", "seed", "cases", "k", "branch", "n", "h"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return dict(sorted(cfg.items()))


def _emit(report: dict, out_path) -> None:
    """Write the report as strict JSON: a NaN or an infinity in it raises
    OutOfRange (exit 2) and the report is not written."""
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise OutOfRange(f"the report holds a value that is not finite: {exc}") from None
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _finish(report: dict, args) -> int:
    report["factorization_sign"] = FACTORIZATION_SIGN
    report["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    _emit(report, args.out)
    return 0 if report.get("verdict") == "pass" else 1


# verify option -> the suite keyword that honours it. verify has no
# --metric: each suite draws its own, and conformal uses the identity.
_VERIFY_KEYWORDS = {"seed": "seed", "cases": "n_cases", "h": "h_field"}


def _cmd_verify(args) -> int:
    suite = VERIFIERS[args.what]
    accepted = inspect.signature(suite).parameters
    if "seed" in accepted and args.seed is None:
        args.seed = 0  # run, and record in config, the default seed
    if "n_cases" in accepted and args.cases is None:
        args.cases = accepted["n_cases"].default  # and the suite's case count
    given = {opt: getattr(args, opt) for opt in _VERIFY_KEYWORDS
             if getattr(args, opt) is not None}
    for opt in given:
        if _VERIFY_KEYWORDS[opt] not in accepted:
            raise ConfigError(f"verify {args.what} takes no --{opt}")
    grid = _build_grid(args)
    _check_seed(args.seed)
    if args.h is not None:
        given["h"] = parse_scalar_expr(args.h, grid)
    result = suite(grid, **{_VERIFY_KEYWORDS[opt]: v for opt, v in given.items()})
    report = {
        "config": _canonical_config(args, grid),
        "result": result,
        "verdict": "pass" if result["pass"] else "fail",
    }
    return _finish(report, args)


def _cmd_planewave(args) -> int:
    grid = _build_grid(args)
    metric = _parse_metric(args.metric)
    k = _parse_values(args.k, int, "--k")
    branch = {"+": 1, "-": -1}[args.branch]
    spec, field = planewave_solution(k, branch, build_pauli(metric), grid)
    # the wave solves the sign-+1 equation at its signed p0 (PlaneWaveSpec)
    (res,), lag = _residuals(field[np.newaxis], spec.p0, 1)
    if args.eta_out:
        write_field(args.eta_out, "spinor", field.eta, grid)
    if args.density_csv:
        write_scalar_csv(args.density_csv, lag[0], grid)
    report = {
        "config": _canonical_config(args, grid, metric),
        "p0": spec.p0,
        "weyl_sign": 1,
        "dispersion_residual": spec.dispersion_residual,
        **res,
    }
    report["verdict"] = "pass" if _within_gates(report, _PLANEWAVE_GATED) else "fail"
    return _finish(report, args)


def _cmd_theorem(args) -> int:
    grid = _build_grid(args)
    metric = _parse_metric(args.metric)
    _check_seed(args.seed)
    report = theorem_witness_suite(args.seed, grid, metric, n_cases=args.n)
    report["config"].update(_canonical_config(args, grid, metric))
    return _finish(report, args)


@functools.cache  # process-wide: `main` parses each argv afresh with one parser
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process. Its suite names are
    those of `VERIFIERS` when it is built; `main` looks each suite up
    there when it runs it."""
    parser = argparse.ArgumentParser(
        prog="cosserat-weyl",
        description="Verification toolkit for the rotational-elasticity "
                    "model of the massless neutrino on a flat 3-torus.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, metric=True):
        p.add_argument("--grid", default="16,16,16",
                       help="grid dims N1,N2,N3 (even, >= 4)")
        p.add_argument("--box", default=f"{TWO_PI},{TWO_PI},{TWO_PI}",
                       help="coordinate periods L1,L2,L3")
        if metric:
            p.add_argument("--metric", default="identity",
                           help="identity | diag:a,b,c | full:g11,g12,g13,g22,g23,g33")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p_verify = sub.add_parser("verify", help="run a named invariant suite")
    p_verify.add_argument("what", choices=sorted(VERIFIERS))
    p_verify.add_argument("--seed", type=int, help="seed of the random cases (default 0)")
    p_verify.add_argument("--cases", type=int, help="number of seeded cases")
    p_verify.add_argument("--h", help="scalar expression, e.g. '0.3*cos(x2)' "
                                      "(for scaling: h; for conformal: e^h)")
    add_common(p_verify, metric=False)
    p_verify.set_defaults(func=_cmd_verify)

    p_pw = sub.add_parser("planewave", help="generate an exact plane-wave "
                                            "Weyl solution and check it")
    p_pw.add_argument("--k", required=True, help="integer modes k1,k2,k3 (nonzero)")
    p_pw.add_argument("--branch", choices=["+", "-"], default="+")
    p_pw.add_argument("--eta-out", help="write the spinor field as CWF v1")
    p_pw.add_argument("--density-csv", help="dump the Lagrangian density as CSV")
    add_common(p_pw)
    p_pw.set_defaults(func=_cmd_planewave)

    p_thm = sub.add_parser("theorem", help="run the solution/stationary-point "
                                           "witness suite")
    p_thm.add_argument("--seed", type=int, default=0)
    p_thm.add_argument("--n", type=int, default=16, help="cases per sign")
    add_common(p_thm)
    p_thm.set_defaults(func=_cmd_theorem)
    return parser


# options whose value may start with a minus sign, as "-1,0,2" or
# "-0.1*cos(x2)" do; argparse takes such a token for an option unless it
# is a plain negative number
_SIGNED_VALUE_OPTIONS = ("--k", "--h")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Write ``--k -1,0,2`` as ``--k=-1,0,2``, the form argparse parses."""
    joined = []
    for token in argv:
        if joined and joined[-1] in _SIGNED_VALUE_OPTIONS and re.match(r"-[0-9.]", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    _keep_freed_memory_mapped()
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        _check_outputs(args)
        return args.func(args)
    except (ModelError, OSError) as exc:  # OSError: an output path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
