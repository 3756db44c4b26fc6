"""Command-line surface: seeded, reproducible verification jobs with
JSON reports.

Exit codes: 0 all residuals within tolerance, 1 verification failure,
2 configuration/usage error. Identical config and seed produce
byte-identical reports up to the ``timestamp`` field.
"""

from __future__ import annotations

import argparse
import datetime
import inspect
import json
import sys

import numpy as np

from . import __version__
from .cwf import write_field, write_scalar_csv
from .errors import ConfigError, ModelError
from .geometry import Metric3, TorusGrid
from .minilang import parse_scalar_expr
from .spinor import FACTORIZATION_SIGN
from .suites import VERIFIERS
from .weyl import (EL_TOL, LAGRANGIAN_TOL, WEYL_TOL, _residuals, planewave_solution,
                   theorem_witness_suite)

TWO_PI = 2.0 * np.pi


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


def _canonical_config(args, grid, metric=None) -> dict:
    cfg = {
        "command": args.command,
        "grid": list(grid.dims),
        "box": list(grid.box),
        "version": __version__,
    }
    if metric is not None:
        cfg["metric"] = metric.g_lower.tolist()
    for key in ("what", "seed", "cases", "tol", "k", "branch", "n", "perturb", "h"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return dict(sorted(cfg.items()))


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _finish(report: dict, args) -> int:
    report["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    _emit(report, args.out)
    return 0 if report.get("verdict") == "pass" else 1


# verify option -> the suite keyword that honours it. No suite takes a
# metric: each draws its own, and conformal uses the identity.
_VERIFY_KEYWORDS = {"seed": "seed", "cases": "n_cases", "tol": "tol",
                    "h": "h_field", "metric": "metric"}


def _cmd_verify(args) -> int:
    suite = VERIFIERS[args.what]
    accepted = inspect.signature(suite).parameters
    if "seed" in accepted and args.seed is None:
        args.seed = 0  # run, and record in config, the default seed
    given = {opt: getattr(args, opt) for opt in _VERIFY_KEYWORDS
             if getattr(args, opt) is not None}
    for opt in given:
        if _VERIFY_KEYWORDS[opt] not in accepted:
            raise ConfigError(f"verify {args.what} takes no --{opt}")
    grid = _build_grid(args)
    if args.tol is not None and not 0.0 < args.tol < np.inf:
        raise ConfigError("--tol must be finite and positive")
    if args.cases is not None and args.cases < 1:
        raise ConfigError("--cases must be at least 1")
    if args.h is not None:
        given["h"] = parse_scalar_expr(args.h, grid)
    result = suite(grid, **{_VERIFY_KEYWORDS[opt]: v for opt, v in given.items()})
    report = {
        "config": _canonical_config(args, grid),
        "factorization_sign": FACTORIZATION_SIGN,
        "result": result,
        "verdict": "pass" if result["pass"] else "fail",
    }
    return _finish(report, args)


def _cmd_planewave(args) -> int:
    grid = _build_grid(args)
    metric = _parse_metric(args.metric)
    k = _parse_values(args.k, int, "--k")
    branch = {"+": 1, "-": -1}[args.branch]
    spec, field = planewave_solution(k, branch, metric, grid)
    if args.eta_out:
        write_field(args.eta_out, "spinor", field.eta, grid)
    # the wave solves the sign-+1 equation at its signed p0 (PlaneWaveSpec)
    res, lag = _residuals(field, spec.p0, 1, metric)
    if args.density_csv:
        write_scalar_csv(args.density_csv, lag, grid)
    report = {
        "config": _canonical_config(args, grid, metric),
        "factorization_sign": FACTORIZATION_SIGN,
        "p0": spec.p0,
        "weyl_sign": 1,
        "dispersion_residual": spec.dispersion_residual,
        **res,
        "verdict": "pass" if (spec.dispersion_residual <= WEYL_TOL
                              and res["weyl_residual"] <= WEYL_TOL
                              and res["el_residual"] <= EL_TOL
                              and res["L_max"] <= LAGRANGIAN_TOL) else "fail",
    }
    return _finish(report, args)


def _cmd_theorem(args) -> int:
    grid = _build_grid(args)
    metric = _parse_metric(args.metric)
    if args.n < 1:
        raise ConfigError("--n must be at least 1")
    if not np.isfinite(args.perturb):
        raise ConfigError("--perturb must be finite")
    report = theorem_witness_suite(args.seed, grid, metric, n_cases=args.n,
                                   perturb=args.perturb)
    report["config"].update(_canonical_config(args, grid, metric))
    report["factorization_sign"] = FACTORIZATION_SIGN
    return _finish(report, args)


def build_parser() -> argparse.ArgumentParser:
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
        else:
            # parsed only so that _cmd_verify can reject it with exit code 2
            p.add_argument("--metric", help=argparse.SUPPRESS)
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p_verify = sub.add_parser("verify", help="run a named invariant suite")
    p_verify.add_argument("what", choices=sorted(VERIFIERS))
    p_verify.add_argument("--seed", type=int, help="seed of the random cases (default 0)")
    p_verify.add_argument("--cases", type=int, help="number of seeded cases")
    p_verify.add_argument("--tol", type=float, help="override the tolerance")
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
    p_thm.add_argument("--perturb", type=float, default=0.1,
                       help="amplitude of the non-solution perturbations")
    add_common(p_thm)
    p_thm.set_defaults(func=_cmd_theorem)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
