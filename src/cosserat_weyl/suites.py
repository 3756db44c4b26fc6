"""Seeded verification suites behind the CLI ``verify`` command.

Each suite runs a named invariant on seeded random fields and returns
a JSON-ready report: per-case residuals, the worst residual, the
tolerance, and a pass flag.
"""

from __future__ import annotations

import numpy as np

from .correspondence import frame_to_spinor, spinor_to_frame
from .cosserat import orthonormality_residual, conformal_rescale, potential_energy
from .errors import ConfigError
from .geometry import Metric3, TorusGrid, build_pauli
from .sampling import (
    random_bandlimited_scalar,
    random_nonvanishing_spinor,
    random_spd_metric,
    rotating_coframe,
)
from .spinor import (
    SpinorField,
    bilinears,
    factorization_residual,
    fierz_residual,
    lagrangian_stationary,
    lagrangian_weyl,
    scaling_covariance_residual,
)

_P0_CYCLE = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)


def _report(what, cases, tol, extra=None):
    worst = max((c["residual"] for c in cases), default=0.0)
    report = {
        "what": what,
        "cases": cases,
        "max_residual": worst,
        "tolerance": tol,
        "pass": bool(worst <= tol),
    }
    if extra:
        report.update(extra)
    return report


def verify_factorization(grid: TorusGrid, seed: int, n_cases: int = 100,
                         tol: float = 1e-10) -> dict:
    """Pointwise relative factorisation residual on random nonvanishing
    band-limited spinors, random SPD metrics and p0 in {+-0.5, +-1, +-2},
    requiring a single global reconciling sign."""
    rng = np.random.default_rng(seed)
    cases = []
    signs = set()
    for i in range(n_cases):
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        field = SpinorField(random_nonvanishing_spinor(grid, rng), pauli, grid)
        p0 = _P0_CYCLE[i % len(_P0_CYCLE)]
        res, sign_used = factorization_residual(field, p0, pauli, metric, grid)
        lag = lagrangian_stationary(field, p0, pauli, metric, grid)
        rel = float(res.max()) / max(float(np.abs(lag).max()), np.finfo(float).tiny)
        signs.add(sign_used)
        cases.append({"case": i, "p0": p0, "sign": sign_used, "residual": rel})
    report = _report("factorization", cases, tol,
                     extra={"factorization_sign": sorted(signs)[0] if signs else None,
                            "single_sign": len(signs) <= 1})
    report["pass"] = bool(report["pass"] and len(signs) <= 1)
    return report


def verify_scaling(grid: TorusGrid, seed: int, n_cases: int = 20,
                   tol: float = 1e-10, h_field: np.ndarray = None,
                   h_amplitude: float = 0.2) -> dict:
    """Scaling covariance of both Weyl densities, L_pm(e^h eta) =
    e^{2h} L_pm(eta), on seeded (eta, h) pairs.

    The identity is pointwise exact in the continuum; on the grid the
    residual is set by aliasing of e^h eta, so h must stay small and
    smooth relative to the Nyquist mode (band-limit safety factor 4).
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        field = SpinorField(random_nonvanishing_spinor(grid, rng, max_mode=1),
                            pauli, grid)
        h = h_field if h_field is not None else \
            random_bandlimited_scalar(grid, rng, max_mode=1, amplitude=h_amplitude)
        p0 = _P0_CYCLE[i % len(_P0_CYCLE)]
        for sign in (1, -1):
            res = scaling_covariance_residual(field, h, p0, sign, pauli, metric, grid)
            cases.append({"case": i, "p0": p0, "weyl_sign": sign, "residual": res})
    return _report("scaling", cases, tol)


def verify_conformal(grid: TorusGrid, scale_field: np.ndarray = None,
                     tol: float = 1e-8) -> dict:
    """Conformal invariance of the potential energy on a rotating
    coframe, P(e^h theta, e^{2h} rho) = P(theta, rho).

    ``scale_field`` is e^h (default 1.5 + cos x1); it must be positive.
    """
    x1, _, x3 = grid.coords()
    if scale_field is None:
        scale_field = 1.5 + np.cos(2.0 * np.pi * x1 / grid.box[0])
    if float(np.min(scale_field)) <= 0.0:
        raise ConfigError("conformal scale e^h must be positive everywhere")
    metric = Metric3.identity()
    theta = rotating_coframe(grid, 2.0 * np.pi * x3 / grid.box[2])
    rho = np.ones(grid.shape)
    p_base = potential_energy(theta, rho, metric, grid)
    theta2, rho2 = conformal_rescale(theta, rho, np.log(scale_field))
    p_scaled = potential_energy(theta2, rho2, metric, grid)
    rel = abs(p_scaled - p_base) / max(abs(p_base), np.finfo(float).tiny)
    cases = [{"P": p_base, "P_rescaled": p_scaled, "residual": rel}]
    return _report("conformal", cases, tol)


def verify_fierz(grid: TorusGrid, seed: int, n_cases: int = 50,
                 tol: float = 1e-12) -> dict:
    """Fierz identity g^ab v_a v_b = s^2 on random spinors and metrics."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        field = SpinorField(random_nonvanishing_spinor(grid, rng), pauli, grid)
        res = fierz_residual(field, pauli, metric, grid)
        cases.append({"case": i, "residual": res})
    return _report("fierz", cases, tol)


def verify_u1(grid: TorusGrid, seed: int, n_cases: int = 20,
              tol: float = 1e-13) -> dict:
    """Invariance of all spinor-module outputs under a constant phase."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        field = SpinorField(eta, pauli, grid)
        rotated = SpinorField(phase * eta, pauli, grid)
        p0 = _P0_CYCLE[i % len(_P0_CYCLE)]
        b0 = bilinears(field, pauli, grid)
        b1 = bilinears(rotated, pauli, grid)
        worst = 0.0
        for lhs, rhs in ((b0.s, b1.s), (b0.v, b1.v), (b0.A, b1.A)):
            scale = max(float(np.abs(lhs).max()), np.finfo(float).tiny)
            worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
        for sign in (1, -1):
            lhs = lagrangian_weyl(field, p0, sign, pauli, metric, grid)
            rhs = lagrangian_weyl(rotated, p0, sign, pauli, metric, grid)
            scale = max(float(np.abs(lhs).max()), np.finfo(float).tiny)
            worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
        cases.append({"case": i, "p0": p0, "residual": worst})
    return _report("u1", cases, tol)


def verify_correspondence(grid: TorusGrid, seed: int, n_cases: int = 50,
                          ortho_tol: float = 1e-12,
                          roundtrip_tol: float = 1e-10) -> dict:
    """Orthonormality of the spinor-to-frame map and both round trips,
    modulo the global sign of the spinor."""
    rng = np.random.default_rng(seed)
    cases = []
    worst_ortho = 0.0
    for i in range(n_cases):
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        xi = random_nonvanishing_spinor(grid, rng, amplitude=0.15, max_mode=1)
        packet = spinor_to_frame(xi, pauli, metric, grid)
        ortho = float(orthonormality_residual(packet.theta, metric).max())
        xi_rec = frame_to_spinor(packet.theta, packet.rho, pauli, metric, grid)
        scale = float(np.abs(xi).max())
        roundtrip = min(float(np.abs(xi_rec - xi).max()),
                        float(np.abs(xi_rec + xi).max())) / scale
        worst_ortho = max(worst_ortho, ortho)
        cases.append({"case": i, "orthonormality": ortho, "residual": roundtrip})
    report = _report("correspondence", cases, roundtrip_tol,
                     extra={"max_orthonormality": worst_ortho,
                            "orthonormality_tolerance": ortho_tol})
    report["pass"] = bool(report["pass"] and worst_ortho <= ortho_tol)
    return report


VERIFIERS = {
    "factorization": verify_factorization,
    "scaling": verify_scaling,
    "conformal": verify_conformal,
    "fierz": verify_fierz,
    "u1": verify_u1,
    "correspondence": verify_correspondence,
}
