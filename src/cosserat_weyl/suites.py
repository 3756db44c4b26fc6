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
    _relative_max,
    bilinears,
    factorization_residual,
    fierz_residual,
    lagrangian_stationary,
    lagrangian_weyl,
    scaling_covariance_residual,
)

_P0_CYCLE = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)


def _report(what, cases, tol, other_gates=True, **extra):
    """The suite's report; it passes if every residual is within ``tol``
    and ``other_gates`` holds."""
    worst = max((c["residual"] for c in cases), default=0.0)
    return {"what": what, "cases": cases, "max_residual": worst, "tolerance": tol,
            "pass": bool(worst <= tol and other_gates), **extra}


def _seeded_cases(grid: TorusGrid, seed: int, n_cases: int, **spinor_kw):
    """Yield ``(i, metric, pauli, field, p0, rng)`` per case: a random SPD
    metric and a nonvanishing spinor from one RNG seeded with ``seed``,
    and p0 from {+-0.5, +-1, +-2}. A suite that needs more random input
    per case draws it from ``rng`` before asking for the next case."""
    rng = np.random.default_rng(seed)
    for i in range(n_cases):
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        field = SpinorField(random_nonvanishing_spinor(grid, rng, **spinor_kw),
                            pauli, grid)
        yield i, metric, pauli, field, _P0_CYCLE[i % len(_P0_CYCLE)], rng


def verify_factorization(grid: TorusGrid, seed: int, n_cases: int = 100,
                         tol: float = 1e-10) -> dict:
    """Pointwise relative factorisation residual on random nonvanishing
    band-limited spinors, random SPD metrics and p0 in {+-0.5, +-1, +-2},
    requiring a single global reconciling sign."""
    cases = []
    signs = set()
    for i, metric, pauli, field, p0, _ in _seeded_cases(grid, seed, n_cases):
        res, sign_used = factorization_residual(field, p0, pauli, metric, grid)
        lag = lagrangian_stationary(field, p0, pauli, metric, grid)
        signs.add(sign_used)
        cases.append({"case": i, "p0": p0, "sign": sign_used,
                      "residual": _relative_max(res, lag)})
    return _report("factorization", cases, tol, other_gates=len(signs) <= 1,
                   factorization_sign=sorted(signs)[0] if signs else None,
                   single_sign=len(signs) <= 1)


def verify_scaling(grid: TorusGrid, seed: int, n_cases: int = 20,
                   tol: float = 1e-10, h_field: np.ndarray = None,
                   h_amplitude: float = 0.2) -> dict:
    """Scaling covariance of both Weyl densities, L_pm(e^h eta) =
    e^{2h} L_pm(eta), on seeded (eta, h) pairs.

    The identity is pointwise exact in the continuum; on the grid the
    residual is set by aliasing of e^h eta, so h must stay small and
    smooth relative to the Nyquist mode (band-limit safety factor 4).
    """
    cases = []
    for i, metric, pauli, field, p0, rng in _seeded_cases(grid, seed, n_cases,
                                                          max_mode=1):
        h = h_field if h_field is not None else \
            random_bandlimited_scalar(grid, rng, max_mode=1, amplitude=h_amplitude)
        for sign in (1, -1):
            res = scaling_covariance_residual(field, h, p0, sign, pauli, metric, grid)
            cases.append({"case": i, "p0": p0, "weyl_sign": sign, "residual": res})
    return _report("scaling", cases, tol)


def verify_conformal(grid: TorusGrid, h_field: np.ndarray = None,
                     tol: float = 1e-8) -> dict:
    """Conformal invariance of the potential energy on a rotating
    coframe, P(e^h theta, e^{2h} rho) = P(theta, rho).

    ``h_field`` is the scale e^h (default 1.5 + cos x1); it must be
    positive.
    """
    x1, _, x3 = grid.coords()
    if h_field is None:
        h_field = 1.5 + np.cos(2.0 * np.pi * x1 / grid.box[0])
    if float(np.min(h_field)) <= 0.0:
        raise ConfigError("conformal scale e^h must be positive everywhere")
    metric = Metric3.identity()
    theta = rotating_coframe(grid, 2.0 * np.pi * x3 / grid.box[2])
    rho = np.ones(grid.shape)
    p_base = potential_energy(theta, rho, metric, grid)
    theta2, rho2 = conformal_rescale(theta, rho, np.log(h_field))
    p_scaled = potential_energy(theta2, rho2, metric, grid)
    cases = [{"P": p_base, "P_rescaled": p_scaled,
              "residual": _relative_max(p_scaled - p_base, p_base)}]
    return _report("conformal", cases, tol)


def verify_fierz(grid: TorusGrid, seed: int, n_cases: int = 50,
                 tol: float = 1e-12) -> dict:
    """Fierz identity g^ab v_a v_b = s^2 on random spinors and metrics."""
    cases = [{"case": i, "residual": fierz_residual(field, pauli, metric, grid)}
             for i, metric, pauli, field, _, _ in _seeded_cases(grid, seed, n_cases)]
    return _report("fierz", cases, tol)


def verify_u1(grid: TorusGrid, seed: int, n_cases: int = 20,
              tol: float = 1e-13) -> dict:
    """Invariance of all spinor-module outputs under a constant phase."""
    cases = []
    for i, metric, pauli, field, p0, rng in _seeded_cases(grid, seed, n_cases):
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        rotated = SpinorField(phase * field.eta, pauli, grid)
        b0 = bilinears(field, pauli, grid)
        b1 = bilinears(rotated, pauli, grid)
        pairs = [(b0.s, b1.s), (b0.v, b1.v), (b0.A, b1.A)]
        for sign in (1, -1):
            pairs.append([lagrangian_weyl(f, p0, sign, pauli, metric, grid)
                          for f in (field, rotated)])
        worst = max(_relative_max(lhs - rhs, lhs) for lhs, rhs in pairs)
        cases.append({"case": i, "p0": p0, "residual": worst})
    return _report("u1", cases, tol)


# Orthonormality gate of the correspondence suite
_FRAME_ORTHO_TOL = 1e-12


def verify_correspondence(grid: TorusGrid, seed: int, n_cases: int = 50,
                          tol: float = 1e-10) -> dict:
    """Orthonormality of the spinor-to-frame map (at 1e-12) and both
    round trips (at ``tol``), modulo the global sign of the spinor."""
    cases = []
    worst_ortho = 0.0
    for i, metric, pauli, field, _, _ in _seeded_cases(grid, seed, n_cases,
                                                       amplitude=0.15, max_mode=1):
        # the array, not the field, which would keep the bilinears that
        # spinor_to_frame takes alive through frame_to_spinor
        xi = field.eta
        packet = spinor_to_frame(xi, pauli, metric, grid)
        ortho = float(orthonormality_residual(packet.theta, metric).max())
        xi_rec = frame_to_spinor(packet.theta, packet.rho, pauli, metric)
        scale = float(np.abs(xi).max())
        roundtrip = min(float(np.abs(xi_rec - xi).max()),
                        float(np.abs(xi_rec + xi).max())) / scale
        worst_ortho = max(worst_ortho, ortho)
        cases.append({"case": i, "orthonormality": ortho, "residual": roundtrip})
    return _report("correspondence", cases, tol,
                   other_gates=worst_ortho <= _FRAME_ORTHO_TOL,
                   max_orthonormality=worst_ortho,
                   orthonormality_tolerance=_FRAME_ORTHO_TOL)


VERIFIERS = {
    "factorization": verify_factorization,
    "scaling": verify_scaling,
    "conformal": verify_conformal,
    "fierz": verify_fierz,
    "u1": verify_u1,
    "correspondence": verify_correspondence,
}
