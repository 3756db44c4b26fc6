"""Seeded verification suites behind the CLI ``verify`` command.

Each suite runs a named invariant on seeded random fields and returns
a JSON-ready report: per-case residuals, the worst residual, the
suite's fixed tolerance, and a pass flag.
"""

from __future__ import annotations

import numpy as np

from .correspondence import frame_to_spinor, spinor_to_frame
from .cosserat import conformal_rescale, potential_energy
from .errors import ConfigError
from .geometry import Metric3, TorusGrid, _plane_wave, build_pauli
from .sampling import (
    _check_safely_nonvanishing,
    _perturbed_unit_spinor,
    random_bandlimited_scalar,
    random_spd_metric,
    rotating_coframe,
)
from .spinor import (
    SpinorField,
    _relative_max,
    factorization_residual,
    fierz_residual,
    lagrangian_stationary,
    lagrangian_weyl,
    scaling_covariance_residual,
)

_P0_CYCLE = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)

# Gate of each suite's residual, by the report's "what"
_SUITE_TOL = {"factorization": 1e-10, "scaling": 1e-10, "conformal": 1e-8,
              "fierz": 1e-12, "u1": 1e-13, "correspondence": 1e-10}
# Orthonormality gate of the correspondence suite
_FRAME_ORTHO_TOL = 1e-12
# Amplitude of the scale h a scaling case draws when no h_field is given
_SCALING_H_AMPLITUDE = 0.2


def _report(what, cases, other_gates=True, **extra):
    """The suite's report; it passes if every residual is within the
    suite's gate in `_SUITE_TOL` and ``other_gates`` holds."""
    worst = max((c["residual"] for c in cases), default=0.0)
    tol = _SUITE_TOL[what]
    return {"what": what, "cases": cases, "max_residual": worst, "tolerance": tol,
            "pass": bool(worst <= tol and other_gates), **extra}


def _each_case(case, grid: TorusGrid, seed: int, n_cases: int, **spinor_kw) -> list:
    """What ``case(i, metric, pauli, field, p0, rng)`` returns on each of
    ``n_cases`` seeded cases, in order: a random SPD metric and a
    nonvanishing spinor from one RNG seeded with ``seed``, and p0 from
    {+-0.5, +-1, +-2}. A case that needs more random input draws it from
    ``rng`` before the next case is drawn. The loop drops a case's field
    before it draws the next one, so neither that field nor anything
    ``case`` made from it is held meanwhile. Fewer than one case would
    check nothing and pass: ConfigError."""
    if n_cases < 1:
        raise ConfigError(f"n_cases must be at least 1, got {n_cases}")
    rng = np.random.default_rng(seed)
    results = []
    for i in range(n_cases):
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        # the draw of random_nonvanishing_spinor, its guard run on the
        # field's s, which every check of the case then reuses
        field = SpinorField(_perturbed_unit_spinor(grid, rng, **spinor_kw), pauli, grid)
        _check_safely_nonvanishing(field.s)
        results.append(case(i, metric, pauli, field, _P0_CYCLE[i % len(_P0_CYCLE)], rng))
        del field
    return results


def verify_factorization(grid: TorusGrid, seed: int, n_cases: int = 100) -> dict:
    """Pointwise relative factorisation residual on random nonvanishing
    band-limited spinors, random SPD metrics and p0 in {+-0.5, +-1, +-2},
    with the one global sign `spinor.FACTORIZATION_SIGN`."""
    def case(i, metric, pauli, field, p0, _):
        res = factorization_residual(field, p0, pauli, metric, grid)
        lag = lagrangian_stationary(field, p0, pauli, metric, grid)
        return {"case": i, "p0": p0, "residual": _relative_max(res, lag)}

    return _report("factorization", _each_case(case, grid, seed, n_cases))


def verify_scaling(grid: TorusGrid, seed: int, n_cases: int = 20,
                   h_field: np.ndarray = None) -> dict:
    """Scaling covariance of both Weyl densities, L_pm(e^h eta) =
    e^{2h} L_pm(eta), on seeded (eta, h) pairs.

    The identity is pointwise exact in the continuum; on the grid the
    residual is set by aliasing of e^h eta, so h must stay small and
    smooth relative to the Nyquist mode (band-limit safety factor 4).
    """
    def case(i, metric, pauli, field, p0, rng):
        h = h_field if h_field is not None else \
            random_bandlimited_scalar(grid, rng, max_mode=1, amplitude=_SCALING_H_AMPLITUDE)
        residuals = scaling_covariance_residual(field, h, p0, pauli, metric, grid)
        return [{"case": i, "p0": p0, "weyl_sign": sign, "residual": res}
                for sign, res in zip((1, -1), residuals)]

    pairs = _each_case(case, grid, seed, n_cases, max_mode=1)
    return _report("scaling", [c for pair in pairs for c in pair])


def verify_conformal(grid: TorusGrid, h_field: np.ndarray = None) -> dict:
    """Conformal invariance of the potential energy on a rotating
    coframe, P(e^h theta, e^{2h} rho) = P(theta, rho).

    ``h_field`` is the scale e^h (default 1.5 + cos x1); it must be
    positive.
    """
    if h_field is None:
        h_field = 1.5 + _plane_wave(grid, (1, 0, 0), 1.0).real
    if float(np.min(h_field)) <= 0.0:
        raise ConfigError("conformal scale e^h must be positive everywhere")
    metric = Metric3.identity()
    theta = rotating_coframe(grid, 2.0 * np.pi * grid.axis_coords(3) / grid.box[2])
    rho = np.ones(grid.shape)
    p_base = potential_energy(theta, rho, metric, grid)
    # rebinding frees the unscaled pair before the rescaled one is differentiated
    theta, rho = conformal_rescale(theta, rho, np.log(h_field))
    p_scaled = potential_energy(theta, rho, metric, grid)
    cases = [{"P": p_base, "P_rescaled": p_scaled,
              "residual": _relative_max(p_scaled - p_base, p_base)}]
    return _report("conformal", cases)


def verify_fierz(grid: TorusGrid, seed: int, n_cases: int = 50) -> dict:
    """Fierz identity g^ab v_a v_b = s^2 on random spinors and metrics."""
    def case(i, metric, pauli, field, _, __):
        return {"case": i, "residual": fierz_residual(field, pauli, metric, grid)}

    return _report("fierz", _each_case(case, grid, seed, n_cases))


def verify_u1(grid: TorusGrid, seed: int, n_cases: int = 20) -> dict:
    """Invariance of all spinor-module outputs under a constant phase."""
    def case(i, metric, pauli, field, p0, rng):
        # both fields are the case's own, so each v and sigma^a d_a eta is
        # released once it has served: one pair of v, and one sigma^a d_a
        # eta, alive at a time. The worst residual does not depend on the
        # order of the comparisons
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        rotated = SpinorField(phase * field.eta, pauli, grid)
        worst = _relative_max(field.v - rotated.v, field.v)
        del field.v, rotated.v
        worst = max(worst, _relative_max(field.s - rotated.s, field.s))
        field.A  # read before the rotated field is differentiated
        del field.slash
        worst = max(worst, _relative_max(field.A - rotated.A, field.A))
        del rotated.slash
        for sign in (1, -1):
            lhs, rhs = (lagrangian_weyl(f, p0, sign, pauli, metric, grid) for f in (field, rotated))
            worst = max(worst, _relative_max(lhs - rhs, lhs))
        return {"case": i, "p0": p0, "residual": worst}

    return _report("u1", _each_case(case, grid, seed, n_cases))


def _correspondence_case(i, metric, pauli, field, _, __) -> dict:
    """One correspondence case: its orthonormality and round trip. The
    frame and density die before the round trip is measured, and the
    lifted spinor when it returns."""
    xi = field.eta
    theta, rho = spinor_to_frame(field, pauli, metric, field.grid)
    xi_rec, ortho = frame_to_spinor(theta, rho, pauli, metric)
    del theta, rho
    scale = float(np.abs(xi).max())
    roundtrip = min(float(np.abs(xi_rec - xi).max()),
                    float(np.abs(xi_rec + xi).max())) / scale
    return {"case": i, "orthonormality": ortho, "residual": roundtrip}


def verify_correspondence(grid: TorusGrid, seed: int, n_cases: int = 50) -> dict:
    """Orthonormality of the spinor-to-frame map (at 1e-12) and both
    round trips (at 1e-10), modulo the global sign of the spinor."""
    cases = _each_case(_correspondence_case, grid, seed, n_cases, amplitude=0.15,
                       max_mode=1)
    worst_ortho = max((c["orthonormality"] for c in cases), default=0.0)
    return _report("correspondence", cases,
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
