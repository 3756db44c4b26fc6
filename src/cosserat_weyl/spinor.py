"""Spinor representations of the model: bilinears, the stationary
Lagrangian density, the two Weyl Lagrangian densities, the
factorisation identity and scaling covariance.

With a constant metric on a flat torus the spinor covariant derivative
reduces to the partial derivative, so all derivatives here are
spectral partials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, VanishingSpinor, ZeroFrequency
from .geometry import Metric3, PauliSet, TorusGrid, spectral_partial

# Global sign reconciling the stationary Lagrangian with its
# factorisation through the two Weyl densities, relative to the
# printed constant -32 p0 / 9.
#
# Derivation: with L_pm = (A pm p0 s) sqrt(det g) one has
#   L_+ L_- / (L_+ - L_-) = (A^2 - p0^2 s^2) sqrt(det g) / (2 p0 s),
# so (+32 p0 / 9) times that quotient equals the stationary density
#   L = 16/(9 s) (A^2 - p0^2 s^2) sqrt(det g)
# identically. The printed constant -32 p0 / 9 therefore needs the
# extra sign below; `factorization_residual` re-derives it empirically
# on every call and reports which sign reconciles.
FACTORIZATION_SIGN = -1

_REALITY_TOL = 1e-13


@dataclass(frozen=True)
class SpinorBilinears:
    """Pointwise bilinears of a spinor field.

    s = etabar sigma_0 eta (real, > 0 for nonvanishing spinors),
    v_a = etabar sigma_a eta (real covector),
    A = (i/2)(etabar sigma^a d_a eta - c.c.) (real scalar).
    """

    s: np.ndarray
    v: np.ndarray
    A: np.ndarray


def _check_nonvanishing(s: np.ndarray, floor_rel: float = 1e-12) -> None:
    smax = float(np.max(s))
    if smax <= 0.0 or float(np.min(s)) <= floor_rel * smax:
        raise VanishingSpinor(
            f"spinor magnitude too small: min s = {np.min(s):.3e}, max s = {smax:.3e}")


def _check_real_covector(v_complex: np.ndarray, scale: float) -> None:
    v_imag = float(np.abs(v_complex.imag).max())
    if v_imag > _REALITY_TOL * scale:
        raise ValueError(f"bilinear covector failed reality check: {v_imag:.3e}")


def _axial_density(eta: np.ndarray, deta: np.ndarray, pauli: PauliSet) -> np.ndarray:
    """A = (i/2)(etabar sigma^a d_a eta - c.c.) from eta and its
    gradient stack (axis first), pointwise over any leading shape."""
    t = np.einsum("...a,nab,n...b->...", eta.conj(), pauli.sigma_upper, deta)
    # A = (i/2)(t - conj(t)) = -Im(t), exactly real by construction
    return -t.imag


def _stationary_density(s, A, p0: float, metric: Metric3):
    """16/(9 s) (A^2 - (p0 s)^2) sqrt(det g) from the bilinears."""
    return (16.0 / (9.0 * s)) * (A**2 - (p0 * s) ** 2) * metric.sqrt_det


def spinor_gradient(eta: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Stack of spectral partials (d_1 eta, d_2 eta, d_3 eta), shape
    (3,) + dims + (2,)."""
    return np.stack([spectral_partial(eta, i, grid) for i in (1, 2, 3)])


def bilinears(eta: np.ndarray, pauli: PauliSet, grid: TorusGrid,
              require_nonvanishing: bool = False) -> SpinorBilinears:
    """Compute (s, v, A) for a spinor field.

    Imaginary parts are discarded after a reality check at 1e-13
    relative to the field scale.
    """
    s = np.einsum("...a,...a->...", eta.conj(), eta).real
    if require_nonvanishing:
        _check_nonvanishing(s)
    v_complex = np.einsum("...a,nab,...b->...n", eta.conj(), pauli.sigma_lower, eta)
    _check_real_covector(v_complex, max(float(np.max(s)), np.finfo(float).tiny))
    A = _axial_density(eta, spinor_gradient(eta, grid), pauli)
    return SpinorBilinears(s=s, v=v_complex.real, A=A)


def lagrangian_stationary(eta: np.ndarray, p0: float, pauli: PauliSet,
                          metric: Metric3, grid: TorusGrid) -> np.ndarray:
    """Stationary Lagrangian density
    16/(9 s) (A^2 - (p0 s)^2) sqrt(det g)."""
    if p0 == 0.0:
        raise ZeroFrequency("p0 must be nonzero")
    b = bilinears(eta, pauli, grid, require_nonvanishing=True)
    return _stationary_density(b.s, b.A, p0, metric)


def lagrangian_weyl(eta: np.ndarray, p0: float, sign: int, pauli: PauliSet,
                    metric: Metric3, grid: TorusGrid) -> np.ndarray:
    """Weyl Lagrangian density L_pm = (A pm p0 s) sqrt(det g)."""
    if p0 == 0.0:
        raise ZeroFrequency("p0 must be nonzero")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    b = bilinears(eta, pauli, grid, require_nonvanishing=True)
    return (b.A + sign * p0 * b.s) * metric.sqrt_det


def factorization_residual(eta: np.ndarray, p0: float, pauli: PauliSet,
                           metric: Metric3, grid: TorusGrid,
                           denominator_floor_rel: float = 1e-12):
    """Pointwise residual of the factorisation of the stationary
    density through L_+ and L_-.

    Returns ``(residual_field, sign_used)`` where sign_used in {+1, -1}
    multiplies the printed constant -32 p0 / 9 and is chosen to
    minimise the global residual. With the conventions of this package
    the identity is algebraically exact for one sign, so the residual
    is floating-point noise.
    """
    if p0 == 0.0:
        raise ZeroFrequency("p0 must be nonzero")
    b = bilinears(eta, pauli, grid)
    denom = 2.0 * p0 * b.s * metric.sqrt_det  # = L+ - L-
    floor = denominator_floor_rel * float(np.abs(denom).max())
    bad = np.abs(denom) <= floor
    if np.any(bad):
        raise DegenerateDenominator(
            f"|L+ - L-| below threshold at {int(bad.sum())} grid points")
    lag = _stationary_density(b.s, b.A, p0, metric)
    lp = (b.A + p0 * b.s) * metric.sqrt_det
    lm = (b.A - p0 * b.s) * metric.sqrt_det
    quotient = (-32.0 * p0 / 9.0) * lp * lm / denom
    residuals = {kappa: np.abs(lag - kappa * quotient) for kappa in (1, -1)}
    sign_used = min(residuals, key=lambda kappa: float(residuals[kappa].max()))
    return residuals[sign_used], sign_used


def scaling_covariance_residual(eta: np.ndarray, h: np.ndarray, p0: float,
                                sign: int, pauli: PauliSet, metric: Metric3,
                                grid: TorusGrid) -> float:
    """Max-norm residual of L_pm(e^h eta) = e^{2h} L_pm(eta), relative
    to the field scale.

    Exact pointwise in the continuum; on the grid limited only by
    aliasing of e^h eta, so use a band-limit safety factor >= 4.
    """
    eh = np.exp(h)
    lhs = lagrangian_weyl(eta * eh[..., np.newaxis], p0, sign, pauli, metric, grid)
    rhs = eh * eh * lagrangian_weyl(eta, p0, sign, pauli, metric, grid)
    scale = max(float(np.abs(rhs).max()), np.finfo(float).tiny)
    return float(np.abs(lhs - rhs).max()) / scale


def stationary_ansatz(eta: np.ndarray, p0: float):
    """Time slice of xi = e^{-i p0 x0} eta at x0 = 0: returns
    (xi, d0 xi) = (eta, -i p0 eta)."""
    return eta, -1j * p0 * eta


def lagrangian_dynamic(xi: np.ndarray, dxi0: np.ndarray, pauli: PauliSet,
                       metric: Metric3, grid: TorusGrid) -> np.ndarray:
    """Dynamic Lagrangian density at a fixed time, given the field and
    its time derivative on that slice:

        4/(9 s) ( [i(xibar sigma^a d_a xi - c.c.)]^2
                  - |i(xibar sigma_a d_0 xi - c.c.)|^2 ) sqrt(det g)

    where the covector norm is g^ab w_a w_b. For the stationary ansatz
    this reduces pointwise to `lagrangian_stationary` (via the Fierz
    identity g^ab v_a v_b = s^2).
    """
    b = bilinears(xi, pauli, grid, require_nonvanishing=True)
    space_term = 2.0 * b.A
    t = np.einsum("...a,nab,...b->...n", xi.conj(), pauli.sigma_lower, dxi0)
    w = -2.0 * t.imag  # i(xibar sigma_a d0 xi - c.c.), real covector
    wnorm2 = np.einsum("...a,ab,...b->...", w, metric.g_upper, w)
    return (4.0 / (9.0 * b.s)) * (space_term**2 - wnorm2) * metric.sqrt_det


def fierz_residual(eta: np.ndarray, pauli: PauliSet, metric: Metric3,
                   grid: TorusGrid) -> float:
    """Max-norm residual of g^ab v_a v_b = s^2, relative to max s^2."""
    b = bilinears(eta, pauli, grid)
    vv = np.einsum("...a,ab,...b->...", b.v, metric.g_upper, b.v)
    scale = max(float(np.max(b.s) ** 2), np.finfo(float).tiny)
    return float(np.abs(vv - b.s**2).max()) / scale
