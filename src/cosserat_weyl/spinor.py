"""Spinor representations of the model: bilinears, the stationary
Lagrangian density, the two Weyl Lagrangian densities, the
factorisation identity and scaling covariance.

With a constant metric on a flat torus the spinor covariant derivative
reduces to the partial derivative, so all derivatives here are
spectral. Every derivative the model needs is sigma^a d_a of a field,
applied as one Fourier symbol (`_dirac`); no per-axis gradient is built.
"""

from __future__ import annotations

from dataclasses import fields
from functools import cached_property

import numpy as np

from .errors import DegenerateDenominator, VanishingSpinor, ZeroFrequency
from .geometry import Metric3, PauliSet, TorusGrid

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


def _sandwich(eta: np.ndarray, sigma: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """etabar sigma_n xi for each 2x2 matrix sigma[n], n = 0, 1, 2,
    pointwise over any leading shape; returns shape (..., 3), complex.

    Written out in components: sigma_n xi first, then the conjugated
    inner product with eta.
    """
    e1, e2 = eta[..., 0].conj(), eta[..., 1].conj()
    # contiguous copies: the twelve products below run faster on them
    x1, x2 = xi[..., 0].copy(), xi[..., 1].copy()
    return np.stack([e1 * (m[0, 0] * x1 + m[0, 1] * x2)
                     + e2 * (m[1, 0] * x1 + m[1, 1] * x2) for m in sigma], axis=-1)


def _scalar_density(eta: np.ndarray) -> np.ndarray:
    """s = etabar sigma_0 eta = |eta_1|^2 + |eta_2|^2."""
    return np.einsum("...a,...a->...", eta.conj(), eta).real


def _vanishing(s: np.ndarray, axis=None):
    """Whether s fails the nonvanishing floor along ``axis`` (all of it
    by default): max s <= 0, or min s <= 1e-12 max s."""
    smax = np.max(s, axis=axis)
    return (smax <= 0.0) | (np.min(s, axis=axis) <= 1e-12 * smax)


def _check_nonvanishing(s: np.ndarray) -> None:
    if _vanishing(s):
        raise VanishingSpinor(
            f"spinor magnitude too small: min s = {np.min(s):.3e}, max s = {np.max(s):.3e}")


def _relative_max(diff, ref) -> float:
    """max|diff| / max|ref|, the denominator floored at the tiniest float."""
    return float(np.abs(diff).max()) / max(float(np.abs(ref).max()), np.finfo(float).tiny)


def _complex_covector(v_complex: np.ndarray, scale, axis=None):
    """Whether max |Im v| along ``axis`` (all of it by default) exceeds
    1e-13 times ``scale``."""
    return np.abs(v_complex.imag).max(axis=axis) > _REALITY_TOL * scale


def _check_real_covector(v_complex: np.ndarray, scale: float) -> None:
    if _complex_covector(v_complex, scale):
        raise ValueError("bilinear covector failed reality check: "
                         f"{np.abs(v_complex.imag).max():.3e}")


def _axial_density(eta: np.ndarray, slash: np.ndarray) -> np.ndarray:
    """A = (i/2)(etabar sigma^a d_a eta - c.c.) from eta and
    sigma^a d_a eta, pointwise over any leading shape."""
    # A = (i/2)(t - conj(t)) = -Im(t), exactly real by construction
    return -np.einsum("...a,...a->...", eta.conj(), slash).imag


def _stationary_density(s, A, p0: float, metric: Metric3):
    """16/(9 s) (A^2 - (p0 s)^2) sqrt(det g) from the bilinears."""
    return (16.0 / (9.0 * s)) * (A**2 - (p0 * s) ** 2) * metric.sqrt_det


def _weyl_density(s, A, p0: float, sign: int, metric: Metric3):
    """(A + sign p0 s) sqrt(det g) from the bilinears."""
    return (A + sign * p0 * s) * metric.sqrt_det


def _metric_norm2(w: np.ndarray, g_upper: np.ndarray) -> np.ndarray:
    """g^ab w_a w_b for a real covector field w."""
    return np.sum((w @ g_upper) * w, axis=-1)


def _dirac(eta: np.ndarray, sigma: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """sigma^a d_a eta as one Fourier multiplier, F^-1[(i k_a sigma^a) F eta],
    for any 2x2 matrices sigma[a], a = 0, 1, 2 (index a for axis a + 1).

    One `fftn` per spinor component, in place on a contiguous complex
    copy of it (eta may be real) less its mean, and one `ifftn` per
    output component, also in place (the `out=` of NumPy 2; with fresh
    outputs a call takes half as long again at 64^3). The wavenumbers
    are those of `spectral_partial` (Nyquist zeroed), so this is
    sum_a sigma[a] applied to the spectral partial d_a eta, up to
    rounding. Each of the four entries of the symbol is built per call
    from three 1-D arrays, in one pass over the grid into one of two
    reused buffers; no symbol is kept between calls.

    The mean has zero derivative. Removing it first keeps the rounding
    of a large constant part, such as the unit spinor of a nonvanishing
    field, out of every other mode: the worst `verify u1` residual at
    64^3 over seeds 0-7 is 1.6e-14 with it and 4.5e-14 without.
    """
    k1, k2, k3 = (grid.wavenumber(a) for a in (1, 2, 3))
    fhat = [np.fft.fftn(comp, out=comp)
            for comp in (eta[..., j] - complex(eta[..., j].mean()) for j in (0, 1))]

    def times_symbol(i, j, out):
        """out = (i k_a sigma[a][i, j]) (F eta)_j."""
        c1, c2, c3 = 1j * sigma[:, i, j]
        np.add((c1 * k1)[:, None, None] + (c2 * k2)[:, None], c3 * k3, out=out)
        out *= fhat[j]

    acc, term = np.empty_like(fhat[0]), np.empty_like(fhat[0])
    out = np.empty(eta.shape, dtype=complex)
    for i in (0, 1):
        times_symbol(i, 0, acc)
        times_symbol(i, 1, term)
        acc += term
        out[..., i] = np.fft.ifftn(acc, out=acc)
    return out


class SpinorField:
    """A spinor field eta with the Pauli set and grid it is evaluated on,
    and its bilinears s = etabar sigma_0 eta, the real covector
    v_a = etabar sigma_a eta and A = (i/2)(etabar sigma^a d_a eta - c.c.).

    Each of them and sigma^a d_a eta is computed at most once, when
    first asked for, so every check made on one field shares one
    sigma^a d_a eta, applied as one Fourier symbol (`_dirac`). The
    finite-difference probes perturb that cached array too, on the grid
    lines through each probed point, so the field is differentiated
    once whatever checks it. Every function of this package that takes
    a spinor field together with a Pauli set and a grid also accepts a
    `SpinorField` in place of the array; it raises ValueError if the
    field was built for a different Pauli set or grid. The cached
    arrays are shared: treat them, and eta, as read-only.
    """

    def __init__(self, eta: np.ndarray, pauli: PauliSet, grid: TorusGrid):
        self.eta = eta
        self.pauli = pauli
        self.grid = grid

    @cached_property
    def s(self) -> np.ndarray:
        return _scalar_density(self.eta)

    @cached_property
    def v(self) -> np.ndarray:
        """Real covector v_a, after a reality check at 1e-13 relative
        to max s."""
        v_complex = _sandwich(self.eta, self.pauli.sigma_lower, self.eta)
        _check_real_covector(v_complex,
                             max(float(np.max(self.s)), np.finfo(float).tiny))
        return v_complex.real

    @cached_property
    def slash(self) -> np.ndarray:
        """sigma^a d_a eta, as one Fourier symbol (see `_dirac`)."""
        return _dirac(self.eta, self.pauli.sigma_upper, self.grid)

    @cached_property
    def A(self) -> np.ndarray:
        return _axial_density(self.eta, self.slash)


def _same_pauli(a: PauliSet, b: PauliSet) -> bool:
    return a is b or all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
                         for f in fields(PauliSet))


def _field(eta: np.ndarray | SpinorField, pauli: PauliSet,
           grid: TorusGrid) -> SpinorField:
    """eta as a `SpinorField` on (pauli, grid); a given field must have
    been built for both."""
    if not isinstance(eta, SpinorField):
        return SpinorField(eta, pauli, grid)
    if eta.grid != grid or not _same_pauli(eta.pauli, pauli):
        raise ValueError("spinor field was built for a different Pauli set or grid")
    return eta


def bilinears(eta: np.ndarray | SpinorField, pauli: PauliSet,
              grid: TorusGrid) -> SpinorField:
    """The `SpinorField` of eta (an array or a field), which carries the
    bilinears ``s``, ``v`` and ``A``, after the reality check of v."""
    field = _field(eta, pauli, grid)
    field.v  # computing v runs its reality check
    return field


def _nonvanishing(eta: np.ndarray | SpinorField, pauli: PauliSet,
                  grid: TorusGrid) -> SpinorField:
    """`bilinears`, then the nonvanishing floor on s."""
    field = bilinears(eta, pauli, grid)
    _check_nonvanishing(field.s)
    return field


def lagrangian_stationary(eta: np.ndarray | SpinorField, p0: float, pauli: PauliSet,
                          metric: Metric3, grid: TorusGrid) -> np.ndarray:
    """Stationary Lagrangian density
    16/(9 s) (A^2 - (p0 s)^2) sqrt(det g)."""
    if p0 == 0.0:
        raise ZeroFrequency("p0 must be nonzero")
    b = _nonvanishing(eta, pauli, grid)
    return _stationary_density(b.s, b.A, p0, metric)


def lagrangian_weyl(eta: np.ndarray | SpinorField, p0: float, sign: int,
                    pauli: PauliSet, metric: Metric3, grid: TorusGrid) -> np.ndarray:
    """Weyl Lagrangian density L_pm = (A pm p0 s) sqrt(det g)."""
    if p0 == 0.0:
        raise ZeroFrequency("p0 must be nonzero")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    b = _nonvanishing(eta, pauli, grid)
    return _weyl_density(b.s, b.A, p0, sign, metric)


def factorization_residual(eta: np.ndarray | SpinorField, p0: float, pauli: PauliSet,
                           metric: Metric3, grid: TorusGrid):
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
    try:  # L+ - L- = 2 p0 s sqrt(det g) vanishes where s does
        b = _nonvanishing(eta, pauli, grid)
    except VanishingSpinor as exc:
        raise DegenerateDenominator(f"|L+ - L-| below threshold: {exc}") from None
    denom = 2.0 * p0 * b.s * metric.sqrt_det
    lag = _stationary_density(b.s, b.A, p0, metric)
    lp = _weyl_density(b.s, b.A, p0, 1, metric)
    lm = _weyl_density(b.s, b.A, p0, -1, metric)
    quotient = (-32.0 * p0 / 9.0) * lp * lm / denom
    residuals = {kappa: np.abs(lag - kappa * quotient) for kappa in (1, -1)}
    sign_used = min(residuals, key=lambda kappa: float(residuals[kappa].max()))
    return residuals[sign_used], sign_used


def scaling_covariance_residual(eta: np.ndarray | SpinorField, h: np.ndarray, p0: float,
                                sign: int, pauli: PauliSet, metric: Metric3,
                                grid: TorusGrid) -> float:
    """Max-norm residual of L_pm(e^h eta) = e^{2h} L_pm(eta), relative
    to the field scale.

    Exact pointwise in the continuum; on the grid limited only by
    aliasing of e^h eta, so use a band-limit safety factor >= 4.
    """
    return _scaling_residuals(_field(eta, pauli, grid), h, p0, (sign,), metric)[0]


def _scaling_residuals(field: SpinorField, h: np.ndarray, p0: float, signs,
                       metric: Metric3) -> list:
    """`scaling_covariance_residual` for each Weyl sign in ``signs``, all
    from one field of e^h eta, so it is differentiated once."""
    pauli, grid = field.pauli, field.grid
    eh = np.exp(h)
    scaled = SpinorField(field.eta * eh[..., np.newaxis], pauli, grid)
    residuals = []
    for sign in signs:
        lhs = lagrangian_weyl(scaled, p0, sign, pauli, metric, grid)
        rhs = eh * eh * lagrangian_weyl(field, p0, sign, pauli, metric, grid)
        residuals.append(_relative_max(lhs - rhs, rhs))
    return residuals


def stationary_ansatz(eta: np.ndarray, p0: float):
    """Time slice of xi = e^{-i p0 x0} eta at x0 = 0: returns
    (xi, d0 xi) = (eta, -i p0 eta)."""
    return eta, -1j * p0 * eta


def lagrangian_dynamic(xi: np.ndarray | SpinorField, dxi0: np.ndarray, pauli: PauliSet,
                       metric: Metric3, grid: TorusGrid) -> np.ndarray:
    """Dynamic Lagrangian density at a fixed time, given the field and
    its time derivative on that slice:

        4/(9 s) ( [i(xibar sigma^a d_a xi - c.c.)]^2
                  - |i(xibar sigma_a d_0 xi - c.c.)|^2 ) sqrt(det g)

    where the covector norm is g^ab w_a w_b. For the stationary ansatz
    this reduces pointwise to `lagrangian_stationary` (via the Fierz
    identity g^ab v_a v_b = s^2).
    """
    field = _nonvanishing(xi, pauli, grid)
    space_term = 2.0 * field.A
    t = _sandwich(field.eta, pauli.sigma_lower, dxi0)
    w = -2.0 * t.imag  # i(xibar sigma_a d0 xi - c.c.), real covector
    wnorm2 = _metric_norm2(w, metric.g_upper)
    return (4.0 / (9.0 * field.s)) * (space_term**2 - wnorm2) * metric.sqrt_det


def fierz_residual(eta: np.ndarray | SpinorField, pauli: PauliSet, metric: Metric3,
                   grid: TorusGrid) -> float:
    """Max-norm residual of g^ab v_a v_b = s^2, relative to max s^2.
    Needs no derivative of eta."""
    field = _field(eta, pauli, grid)
    s2 = field.s**2
    return _relative_max(_metric_norm2(field.v, metric.g_upper) - s2, s2)
