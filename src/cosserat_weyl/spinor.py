"""Spinor representations of the model: bilinears, the stationary
Lagrangian density, the two Weyl Lagrangian densities, the
factorisation identity and scaling covariance.

With a constant metric on a flat torus the spinor covariant derivative
reduces to the partial derivative, so all derivatives here are
spectral. Every derivative the model needs is sigma^a d_a of a field,
applied as one Fourier symbol (`_dirac`); no per-axis gradient is built.

The covector v_a = etabar sigma_a eta is quadratic in eta: it is one
real 4x3 matrix applied to four real densities of eta, in one function
(`_covector`). It is real because a `PauliSet` is Hermitian, which the
set checks once when it is built, and it is built only where a residual
reads it.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property

import numpy as np

from .errors import DegenerateDenominator, OutOfRange, VanishingSpinor, ZeroFrequency
from .geometry import Metric3, PauliSet, TorusGrid, _component_planes, _same_value, _slabs

# Global sign reconciling the stationary Lagrangian with its
# factorisation through the two Weyl densities, relative to the
# printed constant -32 p0 / 9.
#
# Derivation: with L_pm = (A pm p0 s) sqrt(det g) one has
#   L_+ L_- / (L_+ - L_-) = (A^2 - p0^2 s^2) sqrt(det g) / (2 p0 s),
# so (+32 p0 / 9) times that quotient equals the stationary density
#   L = 16/(9 s) (A^2 - p0^2 s^2) sqrt(det g)
# identically. The printed constant -32 p0 / 9 therefore needs the
# extra sign below. `factorization_residual` applies it and nothing
# else, so a wrong sign fails the factorisation gate.
FACTORIZATION_SIGN = -1


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


def _covector(eta: np.ndarray, pauli: PauliSet) -> np.ndarray:
    """v_a = etabar sigma_a eta, pointwise over any leading shape, as
    P^T d for the real densities
    d = (|eta_1|^2, |eta_2|^2, Re etabar_1 eta_2, Im etabar_1 eta_2)
    and the real 4x3 matrix P with rows, for m = sigma_a,

        Re m00, Re m11, Re (m01 + m10), Im (m10 - m01).

    That is the real part of etabar m eta = m00 d0 + m11 d1
    + (m01 + m10) d2 + i (m01 - m10) d3. The imaginary part is at most
    max |m - m^dagger| per unit of s, which a `PauliSet` bounds by
    1e-13 when it is built, and is exactly zero for a `build_pauli` set.

    The four densities are written as four contiguous planes, and the
    3x4 matrix P^T takes them, in one matrix product, straight into the
    three component planes of v (`geometry._component_planes`)."""
    m = pauli.sigma_lower
    rows = np.array([m[:, 0, 0].real, m[:, 1, 1].real, (m[:, 0, 1] + m[:, 1, 0]).real,
                     (m[:, 1, 0] - m[:, 0, 1]).imag])
    dims = eta.shape[:-1]
    e1, e2 = eta[..., 0], eta[..., 1]
    d = np.empty((4,) + dims)
    np.square(e1.real, out=d[0])
    d[0] += np.square(e1.imag)
    np.square(e2.real, out=d[1])
    d[1] += np.square(e2.imag)
    z = e1.conj() * e2
    d[2], d[3] = z.real, z.imag
    v = _component_planes(dims, (3,), float)
    np.matmul(rows.T, d.reshape(4, -1), out=np.moveaxis(v, -1, 0).reshape(3, -1))
    return v


def _scalar_density(eta: np.ndarray) -> np.ndarray:
    """s = etabar sigma_0 eta = |eta_1|^2 + |eta_2|^2, in real arithmetic."""
    e1, e2 = eta[..., 0], eta[..., 1]
    return (e1.real**2 + e1.imag**2) + (e2.real**2 + e2.imag**2)


def _below_floor(low, high):
    """Whether a field whose s has least value ``low`` and greatest
    ``high`` fails the nonvanishing floor, elementwise: not
    low > 1e-12 high, which a NaN fails too (and high <= 0 implies)."""
    return ~(low > 1e-12 * high)


def _vanishing(s: np.ndarray):
    """Whether s fails the nonvanishing floor (`_below_floor`)."""
    return _below_floor(s.min(), s.max())


def _check_nonvanishing(s: np.ndarray) -> None:
    if _vanishing(s):
        raise VanishingSpinor(f"spinor magnitude too small or not finite: "
                              f"min s = {np.min(s):.3e}, max s = {np.max(s):.3e}")


def _check_nonzero_p0(p0: float) -> None:
    if p0 == 0.0:
        raise ZeroFrequency("p0 must be nonzero")


def _check_sign(sign, name: str = "sign") -> None:
    if sign not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {sign}")


def _relative_max(diff, ref) -> float:
    """max|diff| / max|ref|, the denominator floored at the tiniest float."""
    return float(np.abs(diff).max()) / max(float(np.abs(ref).max()), np.finfo(float).tiny)


def _axial_density(eta: np.ndarray, slash: np.ndarray) -> np.ndarray:
    """A = (i/2)(etabar sigma^a d_a eta - c.c.) from eta and
    sigma^a d_a eta, pointwise over any leading shape.

    A = -Im(etabar . slash), exactly real by construction, taken from
    the real and imaginary views of both arrays (no conjugate copy of
    eta): per component, Im eta Re slash - Re eta Im slash. It is
    written into the result one x1 slab (`geometry._slabs` of the last
    three leading axes) of every field of a stack at a time, as
    `el_gradient` and `_dirac` take them, so its temporaries stay a few
    slabs per field whatever the grid. An array of fewer leading axes,
    such as the (point,) of a list of spinors, is sliced along its
    first. Each chunk is a view, whatever the layout.
    """
    axial = np.empty(eta.shape[:-1])
    fields = (slice(None),) * max(axial.ndim - 3, 0)  # a stack's leading axes, whole
    for sl in _slabs(axial.shape[-3:]):
        block = fields + (sl,)
        e, d, out = eta[block], slash[block], axial[block]
        e1, e2, d1, d2 = e[..., 0], e[..., 1], d[..., 0], d[..., 1]
        np.multiply(e1.imag, d1.real, out=out)
        out -= e1.real * d1.imag
        second = e2.imag * d2.real
        second -= e2.real * d2.imag
        out += second
    return axial


def _stationary_density(s, A, p0: float, metric: Metric3):
    """16/(9 s) (A^2 - (p0 s)^2) sqrt(det g) from the bilinear arrays,
    each operation of that expression done in place, so only two arrays
    of their size are made."""
    difference = np.square(A)
    density = p0 * s
    np.square(density, out=density)
    difference -= density
    np.multiply(9.0, s, out=density)
    np.divide(16.0, density, out=density)
    density *= difference
    density *= metric.sqrt_det
    return density


def _weyl_density(s, A, p0: float, sign: int, metric: Metric3):
    """(A + sign p0 s) sqrt(det g) from the bilinears."""
    return (A + sign * p0 * s) * metric.sqrt_det


def _dirac(eta: np.ndarray, sigma: np.ndarray, grid: TorusGrid,
           out: np.ndarray | None = None) -> np.ndarray:
    """sigma^a d_a eta as one Fourier multiplier, F^-1[(i k_a sigma^a) F eta],
    for any 2x2 matrices sigma[a], a = 0, 1, 2 (index a for axis a + 1),
    of one field (shape dims + (2,)) or of each field of a stack (shape
    (n,) + dims + (2,)); the result has the shape of eta.

    The result is written into ``out``, a complex array of eta's shape
    in component planes (`geometry._component_planes` of eta.shape[:-1],
    so component j of every field is one contiguous (n,) + dims block;
    a new one by default), which may be eta itself: then eta is
    transformed in place. Each spinor component of each field less its
    mean is written into its plane of the result (eta may be real), and
    the (2, n) + dims block of all planes is transformed there by one
    `fft` per grid axis, in place. The symbol is built in two parts,
    each for all four of its entries in one operation: the (x1, x2) part
    c1 k1 + c2 k2, of shape (2, 2, N1, N2), and the x3 part c3 k3, of
    shape (2, 2, N3), with c = i sigma. It is then applied one x1 slab
    (`geometry._slabs`) at a time: each entry is built once for every
    field, in the last field's slot of one of two slab buffers (or, once
    (F eta)_0 has been read there for the last time, of that spectrum's
    slab), as its x3 part copied in and its (x1, x2) part added in place,
    so only one operand of each operation broadcasts and NumPy needs no
    buffer of the slot's size; addition commutes, so this has the bits of
    (c1 k1 + c2 k2) + c3 k3. Each entry is then multiplied by each
    field's spectrum into that field's slot; each row's sum is written
    straight into its spectrum. One `ifft` per axis then inverts the
    block in place (the `out=` of NumPy 2). The per-axis transforms are
    those `fftn` makes, last axis first, so each field's result keeps
    every bit of a transform of that field alone. So nothing grid-sized
    is allocated beyond the result, the slab buffers hold two slabs per
    field, and no symbol is kept between calls. The wavenumbers are those
    of `spectral_partial` (Nyquist zeroed), so this is sum_a sigma[a]
    applied to the spectral partial d_a eta, up to rounding.

    The mean has zero derivative. Removing it first keeps the rounding
    of a large constant part, such as the unit spinor of a nonvanishing
    field, out of every other mode: the worst `verify u1` residual at
    64^3 over seeds 0-7 is 1.6e-14 with it and 4.5e-14 without. It is
    the sum over the plane divided by the point count, as `ndarray.mean`
    takes it.
    """
    k1, k2, k3 = (grid.wavenumber(a) for a in (1, 2, 3))
    dims = eta.shape[-4:-1]
    if out is None:
        out = _component_planes(eta.shape[:-1])
    stack = eta.reshape((-1,) + eta.shape[-4:])  # a field is a stack of one
    # the (2, n) + dims block of all spectra: component j of every field is fhat[j]
    fhat = out.reshape(stack.shape).transpose(4, 0, 1, 2, 3)
    count = np.intp(math.prod(dims))
    for field, spectra in zip(stack, fhat.swapaxes(0, 1)):
        for j in (0, 1):
            np.subtract(field[..., j], complex(np.add.reduce(field[..., j], axis=None) / count),
                        out=spectra[j])
    for axis in (-1, -2, -3):
        np.fft.fft(fhat, axis=axis, out=fhat)
    coef = 1j * sigma[..., np.newaxis, np.newaxis]
    plane = coef[0] * k1[:, np.newaxis] + coef[1] * k2  # (2, 2, N1, N2)
    line = coef[2, ..., 0] * k3  # (2, 2, N3)
    slabs = _slabs(dims)
    buffers = np.empty((2, len(stack), slabs[0].stop) + dims[1:], dtype=complex)

    def times_symbol(i, j, sl, out):
        """out[n] = (i k_a sigma[a][i, j]) (F eta)_j of field n on the
        slab sl, the entry built once, in the last field's slot."""
        entry = out[-1]
        np.copyto(entry, line[i, j])
        entry += plane[i, j, sl, :, np.newaxis]
        np.multiply(entry, fhat[j, :-1, sl], out=out[:-1])
        entry *= fhat[j, -1, sl]

    for sl in slabs:
        first, second = buffers[:, :, :sl.stop - sl.start]
        times_symbol(0, 0, sl, first)
        times_symbol(1, 0, sl, second)  # the last read of (F eta)_0 on the slab
        times_symbol(0, 1, sl, fhat[0, :, sl])
        fhat[0, :, sl] += first
        times_symbol(1, 1, sl, first)
        np.add(second, first, out=fhat[1, :, sl])
    for axis in (-1, -2, -3):
        np.fft.ifft(fhat, axis=axis, out=fhat)
    return out


class SpinorField:
    """A spinor field eta with the Pauli set and grid it is evaluated on,
    and its bilinears s = etabar sigma_0 eta, the real covector
    v_a = etabar sigma_a eta and A = (i/2)(etabar sigma^a d_a eta - c.c.).

    Each of them and sigma^a d_a eta is computed at most once, when
    first asked for; v only where a residual reads it. v is real
    because the Pauli set is Hermitian, which `PauliSet` checks once
    when it is built, so no field checks it again. Every check made
    on one field shares one sigma^a d_a eta, applied as one Fourier
    symbol (`_dirac`). The finite-difference probes perturb that cached
    array too, on the grid lines through each probed point, so the
    field is differentiated once whatever checks it. The nonvanishing
    floor on s is checked once too, for a field that passes it
    (`_nonvanishing`). Every function of this package that takes a field
    reads its Pauli set, and so its metric (`PauliSet.metric`), and its
    grid from it; eta's shape must be the grid's + (2,), else ValueError.
    Only the three the benchmark calls with arrays (`lagrangian_stationary`,
    `weyl.weyl_residual_norm`, `correspondence.stationary_frame_path`)
    take a Pauli set and grid, with an array or a field built for both
    (by value: `geometry._same_value`; else ValueError). The cached
    arrays are shared: treat them, and eta, as read-only. Only the code
    that built a field may release one (``del field.slash``), which is
    then computed again if asked for; a function given a field releases
    what it made on a shallow copy, and one given an array builds the
    field itself, so it may release that field's arrays once it has
    read them (`lagrangian_stationary` drops s and sigma^a d_a eta).

    eta may also be a stack of fields on one Pauli set and grid, of
    shape (n,) + dims + (2,): then each cached array is the stack of the
    fields' arrays, one `_dirac` call and its transforms serve every
    field, the floor is checked on each field in turn, and the
    densities (`lagrangian_stationary`, `lagrangian_weyl`) come
    stacked; the functions that return a number take one field and
    raise ValueError for a stack.
    ``field[i]`` is field i of the stack, and ``field[np.newaxis]`` a
    stack of one field, each sharing, as views, every array computed
    so far.
    """

    def __init__(self, eta: np.ndarray, pauli: PauliSet, grid: TorusGrid):
        if eta.shape[-4:] != grid.shape + (2,) or eta.ndim > 5:
            raise ValueError(f"spinor field of shape {eta.shape} is not {grid.shape + (2,)} "
                             f"or (n,) + that on grid {grid.shape}")
        self.eta = eta
        self.pauli = pauli
        self.grid = grid

    @cached_property
    def s(self) -> np.ndarray:
        return _scalar_density(self.eta)

    @cached_property
    def v(self) -> np.ndarray:
        """Real covector v_a (`_covector`)."""
        return _covector(self.eta, self.pauli)

    @cached_property
    def slash(self) -> np.ndarray:
        """sigma^a d_a eta, as one Fourier symbol (see `_dirac`)."""
        return _dirac(self.eta, self.pauli.sigma_upper, self.grid)

    @cached_property
    def A(self) -> np.ndarray:
        return _axial_density(self.eta, self.slash)

    @cached_property
    def _floor_checked(self) -> None:
        """The nonvanishing floor on s (`_check_nonvanishing`), checked
        once for a field that passes it, and on each field of a stack in
        turn. An exception is not cached, so a field that fails it
        raises VanishingSpinor on every check."""
        for s in self.s.reshape((-1,) + self.grid.shape):
            _check_nonvanishing(s)

    def __getitem__(self, index) -> "SpinorField":
        """Field ``index`` of a stack, or a stack of one for np.newaxis,
        with every array computed so far shared as a view."""
        part = SpinorField(self.eta[index], self.pauli, self.grid)
        for name, value in self.__dict__.items():
            if name not in ("eta", "pauli", "grid"):
                part.__dict__[name] = value if value is None else value[index]
        return part


def _field(eta: np.ndarray | SpinorField, pauli: PauliSet,
           grid: TorusGrid) -> SpinorField:
    """eta as a `SpinorField` on (pauli, grid); a given field must have
    been built for both."""
    if not isinstance(eta, SpinorField):
        return SpinorField(eta, pauli, grid)
    if eta.grid != grid or not _same_value(eta.pauli, pauli):
        raise ValueError("spinor field was built for a different Pauli set or grid")
    return eta


def _nonvanishing(field: SpinorField) -> SpinorField:
    """The field, once the nonvanishing floor on its s has passed (once per field)."""
    field._floor_checked  # raises VanishingSpinor for a field below the floor
    return field


def _one_field(field: SpinorField, name: str) -> SpinorField:
    """The field, unless it is a stack, which ``name`` rejects: ValueError."""
    if field.eta.ndim > 4:
        raise ValueError(f"{name} takes one field, got a stack of {len(field.eta)}")
    return field


def lagrangian_stationary(eta: np.ndarray | SpinorField, p0: float, pauli: PauliSet,
                          metric: Metric3, grid: TorusGrid) -> np.ndarray:
    """Stationary Lagrangian density
    16/(9 s) (A^2 - (p0 s)^2) sqrt(det g), g the Pauli set's metric.
    The benchmark pins this signature (`_field`), and ``metric`` must
    equal the set's by value (`geometry._same_value`), else ValueError.

    A field this function builds from an array is its own to release:
    s is dropped once the nonvanishing floor has been checked on it, so
    it is not held through the transform; sigma^a d_a eta is dropped
    once A has been read; and s is then formed again, with the same
    bits. So while sigma^a d_a eta is alive, A is the only density
    beside it. A given `SpinorField` keeps, and gains, every array it is
    asked for.
    """
    _check_nonzero_p0(p0)
    b = _nonvanishing(_field(eta, pauli, grid))
    if not _same_value(pauli.metric, metric):
        raise ValueError("metric differs from the metric of the Pauli set")
    if b is not eta:
        del b.s
        b.A
        del b.slash
    return _stationary_density(b.s, b.A, p0, pauli.metric)


def lagrangian_weyl(field: SpinorField, p0: float, sign: int) -> np.ndarray:
    """Weyl Lagrangian density L_pm = (A pm p0 s) sqrt(det g)."""
    _check_nonzero_p0(p0)
    _check_sign(sign)
    b = _nonvanishing(field)
    return _weyl_density(b.s, b.A, p0, sign, field.pauli.metric)


def factorization_residual(field: SpinorField, p0: float) -> np.ndarray:
    """Pointwise residual of the factorisation of the stationary density
    through L_+ and L_-, |L - FACTORIZATION_SIGN (-32 p0/9) L_+ L_- / (L_+ - L_-)|:
    floating-point noise with the conventions of this package, and 2|L|
    with the other sign.
    """
    _check_nonzero_p0(p0)
    try:  # L+ - L- = 2 p0 s sqrt(det g) vanishes where s does
        b = _nonvanishing(field)
    except VanishingSpinor as exc:
        raise DegenerateDenominator(f"|L+ - L-| below threshold: {exc}") from None
    metric = field.pauli.metric
    denom = 2.0 * p0 * b.s * metric.sqrt_det
    lag = _stationary_density(b.s, b.A, p0, metric)
    lp = _weyl_density(b.s, b.A, p0, 1, metric)
    lm = _weyl_density(b.s, b.A, p0, -1, metric)
    quotient = (-32.0 * p0 / 9.0) * lp * lm / denom
    return np.abs(lag - FACTORIZATION_SIGN * quotient)


def scaling_covariance_residual(field: SpinorField, h: np.ndarray,
                                p0: float) -> tuple[float, float]:
    """Max-norm residuals of L_pm(e^h eta) = e^{2h} L_pm(eta), relative
    to the field scale, for the Weyl signs (+1, -1), both from one field
    of e^h eta, so it is differentiated once.

    Exact pointwise in the continuum; on the grid limited only by
    aliasing of e^h eta, so use a band-limit safety factor >= 4. An h
    whose e^{2h} overflows somewhere raises OutOfRange before e^h is
    used.

    sigma^a d_a is applied once to each of eta (unless a given field
    holds it already) and e^h eta, each only once that field passes the
    nonvanishing floor, and each is released once A is read, so one of
    them is alive at a time. eta's arrays are made on a shallow copy of
    its field, so a given field keeps none of them and loses none of its
    own.
    """
    _one_field(field, "scaling_covariance_residual")
    with np.errstate(over="ignore"):  # an overflow is rejected below
        eh = np.exp(h)
    peak = float(np.max(eh))
    if not peak * peak < np.inf:  # a NaN fails too
        raise OutOfRange(f"scale e^(2h) is not finite: max h = {float(np.max(h)):.6g}")
    _check_nonzero_p0(p0)
    base = _nonvanishing(copy.copy(field))
    base.A
    base.__dict__.pop("slash", None)  # a given field may hold A without it
    scaled = SpinorField(_component_planes(field.grid.shape), field.pauli, field.grid)
    for c in (0, 1):
        np.multiply(field.eta[..., c], eh, out=scaled.eta[..., c])
    _nonvanishing(scaled).A
    del scaled.slash
    residuals = []
    for sign in (1, -1):
        lhs = lagrangian_weyl(scaled, p0, sign)
        rhs = eh * eh * lagrangian_weyl(base, p0, sign)
        residuals.append(_relative_max(lhs - rhs, rhs))
    return tuple(residuals)


def lagrangian_dynamic(field: SpinorField, dxi0: np.ndarray) -> np.ndarray:
    """Dynamic Lagrangian density at a fixed time, given the field xi
    and its time derivative on that slice:

        4/(9 s) ( [i(xibar sigma^a d_a xi - c.c.)]^2
                  - |i(xibar sigma_a d_0 xi - c.c.)|^2 ) sqrt(det g)

    where the covector norm is g^ab w_a w_b. For the stationary ansatz
    this reduces pointwise to `lagrangian_stationary` (via the Fierz
    identity g^ab v_a v_b = s^2).
    """
    metric = _nonvanishing(field).pauli.metric
    space_term = 2.0 * field.A
    t = _sandwich(field.eta, field.pauli.sigma_lower, dxi0)
    w = -2.0 * t.imag  # i(xibar sigma_a d0 xi - c.c.), real covector
    wnorm2 = metric.covector_norm2(w)
    return (4.0 / (9.0 * field.s)) * (space_term**2 - wnorm2) * metric.sqrt_det


def fierz_residual(field: SpinorField) -> float:
    """Max-norm residual of g^ab v_a v_b = s^2, relative to max s^2.
    Needs no derivative of eta."""
    _one_field(field, "fierz_residual")
    s2 = field.s**2
    return _relative_max(field.pauli.metric.covector_norm2(field.v) - s2, s2)
