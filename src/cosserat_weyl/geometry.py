"""Geometric substrate: constant metric, periodic grid, metric-adapted
Pauli matrices, spectral differentiation, wedges and integration.

Conventions used throughout the package:

* fields are numpy arrays whose first three axes are the grid axes
  (x1, x2, x3); component axes trail;
* a covector field has shape ``dims + (3,)``;
* a 2-form is stored by its three independent components in the order
  (w_23, w_31, w_12), shape ``dims + (3,)``;
* a 3-form is stored by the single coefficient f of f dx1^dx2^dx3;
* a spinor field has shape ``dims + (2,)``, complex128, and a coframe
  ``(3,) + dims + (3,)``, float64. Every spinor and every coframe the
  package builds is stored as component planes (`_component_planes`);
  every function accepts any layout;
* the 2-form norm uses the 1/2! convention,
  ``|w|^2 = (1/2) w_ab w_cd g^ac g^bd`` (the coframe energetics take it
  in the coframe's induced metric, in frame components: see cosserat);
* dx1^dx2^dx3 is the positive orientation.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import InvalidAxis, MetricNotSPD, NotHermitian

PAULI_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULI_STANDARD = np.stack([PAULI_1, PAULI_2, PAULI_3])

# largest max |sigma_n - sigma_n^dagger| a Pauli set's sigma_lower may have
_HERMITIAN_TOL = 1e-13

# Points per chunk of every chunked pass of the package, each chunked
# by `_slabs`: the dictionary maps, the sign sweep's overlaps, the
# sigma^a d_a symbol, the EL gradient's sums, A, the FD probe blocks
# and the coframe energies. Their temporaries stay O(_SLAB_POINTS) per
# field whatever the grid.
# 2**13 is the largest power of two at which one sign sweep of a
# (64,32,32) spinor stays under 0.4 of its bytes, and a 16^3 pass is
# still one slab.
_SLAB_POINTS = 2**13

# the other two components (b, c) of a covector for axis a = 1, 2, 3,
# with (a, b, c) a cyclic permutation of (1, 2, 3), 0-based
_CYCLIC_PAIRS = ((1, 2), (2, 0), (0, 1))


def _slabs(dims: tuple) -> list[slice]:
    """Slices of whole x1 planes, about `_SLAB_POINTS` points each (at
    least one plane), that cover a grid of shape ``dims`` of any rank:
    the package's one chunker. No slice reaches past the grid, so the
    first one's stop is the plane count of the largest slab. A stack of
    fields takes the same slice of every field, ``(..., sl, :, :)``."""
    step = max(1, _SLAB_POINTS // math.prod(dims[1:]))
    return [slice(start, min(start + step, dims[0])) for start in range(0, dims[0], step)]


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hashing
class Metric3:
    """Constant positive-definite 3x3 metric g_ab and its Cholesky factor L, g = L L^T:
    the one source of sqrt(det g) = prod_j L_jj and of g^ab, so identities against g_ab and
    g^ab agree to rounding at any condition (Higham, Accuracy and Stability, ch. 10)."""

    g_lower: np.ndarray
    factor: np.ndarray

    @classmethod
    def from_matrix(cls, g) -> "Metric3":
        g = np.array(g, dtype=float)
        if g.shape != (3, 3):
            raise MetricNotSPD(f"expected a 3x3 matrix, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise MetricNotSPD(f"metric matrix has non-finite entries: {g.tolist()}")
        # relative to the largest entry, so c g gets the answer of g for any c > 0
        if not np.abs(g - g.T).max() <= 1e-13 * np.abs(g).max():
            raise MetricNotSPD("metric matrix is not symmetric")
        g = 0.5 * g + 0.5 * g.T  # halved first: g + g^T overflows for entries above 8.9e307
        try:  # Cholesky, unlike eigvalsh, keeps a tiny pivot such as 1e-309 beside 1e300
            metric = cls(g_lower=g, factor=np.linalg.cholesky(g))
        except np.linalg.LinAlgError:
            raise MetricNotSPD("metric is not positive definite, eigenvalues "
                               f"{np.linalg.eigvalsh(g)}") from None
        with np.errstate(all="ignore"):  # numpy squares: inf, not OverflowError, rejected below
            det_g, g_upper_diag = np.square(metric.sqrt_det), (metric._inverse_factor**2).sum(0)
        if not (np.finfo(float).tiny <= det_g < np.inf and np.isfinite(g_upper_diag).all()):
            raise MetricNotSPD(f"metric determinant {det_g:.3e} or inverse is not a finite "
                               "normal float")
        return metric

    @classmethod
    def identity(cls) -> "Metric3":
        return cls.from_matrix(np.eye(3))

    @classmethod
    def diagonal(cls, a: float, b: float, c: float) -> "Metric3":
        return cls.from_matrix(np.diag([a, b, c]))

    @cached_property
    def sqrt_det(self) -> float:
        return math.prod(np.diagonal(self.factor).tolist())

    @cached_property
    def _inverse_factor(self) -> np.ndarray:
        """L^-1 by forward substitution: row a is (e_a - sum_{b < a} L_ab row b) / L_aa."""
        inverse = []
        for a, row in enumerate(self.factor.tolist()):
            inverse.append([(float(a == c) - sum(row[b] * inverse[b][c] for b in range(a)))
                            / row[a] for c in range(3)])
        return np.array(inverse)

    def covector_norm2(self, x) -> np.ndarray:
        """g^ab x_a x_b = |L^-1 x|^2 of covectors x (..., 3), one plane of L^-1 x at a time."""
        norm = 0.0
        for a, row in enumerate(self._inverse_factor):
            y = row[0] * x[..., 0]
            for b in range(1, a + 1):
                y += row[b] * x[..., b]
            y *= y
            norm += y
        return norm


def _real_number(value) -> float:
    """value as a float if it is a real number and not a bool; float()
    alone would also parse a string, reading a box "579" as (5, 7, 9)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a real number")
    return float(value)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on a rectangular 3-torus.

    ``dims`` are the point counts per axis (integers, even, >= 4, so the
    Nyquist mode is unambiguous) and ``box`` the coordinate periods.
    """

    dims: tuple
    box: tuple

    def __post_init__(self):
        try:  # operator.index takes ints and numpy integers, not a 4.9 that int() reads as 4
            dims = tuple(map(operator.index, self.dims))
            box = tuple(map(_real_number, self.box))
        except TypeError:
            raise ValueError(f"dims must be integers and box lengths numbers, got dims "
                             f"{self.dims!r} and box {self.box!r}") from None
        if len(dims) != 3 or len(box) != 3:
            raise ValueError("dims and box must have three entries")
        for n in dims:
            if n < 4 or n % 2 != 0:
                raise ValueError(f"grid dims must be even and >= 4, got {dims}")
        for length in box:
            if not 0.0 < length < np.inf:
                raise ValueError(f"box lengths must be finite and positive, got {box}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "box", box)

    @property
    def shape(self) -> tuple:
        return self.dims

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for length, n in zip(self.box, self.dims):
            vol *= length / n
        return vol

    @property
    def num_points(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def axis_coords(self, axis: int) -> np.ndarray:
        """1-d coordinate array along ``axis`` (1-based)."""
        if axis not in (1, 2, 3):
            raise InvalidAxis(f"axis must be 1, 2 or 3, got {axis}")
        n = self.dims[axis - 1]
        return np.arange(n) * (self.box[axis - 1] / n)

    def coords(self):
        """Broadcast coordinate arrays (x1, x2, x3), each of shape dims."""
        axes = [self.axis_coords(i) for i in (1, 2, 3)]
        return np.meshgrid(*axes, indexing="ij")

    def wavenumber(self, axis: int) -> np.ndarray:
        """Physical wavenumbers for FFT output along ``axis``.

        The Nyquist mode is zeroed so that derivatives of real fields
        stay real. The array is computed once per grid and shared, so
        it is read-only.
        """
        if axis not in (1, 2, 3):
            raise InvalidAxis(f"axis must be 1, 2 or 3, got {axis}")
        return self._wavenumbers[axis - 1]

    @cached_property
    def _wavenumbers(self) -> tuple:
        out = []
        for n, length in zip(self.dims, self.box):
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / length
            k[n // 2] = 0.0
            k.flags.writeable = False
            out.append(k)
        return tuple(out)


def _highest_mode(grid: TorusGrid) -> tuple:
    """Highest resolved |mode| per axis, N/2 - 1: a mode at or above the
    Nyquist mode N/2 aliases onto a lower one."""
    return tuple(n // 2 - 1 for n in grid.dims)


def _axis_exponentials(grid: TorusGrid, modes) -> tuple:
    """The 1-D exponentials exp(2 pi i m_a j / N_a), j = 0 .. N_a - 1, of
    integer modes of shape (..., 3): three arrays of shape (..., N_a).
    Every trigonometric field of the package is built from these."""
    modes = np.asarray(modes)
    return tuple(np.exp(1j * (modes[..., a, np.newaxis] * (2.0 * np.pi / n)) * np.arange(n))
                 for a, n in enumerate(grid.dims))


def _plane_wave(grid: TorusGrid, modes, coeff: complex) -> np.ndarray:
    """coeff * exp(i m . x') on the grid for integer modes m, x' the
    coordinates rescaled to period 2 pi per axis. The broadcast product
    ((coeff e1) e2) e3 of the 1-D exponentials: the full grid costs one
    complex product, not a complex exp, and its rounding stays separable
    (so the FFT of a plane wave stays near its mode). Plane-wave
    solutions are built here and not by `_plane_waves`, whose BLAS
    product may round the last bit differently.
    """
    e1, e2, e3 = _axis_exponentials(grid, modes)
    return (coeff * e1)[:, None, None] * e2[:, None] * e3


def _component_planes(dims: tuple, lead: tuple = (2,), dtype=complex) -> np.ndarray:
    """An uninitialised field stored as component planes: the view of one
    ``lead + dims`` block with the block's last leading axis moved to the
    end. With lead (n,) it is a field of shape dims + (n,) (a spinor, v),
    with lead (3, 3) a coframe of shape (3,) + dims + (3,); either way
    each plane ``field[..., c]`` or ``theta[j, ..., a]`` is C-contiguous,
    so a pointwise pass over one component runs at unit stride."""
    last = len(lead) - 1
    order = [*range(last), *range(last + 1, last + 1 + len(dims)), last]
    return np.empty(tuple(lead) + tuple(dims), dtype=dtype).transpose(order)


def _plane_waves(grid: TorusGrid, modes, coeffs) -> np.ndarray:
    """Sums of plane waves, sum_t coeffs[c, t] exp(i modes[c, t] . x') for
    each component c: modes of shape (C, T, 3), coeffs of shape (C, T),
    a complex result of shape dims + (C,) in component planes
    (`_component_planes`).

    Each term keeps `_plane_wave`'s association ((c e1) e2) e3, and each
    component's sum over its terms is one matrix product,
    (n1 n2 x T) @ (T x n3): the left factor holds (c e1) e2 per term,
    the right one e3, and the product is written straight into the
    component's plane.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n_comp, n_terms = coeffs.shape
    n1, n2, n3 = grid.dims
    e1, e2, e3 = _axis_exponentials(grid, np.reshape(modes, (n_comp, n_terms, 3)))
    out = _component_planes(grid.dims, (n_comp,))
    for c in range(n_comp):
        left = (coeffs[c, :, np.newaxis] * e1[c]).T[:, None, :] * e2[c].T
        np.matmul(left.reshape(n1 * n2, n_terms), e3[c], out=out[..., c].reshape(n1 * n2, n3))
    return out


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hashing
class PauliSet:
    """Metric-adapted Pauli matrices and the metric they are adapted to.

    sigma_upper[a] are Hermitian 2x2 matrices satisfying
    sigma^a sigma^b + sigma^b sigma^a = 2 g^ab Id; sigma_lower is the
    index-lowered triple. sigma^0 = sigma_0 is the identity and is not
    stored. ``metric`` is g, which every function given the set, or a
    field on it, reads sqrt(det g), g^ab and g_ab from; it is trusted as
    the two triples are (`build_pauli` makes all three from one L).

    sigma_lower must be Hermitian to 1e-13 in every entry (else
    NotHermitian), so |Im etabar sigma_a eta| <= s max |sigma_a -
    sigma_a^dagger| <= 1e-13 s: v is real on every field of the set.
    """

    sigma_upper: np.ndarray
    sigma_lower: np.ndarray
    metric: Metric3

    def __post_init__(self):
        sigma = np.asarray(self.sigma_lower)
        skew = float(np.abs(sigma - sigma.conj().swapaxes(-1, -2)).max())
        if not skew <= _HERMITIAN_TOL:
            raise NotHermitian(f"sigma_lower is not Hermitian: max |sigma - sigma^dagger| "
                               f"= {skew:.3e} > {_HERMITIAN_TOL:.0e}")


def build_pauli(metric: Metric3) -> PauliSet:
    """Adapt the standard Pauli triple to ``metric`` through its factor L: sigma_a =
    L[a, j] sigma_std^j and sigma^a = (L^-T)[a, j] sigma_std^j, so sigma^a sigma^b +
    sigma^b sigma^a = 2 (L L^T)^-1 = 2 g^ab and sigma_a = g_ab sigma^b."""
    sigma_upper = np.einsum("ja,jkl->akl", metric._inverse_factor, _PAULI_STANDARD)
    sigma_lower = np.einsum("aj,jkl->akl", metric.factor, _PAULI_STANDARD)
    return PauliSet(sigma_upper=sigma_upper, sigma_lower=sigma_lower, metric=metric)


def _same_value(a, b) -> bool:
    """Whether two Pauli sets, or two metrics, which compare by identity,
    are equal by value: every array field equal, a set's metric too."""
    if a is b:
        return True
    if isinstance(a, (PauliSet, Metric3)):
        return type(a) is type(b) and all(_same_value(getattr(a, f.name), getattr(b, f.name))
                                          for f in fields(a))
    return np.array_equal(a, b)


def spectral_partial(values: np.ndarray, axis: int, grid: TorusGrid) -> np.ndarray:
    """Spectral (FFT) partial derivative along grid axis 1, 2 or 3.

    Exact for trigonometric polynomials band-limited below Nyquist.
    Trailing component axes pass through unchanged. A real field takes
    a real-to-complex transform along the axis, `rfft`, the wavenumbers
    k[:N/2 + 1] with the Nyquist one zeroed, and `irfft` back, so its
    derivative is real by construction and no complex grid is built; a
    complex field takes `fft` and `ifft`.
    """
    k = grid.wavenumber(axis)  # InvalidAxis unless axis is 1, 2 or 3
    ax = axis - 1
    n = len(k)
    shape = [1] * values.ndim
    shape[ax] = -1
    if np.isrealobj(values):
        fhat = np.fft.rfft(values, axis=ax)
        fhat *= 1j * k[: n // 2 + 1].reshape(shape)
        return np.ascontiguousarray(np.fft.irfft(fhat, n=n, axis=ax))
    fhat = np.fft.fft(values, axis=ax)
    return np.fft.ifft(1j * k.reshape(shape) * fhat, axis=ax)


def _paired_partials(covectors: np.ndarray, grid: TorusGrid):
    """For each real covector field ``covector`` of ``covectors`` (shape
    (m,) + dims + (3,)) and each axis a = 1, 2, 3, yield
    ``(covector, b, c, dz)`` with dz = d_a (theta_b + i theta_c), (b, c)
    the other two components in cyclic order (`_CYCLIC_PAIRS`).

    The spectral derivative maps real fields to real ones, so
    Re dz = d_a theta_b and Im dz = d_a theta_c: one `fft`/`ifft` pair
    along the axis, in place, differentiates both components (the
    two-real-fields-as-one-complex-field trick; Press et al., Numerical
    Recipes, 3rd ed., sec. 12.3). One complex buffer serves every field
    and axis, so each dz is overwritten by the next: read it before
    advancing.
    """
    z = np.empty(covectors.shape[1:-1], dtype=complex)
    for covector in covectors:
        for ax, (b, c) in enumerate(_CYCLIC_PAIRS):
            shape = [1] * z.ndim
            shape[ax] = -1
            z.real = covector[..., b]
            z.imag = covector[..., c]
            np.fft.fft(z, axis=ax, out=z)
            z *= 1j * grid.wavenumber(ax + 1).reshape(shape)
            np.fft.ifft(z, axis=ax, out=z)
            yield covector, b, c, z


def _wedge_component(a: np.ndarray, b: np.ndarray, i: int) -> np.ndarray:
    """Component i of the wedge of covector fields a and b in the order
    (w_23, w_31, w_12): a_j b_k - a_k b_j with (i, j, k) cyclic."""
    j, k = _CYCLIC_PAIRS[i]
    return a[..., j] * b[..., k] - a[..., k] * b[..., j]


def integrate(field: np.ndarray, grid: TorusGrid) -> float:
    """Cell-volume-weighted sum; exact for band-limited integrands."""
    return float(grid.cell_volume * np.sum(field))
