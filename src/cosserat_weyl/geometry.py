"""Geometric substrate: constant metric, periodic grid, metric-adapted
Pauli matrices, spectral differentiation, form norms and integration.

Conventions used throughout the package:

* fields are numpy arrays whose first three axes are the grid axes
  (x1, x2, x3); component axes trail;
* a covector field has shape ``dims + (3,)``;
* a 2-form is stored by its three independent components in the order
  (w_23, w_31, w_12), shape ``dims + (3,)``;
* a 3-form is stored by the single coefficient f of f dx1^dx2^dx3;
* a spinor field has shape ``dims + (2,)``, complex128;
* the 2-form norm uses the 1/2! convention,
  ``|w|^2 = (1/2) w_ab w_cd g^ac g^bd``;
* dx1^dx2^dx3 is the positive orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidAxis, MetricNotSPD

PAULI_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULI_STANDARD = np.stack([PAULI_1, PAULI_2, PAULI_3])


@dataclass(frozen=True)
class Metric3:
    """Constant positive-definite 3x3 metric with its inverse and
    determinant precomputed."""

    g_lower: np.ndarray
    g_upper: np.ndarray
    det_g: float

    @classmethod
    def from_matrix(cls, g) -> "Metric3":
        g = np.array(g, dtype=float)
        if g.shape != (3, 3):
            raise MetricNotSPD(f"expected a 3x3 matrix, got shape {g.shape}")
        if not np.allclose(g, g.T, rtol=0.0, atol=1e-13):
            raise MetricNotSPD("metric matrix is not symmetric")
        g = 0.5 * (g + g.T)
        eigvals = np.linalg.eigvalsh(g)
        if eigvals[0] <= 0.0:
            raise MetricNotSPD(f"metric is not positive definite, eigenvalues {eigvals}")
        return cls(g_lower=g, g_upper=np.linalg.inv(g), det_g=float(np.linalg.det(g)))

    @classmethod
    def identity(cls) -> "Metric3":
        return cls.from_matrix(np.eye(3))

    @classmethod
    def diagonal(cls, a: float, b: float, c: float) -> "Metric3":
        return cls.from_matrix(np.diag([a, b, c]))

    @property
    def sqrt_det(self) -> float:
        return float(np.sqrt(self.det_g))


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on a rectangular 3-torus.

    ``dims`` are the point counts per axis (even, >= 4, so the Nyquist
    mode is unambiguous) and ``box`` the coordinate periods.
    """

    dims: tuple
    box: tuple

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        box = tuple(float(length) for length in self.box)
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


@dataclass(frozen=True)
class PauliSet:
    """Metric-adapted Pauli matrices.

    sigma_upper[a] are Hermitian 2x2 matrices satisfying
    sigma^a sigma^b + sigma^b sigma^a = 2 g^ab Id; sigma_lower is the
    index-lowered triple. sigma^0 = sigma_0 is the identity and is not
    stored.
    """

    sigma_upper: np.ndarray
    sigma_lower: np.ndarray


def build_pauli(metric: Metric3) -> PauliSet:
    """Adapt the standard Pauli triple to ``metric``.

    Uses a factor F with F F^T = g_upper (Cholesky); then
    sigma^a = F[a, j] sigma_std^j has the required anticommutator.
    """
    factor = np.linalg.cholesky(metric.g_upper)
    sigma_upper = np.einsum("aj,jkl->akl", factor, _PAULI_STANDARD)
    sigma_lower = np.einsum("ab,bkl->akl", metric.g_lower, sigma_upper)
    return PauliSet(sigma_upper=sigma_upper, sigma_lower=sigma_lower)


def spectral_partial(values: np.ndarray, axis: int, grid: TorusGrid) -> np.ndarray:
    """Spectral (FFT) partial derivative along grid axis 1, 2 or 3.

    Exact for trigonometric polynomials band-limited below Nyquist.
    Trailing component axes pass through unchanged.
    """
    if axis not in (1, 2, 3):
        raise InvalidAxis(f"axis must be 1, 2 or 3, got {axis}")
    ax = axis - 1
    k = grid.wavenumber(axis)
    shape = [1] * values.ndim
    shape[ax] = -1
    fhat = np.fft.fft(values, axis=ax)
    out = np.fft.ifft(1j * k.reshape(shape) * fhat, axis=ax)
    if np.isrealobj(values):
        return np.ascontiguousarray(out.real)
    return out


def exterior_derivative(theta: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Exterior derivative of a covector field, (d theta)_ab =
    d_a theta_b - d_b theta_a, returned as (w_23, w_31, w_12)."""
    d = lambda comp, i: spectral_partial(theta[..., comp], i, grid)
    w23 = d(2, 2) - d(1, 3)
    w31 = d(0, 3) - d(2, 1)
    w12 = d(1, 1) - d(0, 2)
    return np.stack([w23, w31, w12], axis=-1)


def wedge_1_1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge of two covector fields as a 2-form (component order
    (w_23, w_31, w_12) makes this the pointwise cross product)."""
    return np.cross(a, b)


def wedge_1_2(a: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Wedge of a covector with a 2-form: coefficient of dx1^dx2^dx3,
    a_1 w_23 + a_2 w_31 + a_3 w_12."""
    return np.einsum("...i,...i->...", a, omega)


def _norm2_2form(omega: np.ndarray, g_lower: np.ndarray, det_g) -> np.ndarray:
    """Pointwise squared norm (1/2!) w_ab w_cd g^ac g^bd as
    W^T g W / det g, with W = (w_23, w_31, w_12) and g either one 3x3
    matrix or one per point (shape (..., 3, 3), det_g of shape (...)).

    In three dimensions the pairs (ab) = (23), (31), (12) index W, and
    the induced inverse metric on 2-forms is the cofactor matrix of
    g^-1, which is g / det g.
    """
    gw = np.matmul(g_lower, omega[..., np.newaxis])[..., 0]
    return np.sum(gw * omega, axis=-1) / det_g


def _norm2_3form(f: np.ndarray, det_g) -> np.ndarray:
    """Pointwise squared norm f^2 / det g of f dx1^dx2^dx3, with det_g
    one number or one per point."""
    return f * f / det_g


def integrate(field: np.ndarray, grid: TorusGrid) -> float:
    """Cell-volume-weighted sum; exact for band-limited integrands."""
    return float(grid.cell_volume * np.sum(field))
