"""Seeded generators for band-limited test fields and random metrics.

Band-limited inputs keep every identity check exact on the grid, so
residuals measure floating-point noise rather than discretisation
error. A field sampler first draws a small spectral description, the
mode vector and coefficient of each Fourier term in a fixed RNG order,
and then evaluates all of its terms with one `geometry._plane_waves`
call, so a drawn spinor is stored as two component planes.
"""

from __future__ import annotations

import numpy as np

from .errors import VanishingSpinor
from .geometry import Metric3, TorusGrid, _component_planes, _plane_waves
from .spinor import _scalar_density

# Fourier terms per real scalar field and per spinor component
_SCALAR_TERMS = 6
_SPINOR_TERMS = 4
# Eigenvalue range of `random_spd_metric`
_EIG_LOW, _EIG_HIGH = 0.5, 2.0


def random_spd_metric(rng: np.random.Generator) -> Metric3:
    """Random well-conditioned SPD metric: Q diag(e) Q^T with seeded
    orthogonal Q and eigenvalues in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    eigs = rng.uniform(_EIG_LOW, _EIG_HIGH, size=3)
    return Metric3.from_matrix(q @ np.diag(eigs) @ q.T)


def random_bandlimited_scalar(grid: TorusGrid, rng: np.random.Generator,
                              max_mode: int = 2, amplitude: float = 1.0) -> np.ndarray:
    """Real trigonometric polynomial with per-axis mode numbers
    bounded by ``max_mode``: the sum of coeff * cos(m . x' + phase),
    taken as the real part of the sum of coeff e^{i phase} e^{i m . x'}."""
    modes = np.empty((1, _SCALAR_TERMS, 3), dtype=int)
    coeffs = np.empty((1, _SCALAR_TERMS), dtype=complex)
    for t in range(_SCALAR_TERMS):
        modes[0, t] = rng.integers(-max_mode, max_mode + 1, size=3)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coeffs[0, t] = rng.normal() * np.exp(1j * phase)
    field = _plane_waves(grid, modes, coeffs)[..., 0].real
    peak = max(float(np.abs(field).max()), np.finfo(float).tiny)
    return field * (amplitude / peak)


def random_bandlimited_spinor(grid: TorusGrid, rng: np.random.Generator,
                              max_mode: int = 2, amplitude: float = 1.0) -> np.ndarray:
    """Complex 2-component trigonometric polynomial with per-axis mode
    numbers bounded by ``max_mode``, ``_SPINOR_TERMS`` terms per component.
    Each coefficient's (Re, Im) is one draw of two normals, the values two
    scalar draws would give."""
    modes = np.empty((2, _SPINOR_TERMS, 3), dtype=int)
    coeffs = np.empty((2, _SPINOR_TERMS), dtype=complex)
    for c in range(2):
        for t in range(_SPINOR_TERMS):
            modes[c, t] = rng.integers(-max_mode, max_mode + 1, size=3)
            coeffs[c, t] = rng.normal(size=2).view(complex)[0]  # (Re, Im)
    field = _plane_waves(grid, modes, coeffs)
    peak = max(float(np.abs(field).max()), np.finfo(float).tiny)
    field *= amplitude / peak
    return field


def random_nonvanishing_spinor(grid: TorusGrid, rng: np.random.Generator,
                               amplitude: float = 0.25,
                               max_mode: int = 2) -> np.ndarray:
    """Constant unit spinor plus a band-limited perturbation small
    enough to keep s = etabar eta bounded away from zero."""
    eta = _perturbed_unit_spinor(grid, rng, amplitude, max_mode)
    _check_safely_nonvanishing(_scalar_density(eta))
    return eta


def _perturbed_unit_spinor(grid: TorusGrid, rng: np.random.Generator,
                           amplitude: float = 0.25, max_mode: int = 2) -> np.ndarray:
    """The draw of `random_nonvanishing_spinor`, before its guard."""
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    u /= np.linalg.norm(u)
    eta = random_bandlimited_spinor(grid, rng, max_mode=max_mode, amplitude=amplitude)
    for c in (0, 1):  # one contiguous plane at a time
        eta[..., c] += u[c]
    return eta


def _check_safely_nonvanishing(s: np.ndarray) -> None:
    """The guard of `random_nonvanishing_spinor` on the draw's s."""
    if not float(np.min(s)) > 0.05:  # a NaN fails too
        raise VanishingSpinor("generated spinor is not safely nonvanishing")


def random_wavevector(rng: np.random.Generator, max_mode: int) -> np.ndarray:
    """Nonzero integer mode vector with entries in [-max_mode, max_mode]."""
    while True:
        k = rng.integers(-max_mode, max_mode + 1, size=3)
        if np.any(k != 0):
            return k


def rotating_coframe(grid: TorusGrid, angle: np.ndarray) -> np.ndarray:
    """Coframe rotating about the third axis by the scalar field
    ``angle`` (any array that broadcasts to the grid shape):

        theta^1 = cos(angle) dx1 + sin(angle) dx2
        theta^2 = -sin(angle) dx1 + cos(angle) dx2
        theta^3 = dx3

    Orthonormal for the identity metric. Stored as component planes
    (`geometry._component_planes`), each written once.
    """
    c, s = np.cos(angle), np.sin(angle)
    theta = _component_planes(grid.shape, (3, 3), float)
    for j, row in enumerate(((c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0))):
        for a, value in enumerate(row):
            theta[j, ..., a] = value
    return theta
