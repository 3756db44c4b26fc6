"""Coframe kinematics and rotational-elasticity energetics.

A coframe is an array of shape ``(3,) + dims + (3,)``: ``theta[j]`` is
the j-th covector field. A coframe velocity holds the time derivatives
of the first two or of all three covectors, shape ``(2,) + dims + (3,)``
or the frame's: a missing third one is d0 theta^3 = 0, as on the
stationary ansatz. Every coframe the package builds is stored as nine
component planes, the view of one ``(3, 3) + dims`` block
(`geometry._component_planes`), and every kernel here reads each
theta^j_a as a plane view, so it accepts any layout. Density is a
positive scalar field of shape ``dims``.

The energies take form norms in the coframe's induced metric
g = Theta^T Theta (Theta the frame matrix, rows theta^j). It equals the
prescribed metric on admissible coframes, and only it makes P exactly
conformally invariant (e^h theta is orthonormal for e^{2h} g, not g).
No per-point metric is built: det g = tau^2 with tau = theta^1 . theta^2
x theta^3, and a 2-form W has W^T g W = sum_j (theta^j . W)^2.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDenominator, NonPositiveDensity
from .geometry import (Metric3, TorusGrid, _component_planes, _paired_partials, _slabs,
                       _wedge_component, integrate)


def _check_shapes(theta: np.ndarray, rho: np.ndarray | None,
                  dtheta0: np.ndarray | None = None) -> None:
    """Raise ValueError unless a given rho has the frame's grid shape and
    a given velocity holds 2 (d0 theta^3 = 0) or 3 covectors on the
    frame's grid: numpy would broadcast either into an energy of the
    wrong size or value."""
    dims = theta.shape[1:-1]
    if rho is not None and np.shape(rho) != dims:
        raise ValueError(f"density of shape {np.shape(rho)} does not match the frame's "
                         f"grid shape {dims}")
    if dtheta0 is not None and np.shape(dtheta0) not in ((2,) + theta.shape[1:], theta.shape):
        raise ValueError(f"velocity of shape {np.shape(dtheta0)} does not match the frame's "
                         f"shape {theta.shape} with 2 or 3 covectors")


def check_density(rho: np.ndarray) -> None:
    """Raise NonPositiveDensity unless every value of rho is finite and
    above zero."""
    lo, hi = np.min(rho), np.max(rho)
    if not (0.0 < lo and hi < np.inf):  # a NaN, propagated by min and max, fails both
        raise NonPositiveDensity(f"density must be finite and positive, spans [{lo}, {hi}]")


# the entries a <= b of a symmetric 3x3 matrix
_GRAM_PAIRS = [(a, b) for a in range(3) for b in range(a, 3)]


def _gram_entry(theta: np.ndarray, a: int, b: int) -> np.ndarray:
    """Entry (a, b) of the induced metric, delta_jk theta^j_a theta^k_b."""
    return (theta[0, ..., a] * theta[0, ..., b]
            + theta[1, ..., a] * theta[1, ..., b]
            + theta[2, ..., a] * theta[2, ..., b])


def _triple_product(theta: np.ndarray) -> np.ndarray:
    """Pointwise theta^1 . theta^2 x theta^3: its sign is the handedness
    of the coframe, its square the determinant of the induced metric."""
    a, b, c = theta
    return (a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
            + a[..., 1] * (b[..., 2] * c[..., 0] - b[..., 0] * c[..., 2])
            + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0]))


def _induced_det(theta: np.ndarray) -> np.ndarray:
    """det g = tau^2 of the induced metric, formed one x1 slab (`_slabs`)
    at a time. Raises DegenerateDenominator unless it is a finite normal
    float at every point, as Metric3 does for det g: a degenerate or
    out-of-range coframe has NaN energies."""
    det = np.empty(theta.shape[1:-1])
    with np.errstate(all="ignore"):  # overflow, underflow and NaN are rejected below
        for sl in _slabs(det.shape):
            np.square(_triple_product(theta[:, sl]), out=det[sl])
        lo, hi = det.min(), det.max()
    if not (np.finfo(float).tiny <= lo and hi < np.inf):
        raise DegenerateDenominator(f"induced metric determinant spans [{lo:.3e}, {hi:.3e}]: "
                                    "not a finite normal float at every point")
    return det


def orthonormality_residual(theta: np.ndarray, metric: Metric3) -> np.ndarray:
    """Pointwise max entry of |g_ab - delta_jk theta^j_a theta^k_b|.

    Zero iff the coframe satisfies the orthonormality constraint at
    that point.
    """
    # both sides are symmetric, so the six entries a <= b suffice
    worst = 0.0
    for a, b in _GRAM_PAIRS:
        worst = np.maximum(worst, np.abs(_gram_entry(theta, a, b) - metric.g_lower[a, b]))
    return worst


def axial_torsion(theta: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Coefficient f of the axial torsion 3-form
    (1/3) delta_jk theta^j ^ d theta^k = f dx1^dx2^dx3.

    With (a, b, c) cyclic, the terms of theta^j ^ d theta^j that hold a
    derivative along axis a are theta_c d_a theta_b - theta_b d_a theta_c,
    so f is summed straight from the paired partials
    d_a (theta_b + i theta_c) of `geometry._paired_partials`: one complex
    field alive at a time, and no 2-form is stacked. It agrees to
    rounding with (1/3) sum_j theta^j . d theta^j, each d theta^j stacked
    from per-component `geometry.spectral_partial` calls.
    """
    f = np.zeros(grid.shape)
    for covector, b, c, dz in _paired_partials(theta, grid):
        f += covector[..., c] * dz.real
        f -= covector[..., b] * dz.imag
    f /= 3.0
    return f


def _potential_density(theta: np.ndarray, grid: TorusGrid, det_ind: np.ndarray) -> np.ndarray:
    """Pointwise |T_ax|^2 = f^2 / det g_ind, f the axial torsion, formed
    in place in f's array."""
    f = axial_torsion(theta, grid)
    f *= f
    f /= det_ind
    return f


def potential_energy(theta: np.ndarray, rho: np.ndarray, grid: TorusGrid) -> float:
    """P = integral of |T_ax|^2 rho over the torus.

    The norm uses the coframe's induced metric (equal to the prescribed
    metric on admissible coframes), so P is exactly conformally
    invariant. A density whose shape is not the frame's grid shape
    ``theta.shape[1:-1]`` raises ValueError.
    """
    _check_shapes(theta, rho)
    check_density(rho)
    return integrate(_potential_density(theta, grid, _induced_det(theta)) * rho, grid)


def conformal_rescale(theta: np.ndarray, rho: np.ndarray, h: np.ndarray):
    """Rescale theta^j -> e^h theta^j and rho -> e^{2h} rho; the rescaled
    coframe is stored as component planes."""
    eh = np.exp(h)
    scaled = _component_planes(theta.shape[1:-1], (3, 3), float)
    with np.errstate(over="ignore"):  # an infinite density fails check_density
        np.multiply(theta, eh[np.newaxis, ..., np.newaxis], out=scaled)
        return scaled, rho * eh * eh


def kinetic_2form(theta: np.ndarray, dtheta0: np.ndarray) -> np.ndarray:
    """The 2-form (1/3) delta_jk theta^j ^ d0 theta^k, components
    (w_23, w_31, w_12), stored as component planes: each plane sums, in
    place, the wedge components of the covectors the velocity holds. A
    velocity of two covectors (`correspondence.stationary_frame_path`)
    has d0 theta^3 = 0, whose wedge is not formed. A velocity that is
    not 2 or 3 covectors on the frame's grid raises ValueError."""
    _check_shapes(theta, None, dtheta0)
    omega = _component_planes(theta.shape[1:-1], (3,), float)
    for i in range(3):
        plane = omega[..., i]
        plane[...] = _wedge_component(theta[0], dtheta0[0], i)
        for j in range(1, len(dtheta0)):
            plane += _wedge_component(theta[j], dtheta0[j], i)
    omega /= 3.0
    return omega


def _norm2_2form(omega: np.ndarray, theta: np.ndarray, det_ind: np.ndarray) -> np.ndarray:
    """Pointwise (1/2!) w_ab w_cd g^ac g^bd in the induced metric g: the
    metric on 2-forms is g / det g, so this is sum_j (theta^j . W)^2 / det g."""
    return sum(np.einsum("...i,...i->...", theta_j, omega) ** 2 for theta_j in theta) / det_ind


def lagrangian_coframe(theta: np.ndarray, dtheta0: np.ndarray, rho: np.ndarray,
                       metric: Metric3, grid: TorusGrid) -> np.ndarray:
    """Pointwise dynamic Lagrangian density
    (|T_ax|^2 - |theta_dot|^2) rho; its integral is P - K.

    Both norms use the coframe's induced metric, as `potential_energy`
    does; ``metric`` is not read, and any metric gives the same bits
    (the benchmark pins this signature).
    The velocity holds d0 theta^1 and d0 theta^2, and d0 theta^3 too
    unless it is zero (`kinetic_2form`). A density whose shape is not
    the frame's grid shape ``theta.shape[1:-1]``, or a velocity that is
    not 2 or 3 covectors on that grid, raises ValueError.

    The axial torsion needs the whole grid, so |T_ax|^2 is formed there;
    the kinetic norm is then formed one x1 slab (`_slabs`) at a time,
    subtracted from that array and multiplied by rho in place, with the
    bits of the whole-grid expression.
    """
    _check_shapes(theta, rho, dtheta0)
    check_density(rho)
    det_ind = _induced_det(theta)
    lag = _potential_density(theta, grid, det_ind)
    for sl in _slabs(rho.shape):
        frame = theta[:, sl]
        part = lag[sl]
        part -= _norm2_2form(kinetic_2form(frame, dtheta0[:, sl]), frame, det_ind[sl])
        part *= rho[sl]
    return lag
