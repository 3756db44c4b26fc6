"""Coframe kinematics and rotational-elasticity energetics.

A coframe is stored as an array of shape ``(3,) + dims + (3,)``:
``theta[j]`` is the j-th covector field. A coframe velocity (the time
derivatives of the three covectors) has the same shape. Density is a
positive scalar field of shape ``dims``.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveDensity
from .geometry import (
    Metric3,
    TorusGrid,
    _norm2_2form,
    _norm2_3form,
    exterior_derivative,
    integrate,
    wedge_1_1,
    wedge_1_2,
)


def check_density(rho: np.ndarray) -> None:
    if np.min(rho) <= 0.0:
        raise NonPositiveDensity(f"density must be positive, min = {np.min(rho)}")


def _gram(theta: np.ndarray) -> np.ndarray:
    """Pointwise metric induced by the coframe,
    delta_jk theta^j_a theta^k_b.

    For an admissible coframe this equals the prescribed metric. The
    energetics below measure form norms against the induced metric:
    the two agree on admissible coframes, and only the induced one
    makes the potential energy exactly conformally invariant under
    theta -> e^h theta, rho -> e^{2h} rho (the rescaled coframe is
    orthonormal for e^{2h} g, not for g).
    """
    return np.einsum("j...a,j...b->...ab", theta, theta)


def _triple_product(theta: np.ndarray) -> np.ndarray:
    """Pointwise theta^1 . theta^2 x theta^3: its sign is the handedness
    of the coframe, its square the determinant of the induced metric."""
    return np.sum(theta[0] * np.cross(theta[1], theta[2]), axis=-1)


def _induced_det(theta: np.ndarray) -> np.ndarray:
    """Determinant of the induced metric. The energetics need no inverse
    of the induced metric: the 2-form norm is W^T g W / det g."""
    return _triple_product(theta) ** 2


def orthonormality_residual(theta: np.ndarray, metric: Metric3) -> np.ndarray:
    """Pointwise max entry of |g_ab - delta_jk theta^j_a theta^k_b|.

    Zero iff the coframe satisfies the orthonormality constraint at
    that point.
    """
    residual = np.abs(_gram(theta) - metric.g_lower)
    return residual.max(axis=(-2, -1))


def axial_torsion(theta: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Coefficient f of the axial torsion 3-form
    (1/3) delta_jk theta^j ^ d theta^k = f dx1^dx2^dx3."""
    f = np.zeros(grid.shape)
    for j in range(3):
        f += wedge_1_2(theta[j], exterior_derivative(theta[j], grid))
    return f / 3.0


def potential_energy(theta: np.ndarray, rho: np.ndarray, metric: Metric3,
                     grid: TorusGrid) -> float:
    """P = integral of |T_ax|^2 rho over the torus.

    The norm uses the coframe's induced metric (equal to ``metric`` on
    admissible coframes), so P is exactly conformally invariant.
    """
    check_density(rho)
    f = axial_torsion(theta, grid)
    return integrate(_norm2_3form(f, _induced_det(theta)) * rho, grid)


def conformal_rescale(theta: np.ndarray, rho: np.ndarray, h: np.ndarray):
    """Rescale theta^j -> e^h theta^j and rho -> e^{2h} rho."""
    eh = np.exp(h)
    return theta * eh[np.newaxis, ..., np.newaxis], rho * eh * eh


def kinetic_2form(theta: np.ndarray, dtheta0: np.ndarray) -> np.ndarray:
    """The 2-form (1/3) delta_jk theta^j ^ d0 theta^k, components
    (w_23, w_31, w_12)."""
    omega = np.zeros(theta.shape[1:])
    for j in range(3):
        omega += wedge_1_1(theta[j], dtheta0[j])
    return omega / 3.0


def kinetic_energy(theta: np.ndarray, dtheta0: np.ndarray, rho: np.ndarray,
                   metric: Metric3, grid: TorusGrid) -> float:
    """K = integral of |theta_dot|^2 rho over the torus (induced-metric
    norm, as in `potential_energy`)."""
    check_density(rho)
    omega = kinetic_2form(theta, dtheta0)
    norm2 = _norm2_2form(omega, _gram(theta), _induced_det(theta))
    return integrate(norm2 * rho, grid)


def lagrangian_coframe(theta: np.ndarray, dtheta0: np.ndarray, rho: np.ndarray,
                       metric: Metric3, grid: TorusGrid) -> np.ndarray:
    """Pointwise dynamic Lagrangian density
    (|T_ax|^2 - |theta_dot|^2) rho; its integral is P - K."""
    check_density(rho)
    det_ind = _induced_det(theta)
    potential = _norm2_3form(axial_torsion(theta, grid), det_ind)
    kinetic = _norm2_2form(kinetic_2form(theta, dtheta0), _gram(theta), det_ind)
    return (potential - kinetic) * rho
