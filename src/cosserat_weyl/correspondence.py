"""Dictionary between nonvanishing spinor fields and coframe + density
pairs, valid modulo the sign of the spinor.

Conventions (validated by the orthonormality and round-trip tests, and
pinned cross-module by the Lagrangian-equivalence test):

* conjugate spinor: xihat^a = eps^{ab} conj(xi_b) with eps^{12} = +1;
* with s = xibar sigma_0 xi, v_a = xibar sigma_a xi and
  w_a = xihatbar sigma_a xi:
      theta^3 = v / s, theta^1 = Re w / s, theta^2 = Im w / s;
* density of weight 1: rho = s * sqrt(det g);
* under xi -> e^{i phi} xi the combination theta^1 + i theta^2 is
  multiplied by e^{2 i phi}, so the stationary ansatz
  xi = e^{-i p0 x0} eta carries the phase e^{-2 i p0 x0} on
  theta^1 + i theta^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cosserat import orthonormality_residual
from .errors import NonPositiveDensity, NotOrthonormal
from .geometry import Metric3, PauliSet, TorusGrid
from .spinor import SpinorField, _check_nonvanishing, _field, _sandwich

# d0 (theta^1 + i theta^2) = PHASE_RATE * i * p0 * (theta^1 + i theta^2)
PHASE_RATE = -2.0

# largest orthonormality residual `frame_to_spinor` accepts
_ORTHO_TOL = 1e-6


@dataclass(frozen=True)
class FramePacket:
    """Coframe + density image of a spinor field. The preimage is
    determined only up to a global sign."""

    theta: np.ndarray
    rho: np.ndarray


def _conjugate_spinor(xi: np.ndarray) -> np.ndarray:
    # xihat^1 = conj(xi_2), xihat^2 = -conj(xi_1)
    return np.stack([xi[..., 1].conj(), -xi[..., 0].conj()], axis=-1)


def spinor_to_frame(xi: np.ndarray | SpinorField, pauli: PauliSet,
                    metric: Metric3, grid: TorusGrid) -> FramePacket:
    """Map a nonvanishing spinor field to its coframe + density."""
    field = _field(xi, pauli, grid)
    s = field.s
    _check_nonvanishing(s)
    w = _sandwich(_conjugate_spinor(field.eta), pauli.sigma_lower, field.eta)
    sinv = 1.0 / s[..., np.newaxis]
    theta = np.stack([w.real * sinv, w.imag * sinv, field.v * sinv])
    rho = s * metric.sqrt_det
    return FramePacket(theta=theta, rho=rho)


def frame_to_spinor(theta: np.ndarray, rho: np.ndarray, pauli: PauliSet,
                    metric: Metric3, grid: TorusGrid) -> np.ndarray:
    """Invert `spinor_to_frame` up to a global sign.

    The per-point spinor is recovered from the rank-1 Hermitian matrix
    xi xi^dagger (built from s and v) with its phase fixed by
    theta^1 + i theta^2; the residual per-point sign ambiguity is
    resolved by a continuity sweep through the (flattened) grid, which
    is globally consistent on the torus for smooth nonvanishing fields.
    """
    worst = float(orthonormality_residual(theta, metric).max())
    if worst > _ORTHO_TOL:
        raise NotOrthonormal(f"orthonormality residual {worst:.3e} > {_ORTHO_TOL:.1e}")
    if float(np.min(rho)) <= 0.0:
        raise NonPositiveDensity(f"min rho = {np.min(rho):.3e}")

    s = rho / metric.sqrt_det
    v = s[..., np.newaxis] * theta[2]
    w_target = s[..., np.newaxis] * (theta[0] + 1j * theta[1])

    # flat-frame components of v: v_a = (F^-T)_{aj} b_j with F F^T = g_upper
    factor = np.linalg.cholesky(metric.g_upper)
    b = np.einsum("ja,...a->...j", factor.T, v)

    # m = xi xi^dagger = (s Id + b_j pauli_std^j) / 2; columns are
    # xi * conj(xi_j), so the dominant column recovers xi up to phase
    m00 = 0.5 * (s + b[..., 2])
    m11 = 0.5 * (s - b[..., 2])
    m01 = 0.5 * (b[..., 0] - 1j * b[..., 1])  # = xi_1 conj(xi_2)
    use0 = m00 >= m11
    norm0 = np.sqrt(np.maximum(m00, 0.0))
    norm1 = np.sqrt(np.maximum(m11, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        xi0 = np.where(use0[..., np.newaxis],
                       np.stack([m00 / norm0, m01.conj() / norm0], axis=-1),
                       np.stack([m01 / norm1, m11 / norm1], axis=-1))

    # fix the U(1) phase from w: w(e^{i phi} xi0) = e^{2 i phi} w(xi0)
    xihat0 = _conjugate_spinor(xi0)
    w0 = _sandwich(xihat0, pauli.sigma_lower, xi0)
    pick = np.argmax(np.abs(w0), axis=-1)
    ratio = (np.take_along_axis(w_target, pick[..., np.newaxis], axis=-1)
             / np.take_along_axis(w0, pick[..., np.newaxis], axis=-1))[..., 0]
    phi = 0.5 * np.angle(ratio)
    xi = np.exp(1j * phi)[..., np.newaxis] * xi0

    # continuity sweep: align consecutive points in C-order
    flat = xi.reshape(-1, 2)
    overlap = np.einsum("na,na->n", flat[:-1].conj(), flat[1:]).real
    flips = np.where(overlap < 0.0, -1.0, 1.0)
    signs = np.concatenate([[1.0], np.cumprod(flips)])
    xi = (flat * signs[:, np.newaxis]).reshape(xi.shape)

    # canonical overall sign: first point's dominant component has Re >= 0
    anchor = xi.reshape(-1, 2)[0]
    lead = anchor[int(np.argmax(np.abs(anchor)))]
    if lead.real < 0.0:
        xi = -xi
    return xi


def stationary_frame_path(eta: np.ndarray | SpinorField, p0: float, pauli: PauliSet,
                          metric: Metric3, grid: TorusGrid):
    """Coframe path of the stationary ansatz xi = e^{-i p0 x0} eta,
    evaluated at x0 = 0.

    theta^3 and rho are time-independent; theta^1 + i theta^2 carries
    the phase e^{-2 i p0 x0} (PHASE_RATE convention), so its time
    derivative is taken analytically, with no time discretisation.

    Returns ``(theta, dtheta0, rho)``.
    """
    packet = spinor_to_frame(eta, pauli, metric, grid)
    theta = packet.theta
    # d0 (theta^1 + i theta^2) = -2 i p0 (theta^1 + i theta^2)
    rate = PHASE_RATE * p0
    dtheta0 = np.stack([-rate * theta[1], rate * theta[0], np.zeros_like(theta[2])])
    return theta, dtheta0, packet.rho
