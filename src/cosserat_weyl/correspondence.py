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

from .cosserat import _triple_product, check_density, orthonormality_residual
from .errors import NoSpinLift, NotOrthonormal
from .geometry import Metric3, PauliSet, TorusGrid
from .spinor import SpinorField, _covector, _nonvanishing

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


def _quadratic_map(pauli: PauliSet) -> np.ndarray:
    """The 3x3 matrix Q with w_a = Q[a] . (xi_1^2, xi_1 xi_2, xi_2^2).

    xihat^dagger = xi^T J with J = [[0, -1], [1, 0]], so
    w_a = xi^T J sigma_a xi is linear in the entries of xi xi^T.
    """
    jsigma = np.array([[0.0, -1.0], [1.0, 0.0]]) @ pauli.sigma_lower
    return np.stack([jsigma[:, 0, 0], jsigma[:, 0, 1] + jsigma[:, 1, 0],
                     jsigma[:, 1, 1]], axis=-1)


def spinor_to_frame(xi: np.ndarray | SpinorField, pauli: PauliSet,
                    metric: Metric3, grid: TorusGrid) -> FramePacket:
    """Map a nonvanishing spinor field to its coframe + density.

    theta^3 = v / s takes v from `spinor._covector` and does not cache
    it on a given field."""
    field = _nonvanishing(xi, pauli, grid)
    x1, x2 = field.eta[..., 0], field.eta[..., 1]
    squares = np.stack([x1 * x1, x1 * x2, x2 * x2], axis=-1)
    w = (squares.reshape(-1, 3) @ _quadratic_map(pauli).T).reshape(squares.shape)
    v = _covector(field.eta, pauli)
    sinv = 1.0 / field.s[..., np.newaxis]
    theta = np.stack([w.real * sinv, w.imag * sinv, v * sinv])
    return FramePacket(theta=theta, rho=field.s * metric.sqrt_det)


def frame_to_spinor(theta: np.ndarray, rho: np.ndarray, pauli: PauliSet,
                    metric: Metric3) -> np.ndarray:
    """Invert `spinor_to_frame` on the given Pauli set, up to a global sign.

    The inverse of `_quadratic_map`, applied as one matmul, gives
    (xi_1^2, xi_1 xi_2, xi_2^2) from w = s (theta^1 + i theta^2).
    theta^3 enters through the orthonormality check and the handedness
    check: every frame `spinor_to_frame` makes on a Pauli set has the
    handedness of its frame at xi = (1, 0), and a frame of the other one
    has no spin lift.
    A continuity sweep through the flattened grid fixes the per-point
    sign, consistently on the torus for smooth fields.
    """
    worst = float(orthonormality_residual(theta, metric).max())
    if worst > _ORTHO_TOL:
        raise NotOrthonormal(f"orthonormality residual {worst:.3e} > {_ORTHO_TOL:.1e}")
    quad = _quadratic_map(pauli)
    spin_up = np.stack([quad[:, 0].real, quad[:, 0].imag, pauli.sigma_lower[:, 0, 0].real])
    if np.any(_triple_product(theta) * _triple_product(spin_up) < 0.0):
        raise NoSpinLift("coframe is not of the handedness this Pauli set maps spinors to")
    check_density(rho)

    s = rho / metric.sqrt_det
    w = s[..., np.newaxis] * (theta[0] + 1j * theta[1])
    x11, x12, x22 = (np.linalg.inv(quad) @ w.reshape(-1, 3).T).reshape((3,) + s.shape)
    # |xi_1^2| + |xi_2^2| = s, so the larger square has modulus >= s / 2
    use1 = np.abs(x11) >= np.abs(x22)
    root = np.sqrt(np.where(use1, x11, x22))
    other = x12 / root
    xi = np.stack([np.where(use1, root, other), np.where(use1, other, root)], axis=-1)

    # continuity sweep: align consecutive points in C-order
    flat = xi.reshape(-1, 2)
    overlap = np.einsum("na,na->n", flat[:-1].conj(), flat[1:]).real
    flips = np.where(overlap < 0.0, -1.0, 1.0)
    signs = np.concatenate([[1.0], np.cumprod(flips)])
    xi = (flat * signs[:, np.newaxis]).reshape(xi.shape)

    # canonical overall sign: first point's dominant component has Re >= 0
    anchor = xi.reshape(-1, 2)[0]
    lead = anchor[int(np.argmax(np.abs(anchor)))]
    return -xi if lead.real < 0.0 else xi


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
