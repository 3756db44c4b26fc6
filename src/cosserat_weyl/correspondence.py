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

import numpy as np

from .cosserat import _check_shapes, check_density, orthonormality_residual
from .errors import NoSpinLift, NotOrthonormal
from .geometry import Metric3, PauliSet, TorusGrid, _component_planes, _slabs
from .spinor import SpinorField, _covector, _nonvanishing

# d0 (theta^1 + i theta^2) = PHASE_RATE * i * p0 * (theta^1 + i theta^2)
PHASE_RATE = -2.0

# largest orthonormality residual `frame_to_spinor` accepts, relative to
# max|g_ab|: the residual of a frame built from g is rounding of g's size
_ORTHO_TOL = 1e-6


def _quadratic_map(pauli: PauliSet) -> np.ndarray:
    """The 3x3 matrix Q with w_a = Q[a] . (xi_1^2, xi_1 xi_2, xi_2^2).

    xihat^dagger = xi^T J with J = [[0, -1], [1, 0]], so
    w_a = xi^T J sigma_a xi is linear in the entries of xi xi^T.
    """
    jsigma = np.array([[0.0, -1.0], [1.0, 0.0]]) @ pauli.sigma_lower
    return np.stack([jsigma[:, 0, 0], jsigma[:, 0, 1] + jsigma[:, 1, 0],
                     jsigma[:, 1, 1]], axis=-1)


def spinor_to_frame(xi: np.ndarray | SpinorField, pauli: PauliSet,
                    metric: Metric3, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """Map a nonvanishing spinor field to its coframe + density, one
    x1 slab (`_slabs`) at a time. Returns ``(theta, rho)``; the spinor
    they come from is determined by them only up to a global sign.

    theta^3 = v / s takes v from `spinor._covector` and does not cache
    it on a given field. theta is stored as component planes
    (`geometry._component_planes`), and each plane theta^j_a is written
    once per slab."""
    field = _nonvanishing(xi, pauli, grid)
    quad_t = _quadratic_map(pauli).T
    theta = _component_planes(field.s.shape, (3, 3), float)
    for sl in _slabs(field.s.shape):
        eta = field.eta[sl]
        x1, x2 = eta[..., 0], eta[..., 1]
        squares = np.stack([x1 * x1, x1 * x2, x2 * x2], axis=-1)
        w = (squares.reshape(-1, 3) @ quad_t).reshape(squares.shape)
        sinv = 1.0 / field.s[sl]
        for a in range(3):
            np.multiply(w[..., a].real, sinv, out=theta[0, sl, ..., a])
            np.multiply(w[..., a].imag, sinv, out=theta[1, sl, ..., a])
        np.multiply(_covector(eta, pauli), sinv[..., np.newaxis], out=theta[2, sl])
    return theta, field.s * metric.sqrt_det


def _real_pairs(z: np.ndarray) -> np.ndarray:
    """A read-only float view of a spinor field z of any layout, shape
    (2,) + z.shape[:-1] + (2,): the component axis first, (Re, Im)
    last. ``.view(float)`` needs a contiguous last axis, which a spinor
    in component planes has not."""
    re = z.real
    view = np.lib.stride_tricks.as_strided(re, z.shape + (2,), re.strides + (re.itemsize,),
                                           writeable=False)
    return np.moveaxis(view, -2, 0)


def _overlaps(pairs: np.ndarray, lo: tuple, hi: tuple, out: np.ndarray) -> None:
    """out = Re xibar xi' from the points ``lo`` to the points ``hi``
    (grid indices) of a spinor field given as its `_real_pairs` view.

    One einsum sums the two components' products and keeps the (Re, Im)
    axis, whose two terms are then added into ``out``. On a spinor in
    component planes each (Re, Im) pair sits beside the next point's,
    so the einsum's inner loop runs along the points at unit stride, not
    over a length-2 axis.
    """
    products = np.einsum("c...,c...->...", pairs[(slice(None),) + lo],
                         pairs[(slice(None),) + hi])
    np.add(products[..., 0], products[..., 1], out=out)


def _line_signs(line: np.ndarray, axis: int) -> np.ndarray:
    """Per-point signs (+-1) along ``axis`` that make the spinors
    ``line`` continuous: each point's sign is the product of the flips
    of the links before it, a link from a point to the next flipping
    where Re xibar xi' < 0. Raises NoSpinLift if the flips of a line,
    its periodic edge included, multiply to -1.

    The overlaps of the interior links (`_overlaps`) are taken from
    shifted slices straight into the returned array, at the point after
    each link, in x1 slabs (`_slabs`; one chunk when x1 is the link
    axis), and the periodic edge's apart, so neither a rolled copy nor
    an overlap temporary of the full size is made.
    """
    def at(index):
        return (slice(None),) * axis + (index,)

    pairs = _real_pairs(line)
    sign = np.empty(line.shape[:-1])
    chunks = [slice(None)] if axis == 0 else _slabs(sign.shape)
    for chunk in chunks:
        _overlaps(pairs[:, chunk], at(slice(None, -1)), at(slice(1, None)),
                  sign[chunk][at(slice(1, None))])
    edge = np.empty(sign[at(0)].shape)
    _overlaps(pairs, at(-1), at(0), edge)
    sign[at(0)] = 1.0
    flips = sign < 0.0
    sign.fill(1.0)
    np.copyto(sign, -1.0, where=flips)
    np.cumprod(sign, axis=axis, out=sign)
    if np.any((sign[at(-1)] < 0.0) != (edge < 0.0)):
        raise NoSpinLift(f"no spin lift around the x{axis + 1} cycle: the lifted "
                         "spinor changes sign across the periodic edge")
    return sign


def _sweep_signs(xi: np.ndarray) -> np.ndarray:
    """Per-point signs that make the pointwise lift xi continuous.

    The sweep runs along the axes (`_line_signs`): every x3 line, then
    the x3 = 0 plane along x2, then the x2 = x3 = 0 line along x1. Each
    flips the points after a link where Re xibar xi' < 0. A line with an
    odd number of such links, its periodic edge included, changes sign
    around its torus cycle: the frame has no spin lift, and NoSpinLift
    names the axis.
    """
    sign = _line_signs(xi, 2)
    sign *= _line_signs(xi[:, :, 0], 1)[:, :, np.newaxis]
    sign *= _line_signs(xi[:, 0, 0], 0)[:, np.newaxis, np.newaxis]
    return sign


def frame_to_spinor(theta: np.ndarray, rho: np.ndarray, pauli: PauliSet,
                    metric: Metric3) -> tuple[np.ndarray, float]:
    """Invert `spinor_to_frame` on the given Pauli set, up to a global sign.

    Returns ``(xi, orthonormality)``: the lifted spinor, in component
    planes, and the frame's worst orthonormality residual, which must
    not exceed `_ORTHO_TOL` max|g_ab| (NotOrthonormal otherwise).

    The inverse of `_quadratic_map` gives (xi_1^2, xi_1 xi_2, xi_2^2)
    from w = s (theta^1 + i theta^2). On any Pauli set, a frame has a
    spin lift only where theta^3 = v / s of that spinor, and only if a
    sweep along the axes (`_sweep_signs`) can fix the per-point sign
    around all three torus cycles. A density whose shape is not the
    frame's grid shape ``theta.shape[1:-1]`` raises ValueError.

    The pointwise checks and the lift run one x1 slab (`_slabs`) at a
    time; only the sign sweep sees the whole grid.
    """
    _check_shapes(theta, rho)
    dims = theta.shape[1:-1]
    slabs = _slabs(dims)
    # np.max, unlike Python's max, keeps a NaN in any slab
    worst = float(np.max([orthonormality_residual(theta[:, sl], metric).max()
                          for sl in slabs]))
    bound = _ORTHO_TOL * float(np.abs(metric.g_lower).max())
    if not worst <= bound:  # a NaN fails too
        raise NotOrthonormal(f"orthonormality residual {worst:.3e} > {_ORTHO_TOL:.1e} "
                             f"max|g_ab| = {bound:.3e}")
    check_density(rho)

    quad_inv = np.linalg.inv(_quadratic_map(pauli))
    xi = _component_planes(dims)
    for sl in slabs:
        s = rho[sl] / metric.sqrt_det
        # w = s (theta^1 + i theta^2), the right factor of Q^-1 w, as three
        # planes, Re and Im written straight from the frame's planes
        w = np.empty((3,) + s.shape, dtype=complex)
        for a in range(3):
            np.multiply(s, theta[0, sl, ..., a], out=w[a].real)
            np.multiply(s, theta[1, sl, ..., a], out=w[a].imag)
        x11, x12, x22 = (quad_inv @ w.reshape(3, -1)).reshape(w.shape)
        # |xi_1^2| + |xi_2^2| = s, so the larger square has modulus >= s / 2
        use1 = np.abs(x11) >= np.abs(x22)
        root = np.sqrt(np.where(use1, x11, x22))
        other = x12 / root
        xi[sl, ..., 0] = np.where(use1, root, other)
        xi[sl, ..., 1] = np.where(use1, other, root)
        if np.any(np.einsum("...a,...a->...", theta[2, sl], _covector(xi[sl], pauli)) < 0.0):
            raise NoSpinLift("theta^3 points against v / s of the spinor lifted from the frame")

    sign = _sweep_signs(xi)
    for c in (0, 1):
        xi[..., c] *= sign

    # canonical overall sign: first point's dominant component has Re >= 0
    anchor = xi[0, 0, 0]
    lead = anchor[int(np.argmax(np.abs(anchor)))]
    if lead.real < 0.0:
        np.negative(xi, out=xi)
    return xi, worst


def stationary_frame_path(eta: np.ndarray | SpinorField, p0: float, pauli: PauliSet,
                          metric: Metric3, grid: TorusGrid):
    """Coframe path of the stationary ansatz xi = e^{-i p0 x0} eta,
    evaluated at x0 = 0.

    theta^3 and rho are time-independent; theta^1 + i theta^2 carries
    the phase e^{-2 i p0 x0} (PHASE_RATE convention), so its time
    derivative is taken analytically, with no time discretisation.

    Returns ``(theta, dtheta0, rho)``. d0 theta^3 = 0, so the velocity
    dtheta0 holds only d0 theta^1 and d0 theta^2: shape
    ``(2,) + dims + (3,)``, stored as the two covectors' component
    planes, which `cosserat.kinetic_2form` and
    `cosserat.lagrangian_coframe` take as a velocity with a zero third
    covector.
    """
    theta, rho = spinor_to_frame(eta, pauli, metric, grid)
    # d0 (theta^1 + i theta^2) = -2 i p0 (theta^1 + i theta^2)
    rate = PHASE_RATE * p0
    dtheta0 = _component_planes(theta.shape[1:-1], (2, 3), float)
    np.multiply(-rate, theta[1], out=dtheta0[0])
    np.multiply(rate, theta[0], out=dtheta0[1])
    return theta, dtheta0, rho
