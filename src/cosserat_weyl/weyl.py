"""Stationary Weyl operators, exact plane-wave solutions, and the
discrete variational residual witnessing the equivalence between Weyl
solutions and stationary points of the spinor action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, OutOfRange, ZeroWavevector
from .geometry import (Metric3, PauliSet, TorusGrid, _component_planes, _highest_mode,
                       _plane_wave, _slabs, build_pauli, spectral_partial)
from .sampling import random_bandlimited_spinor, random_wavevector
from .spinor import (
    SpinorField,
    _axial_density,
    _below_floor,
    _check_nonvanishing,
    _check_nonzero_p0,
    _check_sign,
    _dirac,
    _field,
    _nonvanishing,
    _scalar_density,
    _stationary_density,
    lagrangian_stationary,
    lagrangian_weyl,
)

# Gates of the solution <-> stationary-point witness, shared by
# `theorem_witness_suite` and the `planewave` command. EL_TOL sits above
# the finite-difference rounding floor, about 4e-11.
WEYL_TOL = 1e-12
EL_TOL = 1e-8
LAGRANGIAN_TOL = 1e-12
NONSOLUTION_FLOOR = 1e-3
# The gate of each named residual, read by every verdict of this module
# and of the `planewave` command
_GATES = {"dispersion_residual": WEYL_TOL, "weyl_residual": WEYL_TOL,
          "el_residual": EL_TOL, "el_residual_fd": EL_TOL,
          "L_max": LAGRANGIAN_TOL, "Lpm_max": LAGRANGIAN_TOL}
# A theorem solution case gates every residual of `_residuals`; a
# planewave verdict gates its dispersion too, and leaves Lpm_max ungated.
_SOLUTION_GATED = ("weyl_residual", "el_residual", "el_residual_fd", "L_max", "Lpm_max")
_PLANEWAVE_GATED = ("dispersion_residual", "weyl_residual", "el_residual", "L_max")

# Knobs of the theorem witness: the amplitude of the non-solution
# perturbations, the FD probes per solution case, and the highest |mode|
# per axis of its plane waves on grids whose axes resolve it
_PERTURB = 0.1
_FD_PROBES = 16
_MAX_MODE = 3
# highest |mode| per axis of the non-solutions' perturbation
_PERTURB_MAX_MODE = 2


def _within_gates(residuals: dict, names) -> bool:
    """Whether each residual named in ``names`` is within its gate."""
    return all(residuals[name] <= _GATES[name] for name in names)


@dataclass(frozen=True)
class PlaneWaveSpec:
    """The amplitude and frequency of an exact plane-wave solution
    u e^{i k.x} of a stationary Weyl equation (`planewave_solution`).

    ``p0`` is the signed eigenvalue of k_a sigma^a on the unit spinor
    ``u`` (the branch selects its sign). Since i sigma^a d_a eta =
    -k_a sigma^a eta = -p0 eta, the wave solves the sign-+1 equation at
    this signed p0, which is the sign-branch equation at |p0|.
    ``dispersion_residual`` is |p0^2 - g^ab k_a k_b|.
    """

    u: np.ndarray
    p0: float
    dispersion_residual: float


def weyl_residual(eta: np.ndarray | SpinorField, p0: float, sign: int,
                  pauli: PauliSet, grid: TorusGrid) -> np.ndarray:
    """Residual spinor field of the stationary Weyl operator,
    r = sign * p0 sigma^0 eta + i sigma^a d_a eta."""
    _check_sign(sign)
    field = _field(eta, pauli, grid)
    return sign * p0 * field.eta + 1j * field.slash


def weyl_residual_norm(eta: np.ndarray | SpinorField, p0: float, sign: int,
                       pauli: PauliSet, grid: TorusGrid) -> float:
    """Max over grid points of the pointwise 2-norm of the residual."""
    _check_sign(sign)
    return float(_weyl_norms(_field(eta, pauli, grid), p0, sign))


# the grid axes of a scalar field, and of a spinor field, of one field
# or of each field of a stack
_GRID_AXES = (-3, -2, -1)
_FIELD_AXES = (-4, -3, -2, -1)


def _weyl_norms(field: SpinorField, p0: float, sign: int):
    """`weyl_residual_norm` of each field of a stack (of the field alone),
    from one component plane of the residual at a time."""
    def norm2(j):  # |r_j|^2, as `_scalar_density` sums it
        r = sign * p0 * field.eta[..., j] + 1j * field.slash[..., j]
        return r.real**2 + r.imag**2

    return np.sqrt((norm2(0) + norm2(1)).max(axis=_GRID_AXES))


_PREFACTOR = 16.0 / 9.0


# (m, +-m, +-m) for m = _PERTURB_MAX_MODE: the largest squared frequency
# g^ab k_a k_b of the perturbation's modes, |k_a| <= m, lies at one of these
# corners of its mode box, up to the sign of the whole vector
_PERTURB_CORNERS = _PERTURB_MAX_MODE * np.array([(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)])


def _check_frequency(modes, of: str, metric: Metric3, grid: TorusGrid):
    """k = 2 pi m / box and p^2 = g^ab k_a k_b of the integer modes m, shape (..., 3), of
    ``of``. Raise OutOfRange unless the least p^2 is at or above the smallest normal float
    and the residuals' largest product on a wave of the greatest, (32/9) N p^2 sqrt(det g)
    (see `planewave_solution`), is finite."""
    with np.errstate(all="ignore"):  # an out-of-range frequency is rejected below
        k = 2.0 * np.pi * np.asarray(modes) / np.asarray(grid.box)
        p_squared = metric.covector_norm2(k)
        low, high = float(np.min(p_squared)), float(np.max(p_squared))
        largest = 2.0 * _PREFACTOR * grid.num_points * high * metric.sqrt_det
    if not (np.finfo(float).tiny <= low and largest < np.inf):  # a NaN fails too
        raise OutOfRange(f"squared frequency g^ab k_a k_b = {high:.3e} of {of} on box "
                         f"{grid.box} is out of range: below the smallest normal float, or "
                         "the residuals' largest product (32/9) N p0^2 sqrt(det g) = "
                         f"{largest:.3e} overflows")
    return k, p_squared


def planewave_solution(k_modes, branch: int, metric: Metric3, grid: TorusGrid):
    """Exact plane-wave Weyl solution for integer mode vector
    ``k_modes``.

    Returns ``(spec, field)``: a `PlaneWaveSpec` of u and p0, and a
    `SpinorField` of eta = u e^{i k.x} on the Pauli set of ``metric``,
    where u is the unit eigenvector of the Hermitian matrix k_a sigma^a
    for the eigenvalue p0 = branch * sqrt(g^ab k_a k_b); ``field.eta``
    is the array, in component planes pw u[c] of the plane wave pw
    (`geometry._component_planes`). A mode at or above the Nyquist
    mode N/2 of its axis aliases onto a wave that solves nothing, and
    raises ConfigError. `_check_frequency` raises
    OutOfRange for a squared frequency p0^2 = g^ab k_a k_b below the
    smallest normal float, or one at which the residuals overflow (a box
    too large or too small for the modes): their largest product is the
    spectral sum of G eta in `el_gradient` times the symbol k_a sigma^a,
    which on the wave, where |A| = |p0| s and the symbol has norm |p0|,
    is at most 2 _PREFACTOR num_points p0^2 sqrt(det g).
    """
    k_modes = np.asarray(k_modes, dtype=int)
    if not np.any(k_modes != 0):
        raise ZeroWavevector("plane wave requires a nonzero mode vector")
    _check_sign(branch, "branch")
    modes, highest = tuple(k_modes.tolist()), _highest_mode(grid)
    if any(abs(m) > top for m, top in zip(modes, highest)):
        raise ConfigError(f"modes {modes}: each |k| must stay below the Nyquist mode N/2 "
                          f"of its axis, at most {list(highest)} here")
    k, p0_squared = _check_frequency(k_modes, f"modes {modes}", metric, grid)
    pauli = build_pauli(metric)
    kslash = np.einsum("n,nab->ab", k, pauli.sigma_upper)
    p0 = branch * float(np.sqrt(p0_squared))
    eigvals, eigvecs = np.linalg.eigh(kslash)
    idx = int(np.argmin(np.abs(eigvals - p0)))
    u = eigvecs[:, idx]
    u = u / np.sqrt(np.vdot(u, u).real)
    wave = _plane_wave(grid, k_modes, 1.0)
    eta = _component_planes(grid.shape)
    for c in (0, 1):
        np.multiply(wave, u[c], out=eta[..., c])
    dispersion_residual = float(abs(p0 * p0 - p0_squared))
    spec = PlaneWaveSpec(u=u, p0=p0, dispersion_residual=dispersion_residual)
    return spec, SpinorField(eta, pauli, grid)


def el_gradient(eta: np.ndarray | SpinorField, p0: float, pauli: PauliSet,
                metric: Metric3, grid: TorusGrid) -> np.ndarray:
    """Variational derivative of the discrete stationary action with
    respect to etabar, as a spinor field w.

    The gradient of the action S = cellvol * sum(L) with respect to the
    real and imaginary parts of eta at a grid point is
    2 * cellvol * (Re w, Im w) there. Derived by differentiating
    L = c (A^2/s - p0^2 s) sqrt(det g), c = 16/9, and using that the
    spectral derivative matrix is real and antisymmetric:

        w = (i/2) [ G sigma^a d_a eta + sigma^a d_a (G eta) ] + H eta,
        G = 2 c A sqrt(det g) / s,
        H = c (-(A/s)^2 - p0^2) sqrt(det g),

    where the second term is d_a (G sigma^a eta) with the constant
    sigma^a taken out of the derivative. Both sigma^a d_a are applied
    as one Fourier symbol (`_dirac`): the first is the field's cached
    one, the second is the only transform this function adds. A stack
    of fields (`SpinorField`) gets the stack of their gradients, from
    one `_dirac` call for all of them.

    G eta is written into the component planes of w
    (`geometry._component_planes`) and transformed there in place, and
    w is accumulated in place in that array of sigma^a d_a (G eta), one
    x1 slab (`geometry._slabs`) and one component at a time:
    += G sigma^a d_a eta, then *= i/2, then += H eta. G is formed for
    G eta and again per slab, so it is not held through the transform:
    beyond w, whose bytes are those of eta, and `_dirac`'s slab buffers,
    only G and slab-sized temporaries are made.
    """
    _check_nonzero_p0(p0)
    field = _nonvanishing(eta, pauli, grid)

    def g_coef(at):
        """G on the points ``at``, the same bits wherever it is formed."""
        return 2.0 * _PREFACTOR * field.A[at] * metric.sqrt_det / field.s[at]

    w = _component_planes(field.eta.shape[:-1])
    g_slab = g_coef(Ellipsis)
    for j in (0, 1):
        np.multiply(g_slab, field.eta[..., j], out=w[..., j])
    del g_slab  # formed again per slab: not held through the transform
    w = _dirac(w, pauli.sigma_upper, grid, out=w)
    for sl in _slabs(grid.shape):
        at = (Ellipsis, sl, slice(None), slice(None))  # the x1 slab of each field
        g_slab, axial, s = g_coef(at), field.A[at], field.s[at]
        h_coef = _PREFACTOR * (-((axial / s) ** 2) - p0 * p0) * metric.sqrt_det
        for j in (0, 1):  # one contiguous component plane of w (`_dirac`) at a time
            w_plane = w[at + (j,)]
            w_plane += g_slab * field.slash[at + (j,)]
            w_plane *= 0.5j
            w_plane += h_coef * field.eta[at + (j,)]
    return w


def _gradient_scale(field: SpinorField, p0: float, metric: Metric3):
    """The scale of the EL residuals of each field of a stack (of the field alone)."""
    return _PREFACTOR * metric.sqrt_det * (1.0 + p0 * p0) * np.sqrt(field.s.max(axis=_GRID_AXES))


def _sample_dofs(eta: np.ndarray, probes: int, seed: int):
    """A seeded sample of distinct real degrees of freedom of eta, as
    arrays ``(points, comp, part)``: grid indices of shape (n, 3), the
    spinor component, and 0 for Re or 1 for Im."""
    if probes < 1:
        raise ValueError(f"probes must be at least 1, got {probes}")
    rng = np.random.default_rng(seed)
    total = eta[..., 0].size * 2 * 2  # point x component x (re, im)
    picks = rng.choice(total, size=min(probes, total), replace=False)
    points = np.stack(np.unravel_index(picks // 4, eta.shape[:-1]), axis=-1)
    return points, (picks // 2) % 2, picks % 2


@lru_cache(maxsize=8)
def _line_stencil(grid: TorusGrid):
    """Offsets and derivative weights of the points where sigma^a d_a eta
    moves when eta changes at one grid point p.

    Returns ``(offsets, weights)``: point m of the stencil is
    p + offsets[:, m] (mod dims), and d_a eta there changes by
    weights[a, m] times the change of eta at p, so sigma^a d_a eta
    changes by sum_a weights[a, m] sigma^a applied to it. The stencil is
    p followed by the rest of the grid line through p along each axis.
    Weight row a is one column of the periodic spectral
    differentiation matrix along axis a, taken by differentiating a
    unit vector. Cached per grid; the arrays are read-only.
    """
    n1, n2, n3 = grid.dims
    offsets = np.zeros((3, n1 + n2 + n3 - 2), dtype=int)
    weights = np.zeros(offsets.shape)
    start = 1
    for a, n in enumerate(grid.dims):
        unit = np.zeros([n if b == a else 1 for b in range(3)])
        unit.flat[0] = 1.0
        kernel = spectral_partial(unit, a + 1, grid).ravel()
        weights[a, 0] = kernel[0]
        offsets[a, start:start + n - 1] = np.arange(1, n)
        weights[a, start:start + n - 1] = kernel[1:]
        start += n - 1
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, weights


def _fd_gradient_at_dofs(eta, p0, pauli, metric, grid, dofs):
    """Central-difference gradient of the discrete action at the real
    degrees of freedom ``dofs = (points, comp, part)`` (as drawn by
    `_sample_dofs`), rescaled to be comparable with Re/Im of
    `el_gradient`.

    Each probe moves eta by +-step at one grid point p. Spectral
    partials act along one axis at a time, so d_a eta moves only on the
    grid line through p along axis a, and L_+ - L_- is exactly zero off
    the three lines through p. The density is therefore evaluated on
    those N1 + N2 + N3 - 2 points only: O(N) work per probe instead of
    two full-grid Lagrangians. sigma^a d_a eta there is the field's
    cached one plus the probe's change, which is exact because the
    operator is linear: the step times the stencil weights of
    `_line_stencil` contracted with column comp of sigma^a. So the
    probes differentiate the action `lagrangian_stationary` evaluates
    and take no transform of their own. The probes go through one pass
    of array operations of shape (probe, sign, stencil point, component)
    per block (`geometry._slabs` of that shape), both signs at once, so
    the working set stays O(`geometry._SLAB_POINTS`) whatever the
    number of probes.
    L_+ - L_- is taken pointwise before summing. Each perturbed field
    passes the guards of `lagrangian_stationary`: nonzero p0 and the
    nonvanishing floor relative to that field's max s; the first probe,
    in the order given (plus step before minus), that fails the floor
    raises its error.
    """
    _check_nonzero_p0(p0)
    eps_cbrt = float(np.cbrt(np.finfo(float).eps))
    offsets, weights = _line_stencil(grid)
    dims = np.asarray(grid.dims)[:, np.newaxis]
    field = _field(eta, pauli, grid)
    eta, s_flat = field.eta, field.s.ravel()
    points, comps, parts = dofs
    # s is unchanged away from p, so the floor of a perturbed field needs
    # only the extremes of s elsewhere: the second one where p holds the
    # first, taken only if a probe sits there
    flat_points = np.ravel_multi_index(tuple(points.T), grid.dims)
    extremes = []
    for index, extreme in ((np.argmin(s_flat), np.min), (np.argmax(s_flat), np.max)):
        at_extreme = flat_points == index
        elsewhere = np.full(len(flat_points), s_flat[index])
        if at_extreme.any():
            elsewhere[at_extreme] = extreme(np.delete(s_flat, index))
        extremes.append(elsewhere[:, np.newaxis])
    lo_else, hi_else = extremes
    signs = np.array([1.0, -1.0])
    values = np.empty(len(comps))
    for block in _slabs((len(comps), 4 * offsets.shape[1])):
        point, comp = points[block], comps[block]
        probe = np.arange(len(comp))
        at_dof = eta[tuple(point.T) + (comp,)]
        # hypot is |eta| as abs() of one complex scalar takes it; np.abs of
        # a complex array can differ from it in the last bit
        step = eps_cbrt * (1.0 + np.hypot(at_dof.real, at_dof.imag))
        # (probe, sign): +-step on Re or on Im of eta at p
        delta = (np.where(parts[block] == 0, 1.0, 1j) * step)[:, np.newaxis] * signs
        pts = tuple(np.moveaxis((point[:, :, np.newaxis] + offsets) % dims, 1, 0))
        # (probe, sign, stencil point, component)
        eta_pm = np.repeat(eta[pts][:, np.newaxis], 2, axis=1)
        eta_pm[probe[:, np.newaxis], [0, 1], 0, comp[:, np.newaxis]] += delta
        s_pm = _scalar_density(eta_pm)
        lo, hi = lo_else[block], hi_else[block]
        s_p = s_pm[..., 0]  # s at p of each perturbed field, (probe, sign)
        failing = _below_floor(np.minimum(s_p, lo), np.maximum(s_p, hi))
        if failing.any():  # the first failing field raises, as its own check would
            i, k = np.argwhere(failing)[0]
            _check_nonvanishing(np.array([s_p[i, k], lo[i, 0], hi[i, 0]]))
        # sigma^a d_a is linear: delta on component comp at p moves
        # sigma^a d_a eta at stencil point m by delta sum_a weights[a, m] sigma^a[:, comp];
        # taken past the floor, so a non-finite eta raises before any transform
        column = np.einsum("am,aip->pmi", weights, pauli.sigma_upper[:, :, comp])
        slash_pm = field.slash[pts][:, np.newaxis] + delta[:, :, np.newaxis, np.newaxis] \
            * column[:, np.newaxis]
        axial = _axial_density(eta_pm, slash_pm)
        lag_pm = _stationary_density(s_pm, axial, p0, metric)
        # the action's central difference, cell_volume sum(L_+ - L_-) / (2 step),
        # over the 2 cell_volume of `el_gradient`'s scaling: the cell volume,
        # which can under- or overflow, cancels and is not formed
        values[block] = (lag_pm[:, 0] - lag_pm[:, 1]).sum(axis=-1) / (4.0 * step)
    return values


def el_residual(eta: np.ndarray | SpinorField, p0: float, pauli: PauliSet,
                metric: Metric3, grid: TorusGrid) -> float:
    """Scale-normalised max-norm of the gradient of the discrete
    stationary action: the closed-form variational derivative
    (`el_gradient`) at every grid point. It applies sigma^a d_a as one
    Fourier symbol, to eta (shared with every other check of the field)
    and to G eta."""
    return float(_el_residuals(_field(eta, pauli, grid), p0, metric))


def _el_residuals(field: SpinorField, p0: float, metric: Metric3):
    """`el_residual` of each field of a stack (of the field alone)."""
    w = el_gradient(field, p0, field.pauli, metric, field.grid)
    re, im = np.abs(w.real).max(axis=_FIELD_AXES), np.abs(w.imag).max(axis=_FIELD_AXES)
    # the larger of the two as max() takes it: the first unless the second is greater
    return np.where(im > re, im, re) / _gradient_scale(field, p0, metric)


def el_residual_fd(eta: np.ndarray | SpinorField, p0: float, pauli: PauliSet,
                   metric: Metric3, grid: TorusGrid, probes: int = 64,
                   seed: int = 0) -> float:
    """`el_residual` from finite differences: the max-norm of the
    gradient at ``probes`` (at least 1) seeded random real degrees of
    freedom, each a central difference of the discrete action (step
    scaled by the cube root of machine epsilon), with the same scale.

    A probe changes the density only on the three grid lines through
    its point, so the probes cost O(N1 + N2 + N3) each on top of the
    field's sigma^a d_a eta, which they perturb and do not recompute;
    they are evaluated together, both signs at once, in one pass of
    array operations per block of probes (see `_fd_gradient_at_dofs`).
    """
    field = _field(eta, pauli, grid)
    dofs = _sample_dofs(field.eta, probes, seed)
    values = _fd_gradient_at_dofs(field, p0, pauli, metric, grid, dofs)
    return float(np.abs(values).max()) / _gradient_scale(field, p0, metric)


def el_gradient_fd_check(eta: np.ndarray | SpinorField, p0: float,
                         pauli: PauliSet, metric: Metric3, grid: TorusGrid,
                         probes: int = 64, seed: int = 0) -> float:
    """Relative max-norm disagreement between the analytic and the
    finite-difference gradients on a common random subsample of
    degrees of freedom."""
    field = _field(eta, pauli, grid)
    dofs = _sample_dofs(field.eta, probes, seed)
    fd = _fd_gradient_at_dofs(field, p0, pauli, metric, grid, dofs)
    w = el_gradient(field, p0, pauli, metric, grid)
    points, comp, part = dofs
    at_dofs = w[tuple(points.T) + (comp,)]
    analytic = np.where(part == 0, at_dofs.real, at_dofs.imag)
    scale = max(float(max(np.abs(w.real).max(), np.abs(w.imag).max())),
                np.finfo(float).tiny)
    return float(np.abs(fd - analytic).max()) / scale


def _residuals(fields: SpinorField, p0: float, sign: int, metric: Metric3,
               fd_seed: int | None = None):
    """Residuals of each field of a stack (`SpinorField`) for the
    sign-``sign`` Weyl equation at frequency p0, all from the stack's one
    sigma^a d_a eta, which the FD probes of its first field perturb too.

    Returns ``(cases, lag)``: per field, a dict with ``weyl_residual``,
    ``el_residual``, ``el_residual_fd`` (`_FD_PROBES` probes, only given
    an ``fd_seed``, and only for the first field), ``L_max`` and
    ``Lpm_max``; and the stack of the stationary densities. The
    nonvanishing floor is checked on each field in turn.
    """
    pauli, grid = fields.pauli, fields.grid
    cases = [{"weyl_residual": float(weyl), "el_residual": float(el)}
             for weyl, el in zip(_weyl_norms(fields, p0, sign),
                                 _el_residuals(fields, p0, metric))]
    if fd_seed is not None:
        cases[0]["el_residual_fd"] = el_residual_fd(fields[0], p0, pauli, metric, grid,
                                                    probes=_FD_PROBES, seed=fd_seed)
    lag = lagrangian_stationary(fields, p0, pauli, metric, grid)
    lpm = lagrangian_weyl(fields, p0, sign, pauli, metric, grid)
    for case, l_max, lpm_max in zip(cases, np.abs(lag).max(axis=_GRID_AXES),
                                    np.abs(lpm).max(axis=_GRID_AXES)):
        case["L_max"], case["Lpm_max"] = float(l_max), float(lpm_max)
    return cases, lag


def theorem_witness_suite(seed: int, grid: TorusGrid, metric: Metric3,
                          n_cases: int = 16) -> dict:
    """Numerical witness for the solution <-> stationary-point
    equivalence.

    Per Weyl-equation sign: ``n_cases`` exact plane-wave solutions must
    have Weyl, variational (analytic and finite-difference) and
    Lagrangian residuals within `WEYL_TOL`, `EL_TOL` and
    `LAGRANGIAN_TOL`; ``n_cases`` perturbed non-solutions must have
    Weyl and variational residuals of at least `NONSOLUTION_FLOOR`. The
    converse direction is only falsification-style: sampling cannot
    certify that every stationary point is a Weyl solution, so
    non-solutions are checked to be non-stationary. The verdict passes
    when every case passes; that the two residuals' zero-sets agree on
    every tested sample is implied by the case gates, since both gates
    hold on a passing solution and the floor lies above both on a
    passing non-solution. The plane waves' modes stay below the Nyquist
    mode of every axis: at most 3, or N/2 - 1 on an axis of N < 8
    points. A box on which the perturbation's modes, at full amplitude,
    would overflow the residuals raises OutOfRange before any case is
    drawn (`_check_frequency` at `_PERTURB_CORNERS`). Each solution and
    its perturbed twin are evaluated as one stack of two fields
    (`_residuals`), so they share every sigma^a d_a call. Fewer than one
    case per sign would check nothing and pass: ConfigError.
    """
    if n_cases < 1:
        raise ConfigError(f"n_cases must be at least 1, got {n_cases}")
    _check_frequency(_PERTURB_CORNERS, f"the perturbation's modes, up to {_PERTURB_MAX_MODE} "
                     "per axis,", metric, grid)
    max_mode = min(_MAX_MODE, *_highest_mode(grid))
    rng = np.random.default_rng(seed)
    cases = []
    for sign in (1, -1):
        for _ in range(n_cases):
            k = random_wavevector(rng, max_mode=max_mode)
            spec, wave = planewave_solution(k, sign, metric, grid)
            p0 = abs(spec.p0)  # sign-s equation at positive frequency
            head = {"k": [int(m) for m in k], "branch": sign, "p0": p0}
            fd_seed = int(rng.integers(2**31))
            noise = random_bandlimited_spinor(
                grid, np.random.default_rng(int(rng.integers(2**31))),
                max_mode=_PERTURB_MAX_MODE, amplitude=_PERTURB)
            # the wave and its perturbed twin, one stack of two fields; each
            # case's arrays are freed before the next case is drawn
            pair = SpinorField(_component_planes((2,) + grid.shape), wave.pauli, grid)
            pair.eta[...] = wave.eta
            pair.eta[1] += noise
            del wave, noise
            (res, bad), _ = _residuals(pair, p0, sign, metric, fd_seed=fd_seed)
            del pair
            cases.append({"kind": "solution", **head, **res,
                          "pass": _within_gates(res, _SOLUTION_GATED)})
            cases.append({"kind": "perturbed", **head, **bad,
                          "pass": bool(bad["el_residual"] >= NONSOLUTION_FLOOR
                                       and bad["weyl_residual"] >= NONSOLUTION_FLOOR)})
    verdict = "pass" if all(c["pass"] for c in cases) else "fail"
    return {
        "config": {
            "seed": seed,
            "grid": list(grid.dims),
            "box": list(grid.box),
            "metric": metric.g_lower.tolist(),
            "n_cases": n_cases,
            "perturb": _PERTURB,
            "max_mode": max_mode,
            "fd_probes": _FD_PROBES,
            "weyl_tol": WEYL_TOL,
            "el_tol": EL_TOL,
            "lagrangian_tol": LAGRANGIAN_TOL,
            "nonsolution_floor": NONSOLUTION_FLOOR,
        },
        "branch_pairing": {"branch+1": "weyl+1", "branch-1": "weyl-1"},
        "converse_check": "falsification-only (sampled non-solutions)",
        "cases": cases,
        "verdict": verdict,
    }
