"""Stationary Weyl operators, exact plane-wave solutions, and the
discrete variational residual witnessing the equivalence between Weyl
solutions and stationary points of the spinor action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ZeroFrequency, ZeroWavevector
from .geometry import Metric3, PauliSet, TorusGrid, build_pauli, spectral_partial
from .sampling import random_bandlimited_spinor, random_wavevector
from .spinor import (
    SpinorField,
    _axial_density,
    _check_nonvanishing,
    _check_real_covector,
    _complex_covector,
    _dirac,
    _field,
    _nonvanishing,
    _sandwich,
    _scalar_density,
    _stationary_density,
    _vanishing,
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


@dataclass(frozen=True)
class PlaneWaveSpec:
    """An exact plane-wave solution u e^{i k.x} of a stationary Weyl
    equation.

    ``k_modes`` are integer Fourier modes (physical wavevector is
    2 pi k_modes / box) and ``p0`` the signed eigenvalue of k_a sigma^a
    on ``u`` (branch selects its sign). Since i sigma^a d_a eta =
    -k_a sigma^a eta = -p0 eta, the wave solves the sign-+1 equation at
    this signed p0, which is the sign-``branch`` equation at |p0|.
    """

    k_modes: tuple
    branch: int
    u: np.ndarray
    p0: float
    dispersion_residual: float


def weyl_residual(eta: np.ndarray | SpinorField, p0: float, sign: int,
                  pauli: PauliSet, grid: TorusGrid) -> np.ndarray:
    """Residual spinor field of the stationary Weyl operator,
    r = sign * p0 sigma^0 eta + i sigma^a d_a eta."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    field = _field(eta, pauli, grid)
    return sign * p0 * field.eta + 1j * field.slash


def weyl_residual_norm(eta: np.ndarray | SpinorField, p0: float, sign: int,
                       pauli: PauliSet, grid: TorusGrid) -> float:
    """Max over grid points of the pointwise 2-norm of the residual."""
    r = weyl_residual(eta, p0, sign, pauli, grid)
    return float(np.sqrt(_scalar_density(r)).max())


def planewave_solution(k_modes, branch: int, metric: Metric3, grid: TorusGrid):
    """Exact plane-wave Weyl solution for integer mode vector
    ``k_modes``.

    Returns ``(spec, field)``: a `SpinorField` of eta = u e^{i k.x} on
    the Pauli set of ``metric``, where u is the unit eigenvector of the
    Hermitian matrix k_a sigma^a for the eigenvalue
    p0 = branch * sqrt(g^ab k_a k_b); ``field.eta`` is the array.
    """
    k_modes = np.asarray(k_modes, dtype=int)
    if not np.any(k_modes != 0):
        raise ZeroWavevector("plane wave requires a nonzero mode vector")
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    pauli = build_pauli(metric)
    k = 2.0 * np.pi * k_modes / np.asarray(grid.box)
    kslash = np.einsum("n,nab->ab", k, pauli.sigma_upper)
    p0 = branch * float(np.sqrt(k @ metric.g_upper @ k))
    eigvals, eigvecs = np.linalg.eigh(kslash)
    idx = int(np.argmin(np.abs(eigvals - p0)))
    u = eigvecs[:, idx]
    u = u / np.sqrt(np.vdot(u, u).real)
    x1, x2, x3 = grid.coords()
    phase = np.exp(1j * (k[0] * x1 + k[1] * x2 + k[2] * x3))
    eta = phase[..., np.newaxis] * u
    dispersion_residual = abs(p0 * p0 - float(k @ metric.g_upper @ k))
    spec = PlaneWaveSpec(k_modes=tuple(int(m) for m in k_modes), branch=branch,
                         u=u, p0=p0, dispersion_residual=dispersion_residual)
    return spec, SpinorField(eta, pauli, grid)


_PREFACTOR = 16.0 / 9.0


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
    one, the second is the only transform this function adds.
    """
    if p0 == 0.0:
        raise ZeroFrequency("p0 must be nonzero")
    field = _nonvanishing(eta, pauli, grid)
    g_coef = 2.0 * _PREFACTOR * field.A * metric.sqrt_det / field.s
    h_coef = _PREFACTOR * (-((field.A / field.s) ** 2) - p0 * p0) * metric.sqrt_det
    term1 = g_coef[..., np.newaxis] * field.slash
    term2 = _dirac(g_coef[..., np.newaxis] * field.eta, pauli.sigma_upper, grid)
    return 0.5j * (term1 + term2) + h_coef[..., np.newaxis] * field.eta


def _gradient_scale(field: SpinorField, p0: float, metric: Metric3) -> float:
    return _PREFACTOR * metric.sqrt_det * (1.0 + p0 * p0) * np.sqrt(float(field.s.max()))


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


# Probes per array pass of `_fd_gradient_at_dofs`: the working set stays
# O(_FD_BLOCK (N1 + N2 + N3)) whatever the number of probes.
_FD_BLOCK = 64


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
    and take no transform of their own. All probes of a block of
    `_FD_BLOCK`, with both signs, go through one pass of array
    operations of shape (probe, sign, stencil point, component).
    L_+ - L_- is taken pointwise before summing. Each perturbed field
    passes the guards of `lagrangian_stationary`: nonzero p0, the
    nonvanishing floor relative to that field's max s, and the reality
    of v at the perturbed point; the first probe, in the order given,
    that fails one raises its error.
    """
    if p0 == 0.0:
        raise ZeroFrequency("p0 must be nonzero")
    eps_cbrt = float(np.cbrt(np.finfo(float).eps))
    offsets, weights = _line_stencil(grid)
    dims = np.asarray(grid.dims)[:, np.newaxis]
    field = _field(eta, pauli, grid)
    eta, slash, s_flat = field.eta, field.slash, field.s.ravel()
    # s is unchanged away from p, so the floor of a perturbed field needs
    # only the extremes of s elsewhere: the second one where p holds the first
    i_lo, i_hi = np.argmin(s_flat), np.argmax(s_flat)
    lo_else, hi_else = np.delete(s_flat, i_lo).min(), np.delete(s_flat, i_hi).max()
    signs = np.array([1.0, -1.0])
    points, comps, parts = dofs
    values = np.empty(len(comps))
    for start in range(0, len(comps), _FD_BLOCK):
        block = slice(start, start + _FD_BLOCK)
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
        # sigma^a d_a is linear: delta on component comp at p moves
        # sigma^a d_a eta at stencil point m by delta sum_a weights[a, m] sigma^a[:, comp]
        column = np.einsum("am,aip->pmi", weights, pauli.sigma_upper[:, :, comp])
        slash_pm = slash[pts][:, np.newaxis] + delta[:, :, np.newaxis, np.newaxis] \
            * column[:, np.newaxis]
        s_pm = _scalar_density(eta_pm)
        flat_p = np.ravel_multi_index(tuple(point.T), grid.dims)
        lo = np.where(flat_p == i_lo, lo_else, s_flat[i_lo])[:, np.newaxis]
        hi = np.where(flat_p == i_hi, hi_else, s_flat[i_hi])[:, np.newaxis]
        extremes = np.stack(np.broadcast_arrays(s_pm[..., 0], lo, hi), axis=-1)
        at_p = eta_pm[:, :, 0]
        v_p = _sandwich(at_p, pauli.sigma_lower, at_p)
        scale = np.maximum(np.maximum(s_pm[..., 0], hi), np.finfo(float).tiny)
        failed = _vanishing(extremes, axis=-1) | _complex_covector(v_p, scale, axis=-1)
        for i in np.flatnonzero(failed.any(axis=1)):
            for k in range(2):  # raise as the checks of the perturbed fields would
                _check_nonvanishing(extremes[i, k])
                _check_real_covector(v_p[i, k], scale[i, k])
        axial = _axial_density(eta_pm, slash_pm)
        lag_pm = _stationary_density(s_pm, axial, p0, metric)
        grad = grid.cell_volume * (lag_pm[:, 0] - lag_pm[:, 1]).sum(axis=-1) / (2.0 * step)
        values[block] = grad / (2.0 * grid.cell_volume)
    return values


def el_residual(eta: np.ndarray | SpinorField, p0: float, pauli: PauliSet,
                metric: Metric3, grid: TorusGrid, mode: str = "analytic",
                probes: int = 64, seed: int = 0) -> float:
    """Scale-normalised max-norm of the gradient of the discrete
    stationary action.

    mode "analytic" evaluates the closed-form variational derivative at
    every grid point; mode "fd" probes ``probes`` (at least 1) seeded
    random real degrees of freedom with central differences of the
    discrete action (step scaled by the cube root of machine epsilon).
    Mode "analytic" applies sigma^a d_a as one Fourier symbol, to eta
    (shared with every other check of the field) and to G eta. A probe
    changes the density only on the three grid lines through its point,
    so the probes cost O(N1 + N2 + N3) each on top of the field's
    sigma^a d_a eta, which they perturb and do not recompute; they are
    evaluated together, both signs at once, in one pass of array
    operations per block of `_FD_BLOCK` probes (see
    `_fd_gradient_at_dofs`). With sigma^a d_a eta at hand, 16 probes at
    16^3 take about 0.45 ms and 64 about 1.2 ms (2-CPU Xeon, numpy 2.4,
    minimum of repeated calls).
    """
    field = _field(eta, pauli, grid)
    ref = _gradient_scale(field, p0, metric)
    if mode == "analytic":
        w = el_gradient(field, p0, pauli, metric, grid)
        return float(max(np.abs(w.real).max(), np.abs(w.imag).max())) / ref
    if mode == "fd":
        dofs = _sample_dofs(field.eta, probes, seed)
        values = _fd_gradient_at_dofs(field, p0, pauli, metric, grid, dofs)
        return float(np.abs(values).max()) / ref
    raise ValueError(f"mode must be 'analytic' or 'fd', got {mode!r}")


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


def _residuals(field: SpinorField, p0: float, sign: int, metric: Metric3,
               fd_probes: int = 0, fd_seed: int | None = None):
    """Residuals of one field for the sign-``sign`` Weyl equation at
    frequency p0, all from the field's one sigma^a d_a eta, which the FD
    probes perturb too.

    Returns ``(residuals, lag)``: a dict with ``weyl_residual``,
    ``el_residual``, ``el_residual_fd`` (only given an ``fd_seed``),
    ``L_max`` and ``Lpm_max``, and the stationary density itself.
    """
    pauli, grid = field.pauli, field.grid
    out = {"weyl_residual": weyl_residual_norm(field, p0, sign, pauli, grid),
           "el_residual": el_residual(field, p0, pauli, metric, grid, mode="analytic")}
    if fd_seed is not None:
        out["el_residual_fd"] = el_residual(field, p0, pauli, metric, grid, mode="fd",
                                            probes=fd_probes, seed=fd_seed)
    lag = lagrangian_stationary(field, p0, pauli, metric, grid)
    out["L_max"] = float(np.abs(lag).max())
    out["Lpm_max"] = float(np.abs(lagrangian_weyl(field, p0, sign, pauli, metric,
                                                  grid)).max())
    return out, lag


def theorem_witness_suite(seed: int, grid: TorusGrid, metric: Metric3,
                          n_cases: int = 16, perturb: float = 0.1,
                          max_mode: int = 3, fd_probes: int = 16) -> dict:
    """Numerical witness for the solution <-> stationary-point
    equivalence.

    Per Weyl-equation sign: ``n_cases`` exact plane-wave solutions must
    have Weyl, variational (analytic and finite-difference) and
    Lagrangian residuals within `WEYL_TOL`, `EL_TOL` and
    `LAGRANGIAN_TOL`; ``n_cases`` perturbed non-solutions must have
    Weyl and variational residuals of at least `NONSOLUTION_FLOOR`. The
    converse direction is only falsification-style: sampling cannot
    certify that every stationary point is a Weyl solution, so
    non-solutions are checked to be non-stationary, and the two
    residuals' zero-sets are required to agree on every tested sample.
    """
    if fd_probes < 1:
        raise ValueError(f"fd_probes must be at least 1, got {fd_probes}")
    rng = np.random.default_rng(seed)
    cases = []
    for sign in (1, -1):
        for _ in range(n_cases):
            k = random_wavevector(rng, max_mode=max_mode)
            spec, field = planewave_solution(k, sign, metric, grid)
            p0 = abs(spec.p0)  # sign-s equation at positive frequency
            head = {"k": [int(m) for m in k], "branch": sign, "p0": p0}
            res, _ = _residuals(field, p0, sign, metric, fd_probes,
                                fd_seed=int(rng.integers(2**31)))
            cases.append({"kind": "solution", **head, **res,
                          "pass": bool(res["weyl_residual"] <= WEYL_TOL
                                       and res["el_residual"] <= EL_TOL
                                       and res["el_residual_fd"] <= EL_TOL
                                       and res["L_max"] <= LAGRANGIAN_TOL
                                       and res["Lpm_max"] <= LAGRANGIAN_TOL)})

            noise = random_bandlimited_spinor(
                grid, np.random.default_rng(int(rng.integers(2**31))),
                max_mode=2, amplitude=perturb)
            bad, _ = _residuals(SpinorField(field.eta + noise, field.pauli, grid),
                                p0, sign, metric)
            cases.append({"kind": "perturbed", **head, **bad,
                          "pass": bool(bad["el_residual"] >= NONSOLUTION_FLOOR
                                       and bad["weyl_residual"] >= NONSOLUTION_FLOOR)})
    consistent = all((c["weyl_residual"] <= WEYL_TOL) == (c["el_residual"] <= EL_TOL)
                     for c in cases)
    verdict = "pass" if consistent and all(c["pass"] for c in cases) else "fail"
    return {
        "config": {
            "seed": seed,
            "grid": list(grid.dims),
            "box": list(grid.box),
            "metric": metric.g_lower.tolist(),
            "n_cases": n_cases,
            "perturb": perturb,
            "max_mode": max_mode,
            "fd_probes": fd_probes,
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
