"""Plane-wave Weyl solutions, the dispersion relation, variational
gradients and the solution/stationary-point witness suite."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosserat_weyl import (
    ConfigError,
    DegenerateDenominator,
    Metric3,
    NotHermitian,
    OutOfRange,
    SpinorField,
    TorusGrid,
    VanishingSpinor,
    ZeroFrequency,
    ZeroWavevector,
    build_pauli,
    el_gradient,
    el_gradient_fd_check,
    el_residual,
    el_residual_fd,
    factorization_residual,
    lagrangian_stationary,
    lagrangian_weyl,
    planewave_solution,
    spinor_to_frame,
    theorem_witness_suite,
    weyl_residual,
    weyl_residual_norm,
)
import cosserat_weyl.geometry as geometry_module
import cosserat_weyl.spinor as spinor_module
import cosserat_weyl.weyl as weyl_module
from cosserat_weyl.geometry import integrate, spectral_partial
from cosserat_weyl.sampling import (random_bandlimited_spinor, random_nonvanishing_spinor,
                                    random_spd_metric)
from cosserat_weyl.spinor import (
    _axial_density,
    _check_nonvanishing,
    _nonvanishing,
    _scalar_density,
    _stationary_density,
    _vanishing,
)
from cosserat_weyl.weyl import (
    LAGRANGIAN_TOL,
    NONSOLUTION_FLOOR,
    _fd_gradient_at_dofs,
    _gradient_scale,
    _line_stencil,
    _sample_dofs,
)

TWO_PI = 2.0 * np.pi


def _probes(dofs):
    """The probes of ``dofs = (points, comp, part)`` one at a time, as
    (point tuple, comp, part)."""
    points, comps, parts = dofs
    return [(tuple(int(i) for i in point), int(comp), int(part))
            for point, comp, part in zip(points, comps, parts)]


def _as_dofs(probes):
    """(point tuple, comp, part) probes as the arrays `_sample_dofs` draws."""
    points, comps, parts = zip(*probes)
    return np.array(points, dtype=int).reshape(-1, 3), np.array(comps), np.array(parts)


def _join(*dofs):
    return tuple(np.concatenate(arrays) for arrays in zip(*dofs))


def _probe_block(grid):
    """Probes per array pass of `_fd_gradient_at_dofs` on ``grid``: the
    first of the `geometry._slabs` of its (probe, sign x stencil point x
    component) shape."""
    width = 4 * _line_stencil(grid)[0].shape[1]
    return geometry_module._slabs((geometry_module._SLAB_POINTS, width))[0].stop


# the first probe of the second block on an 8^3 grid, plus 3
_SECOND_BLOCK_8 = _probe_block(TorusGrid((8, 8, 8), (TWO_PI,) * 3)) + 3


def _per_axis_slash(eta, sigma, grid):
    """sigma^a d_a eta as the einsum of sigma^a with the stack of the
    three per-axis spectral partials of eta."""
    deta = np.stack([spectral_partial(eta, a, grid) for a in (1, 2, 3)])
    return np.einsum("nab,n...b->...a", sigma, deta)


def _per_axis_lagrangian(eta, p0, pauli, grid):
    """`lagrangian_stationary`, guards included, with sigma^a d_a eta
    taken as sigma^a applied to the stack of per-axis spectral partials:
    the discrete action the local stencil differentiates exactly. (The
    production path applies sigma^a d_a as one 3-D Fourier symbol, which
    rounds every point differently; the FD step would amplify that.)"""
    if p0 == 0.0:
        raise ZeroFrequency("p0 must be nonzero")
    field = _nonvanishing(SpinorField(eta, pauli, grid))
    axial = _axial_density(eta, _per_axis_slash(eta, pauli.sigma_upper, grid))
    return _stationary_density(field.s, axial, p0, pauli.metric)


def _fd_at_dofs(eta, p0, pauli, grid, dofs):
    """`_fd_gradient_at_dofs` on a field of eta, in the oracles' signature."""
    return _fd_gradient_at_dofs(SpinorField(eta, pauli, grid), p0, dofs)


def _full_grid_fd(eta, p0, pauli, grid, dofs):
    """Oracle: central differences of the action from two full-grid
    Lagrangians per probe."""
    eps_cbrt = float(np.cbrt(np.finfo(float).eps))
    values = []
    for point, comp, part in _probes(dofs):
        idx = point + (comp,)
        step = eps_cbrt * (1.0 + abs(eta[idx]))
        plus, minus = eta.copy(), eta.copy()
        plus[idx] += step if part == 0 else 1j * step
        minus[idx] -= step if part == 0 else 1j * step
        diff = _per_axis_lagrangian(plus, p0, pauli, grid) \
            - _per_axis_lagrangian(minus, p0, pauli, grid)
        values.append(integrate(diff, grid) / (2.0 * step) / (2.0 * grid.cell_volume))
    return np.array(values)


def _per_probe_fd(eta, p0, pauli, grid, dofs):
    """Oracle: the local finite differences one probe at a time, each on
    the three grid lines through its point, with the guards of each
    perturbed field checked as the probe comes."""
    if p0 == 0.0:
        raise ZeroFrequency("p0 must be nonzero")
    eps_cbrt = float(np.cbrt(np.finfo(float).eps))
    offsets, weights = _line_stencil(grid)
    dims = np.asarray(grid.dims)[:, np.newaxis]
    field = SpinorField(eta, pauli, grid)
    slash, s_flat = field.slash, field.s.ravel()
    order = np.argsort(s_flat)
    signs = np.array([1.0, -1.0])
    values = []
    for point, comp, part in _probes(dofs):
        step = eps_cbrt * (1.0 + abs(eta[point + (comp,)]))
        delta = signs * (step if part == 0 else 1j * step)
        pts = tuple((np.asarray(point)[:, np.newaxis] + offsets) % dims)
        eta_pm = np.stack([eta[pts]] * 2)  # (sign, stencil point, component)
        eta_pm[:, 0, comp] += delta
        # the change of sigma^a d_a eta on the stencil, per sign
        column = np.einsum("am,ai->mi", weights, pauli.sigma_upper[:, :, comp])
        slash_pm = slash[pts] + delta[:, np.newaxis, np.newaxis] * column
        s_pm = _scalar_density(eta_pm)
        flat_p = np.ravel_multi_index(point, grid.dims)
        lo = order[1] if order[0] == flat_p else order[0]
        hi = order[-2] if order[-1] == flat_p else order[-1]
        for k in range(2):
            _check_nonvanishing(np.array([s_pm[k, 0], s_flat[lo], s_flat[hi]]))
        axial = _axial_density(eta_pm, slash_pm)
        lag_pm = _stationary_density(s_pm, axial, p0, pauli.metric)
        values.append(np.sum(lag_pm[0] - lag_pm[1]) / (4.0 * step))
    return np.array(values)


def _edge_dofs(grid):
    """Probes at index 0 and N-1 on every axis, so the periodic wrap of
    each grid line is exercised, for both components and parts."""
    n1, n2, n3 = grid.dims
    points = [(0, 0, 0), (n1 - 1, n2 - 1, n3 - 1), (0, n2 - 1, n3 // 2),
              (n1 - 1, 1, 0)]
    return _as_dofs([(point, comp, part) for point in points
                     for comp in (0, 1) for part in (0, 1)])


class TestWeylResidual:
    def test_constant_spinor_residual_norm_is_p0(self, grid8, pauli_identity):
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = 1.0
        for sign in (1, -1):
            assert weyl_residual_norm(eta, 0.75, sign, pauli_identity,
                                      grid8) == pytest.approx(0.75, abs=1e-15)

    def test_bad_sign_rejected(self, grid8, pauli_identity):
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        with pytest.raises(ValueError):
            weyl_residual(SpinorField(eta, pauli_identity, grid8), 1.0, 0)


class TestPlaneWaves:
    def test_axis_mode_identity_metric(self, grid8, pauli_identity):
        spec, field = planewave_solution((0, 0, 1), 1, pauli_identity, grid8)
        assert spec.p0 == pytest.approx(1.0, abs=1e-14)
        assert spec.dispersion_residual <= 1e-13
        assert weyl_residual_norm(field, spec.p0, 1, pauli_identity, grid8) <= 1e-13

    def test_anisotropic_metric_frequency(self, grid8):
        # k = (0,0,1), g = diag(1,1,4): p0 = sqrt(g^33) = 1/2
        metric = Metric3.diagonal(1.0, 1.0, 4.0)
        spec, _ = planewave_solution((0, 0, 1), 1, build_pauli(metric), grid8)
        assert spec.p0 == pytest.approx(0.5, abs=1e-14)

    def test_diagonal_mode(self, grid8, pauli_identity):
        spec, _ = planewave_solution((1, 1, 0), -1, pauli_identity, grid8)
        assert spec.p0 == pytest.approx(-np.sqrt(2.0), abs=1e-13)

    def test_wrong_sign_residual_is_twice_p0(self, grid8, pauli_identity):
        # exact solution of one equation misses the other by 2 |p0| sqrt(s)
        spec, field = planewave_solution((0, 0, 2), 1, pauli_identity, grid8)
        wrong = weyl_residual_norm(field, spec.p0, -1, pauli_identity, grid8)
        assert wrong == pytest.approx(2.0 * abs(spec.p0), rel=1e-12)

    def test_zero_mode_rejected(self, grid8, pauli_identity):
        with pytest.raises(ZeroWavevector):
            planewave_solution((0, 0, 0), 1, pauli_identity, grid8)
        with pytest.raises(ValueError):
            planewave_solution((0, 0, 1), 0, pauli_identity, grid8)

    def test_dispersion_random_metrics(self, grid8):
        rng = np.random.default_rng(21)
        for _ in range(20):
            metric = random_spd_metric(rng)
            k = rng.integers(-3, 4, size=3)
            if not np.any(k):
                continue
            for branch in (1, -1):
                spec, field = planewave_solution(k, branch, build_pauli(metric), grid8)
                assert spec.dispersion_residual <= 1e-12
                # the wave solves the sign-+1 equation at its signed p0 and
                # misses the other one by 2 |p0| (|eta| = 1 pointwise)
                assert weyl_residual_norm(field, spec.p0, 1, field.pauli, grid8) <= 1e-12
                assert weyl_residual_norm(field, spec.p0, -1, field.pauli, grid8) \
                    == pytest.approx(2.0 * abs(spec.p0), rel=1e-12)


    @pytest.mark.parametrize("dims,box,metric", [
        ((16, 16, 16), (2 * np.pi,) * 3, Metric3.diagonal(1.0, 4.0, 9.0)),
        ((12, 16, 8), (5.0, 7.0, 9.0),
         Metric3.from_matrix([[1.3, 0.2, -0.1], [0.2, 0.9, 0.15], [-0.1, 0.15, 1.1]])),
        ((64, 64, 64), (2 * np.pi,) * 3, Metric3.identity()),
    ], ids=["16-diag", "12x16x8-full", "64-identity"])
    def test_matches_full_grid_exponential(self, dims, box, metric):
        # the full-grid exp(i k.x) u that the per-axis product replaced
        grid = TorusGrid(dims, box)
        x1, x2, x3 = grid.coords()
        pauli = build_pauli(metric)
        for k in ((1, 0, 0), (3, 2, 1), (-2, 3, -4), (3, 3, 3)):
            for branch in (1, -1):
                if any(2 * abs(m) >= n for m, n in zip(k, dims)):
                    # -4 on an 8-point axis is its Nyquist mode: the wave
                    # would alias and solve nothing
                    with pytest.raises(ConfigError, match="Nyquist"):
                        planewave_solution(k, branch, pauli, grid)
                    continue
                spec, field = planewave_solution(k, branch, pauli, grid)
                kphys = 2.0 * np.pi * np.asarray(k) / np.asarray(box)
                phase = np.exp(1j * (kphys[0] * x1 + kphys[1] * x2 + kphys[2] * x3))
                assert np.abs(field.eta - phase[..., None] * spec.u).max() <= 2e-14

    @pytest.mark.parametrize("k", [(-3, -3, -3), (3, 3, 1), (-3, -3, -2), (3, 2, 3)])
    @pytest.mark.parametrize("branch", [1, -1])
    def test_lagrangian_at_the_rounding_floor(self, grid16, k, branch):
        # with exp(i k.x) evaluated on the full grid, these waves had
        # L_max 1.1e-12 - 1.4e-12 at 16^3 on diag(1,4,9), over the gate
        metric = Metric3.diagonal(1.0, 4.0, 9.0)
        spec, field = planewave_solution(k, branch, build_pauli(metric), grid16)
        lag = lagrangian_stationary(field, spec.p0, field.pauli, metric, grid16)
        assert np.abs(lag).max() <= LAGRANGIAN_TOL


class TestVariationalGradient:
    def test_vanishes_at_plane_wave_solutions(self, grid16, pauli_identity):
        for k, branch in (((0, 0, 1), 1), ((1, -2, 1), -1)):
            spec, field = planewave_solution(k, branch, pauli_identity, grid16)
            p0 = abs(spec.p0)
            assert el_residual(field, p0) <= 1e-13
            assert el_residual_fd(field, p0, probes=8, seed=1) <= 1e-8

    def test_nonzero_away_from_solutions(self, grid8, pauli_identity):
        rng = np.random.default_rng(5)
        eta = random_nonvanishing_spinor(grid8, rng)
        assert el_residual(SpinorField(eta, pauli_identity, grid8), 1.0) >= 1e-3

    def test_fd_agrees_with_analytic(self, grid8):
        rng = np.random.default_rng(9)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid8, rng, max_mode=1)
        assert el_gradient_fd_check(SpinorField(eta, pauli, grid8), 0.5,
                                    probes=32, seed=3) <= 1e-7

    def test_gradient_shape(self, grid8, pauli_identity):
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = 1.0
        w = el_gradient(SpinorField(eta, pauli_identity, grid8), 1.0)
        assert w.shape == eta.shape


def _el_gradient_oracle(eta, p0, pauli, grid):
    """The closed-form gradient with einsum contractions and the second
    term as d_a (G sigma^a eta), one axis at a time."""
    c, metric = 16.0 / 9.0, pauli.metric
    s = np.einsum("...a,...a->...", eta.conj(), eta).real
    deta = np.stack([spectral_partial(eta, n, grid) for n in (1, 2, 3)])
    slash = np.einsum("nab,n...b->...a", pauli.sigma_upper, deta)
    A = -np.einsum("...a,...a->...", eta.conj(), slash).imag
    g_coef = (2.0 * c * A * metric.sqrt_det / s)[..., np.newaxis]
    h_coef = (c * (-((A / s) ** 2) - p0 * p0) * metric.sqrt_det)[..., np.newaxis]
    inner = g_coef * np.einsum("nab,...b->n...a", pauli.sigma_upper, eta)
    term2 = sum(spectral_partial(inner[n], n + 1, grid) for n in range(3))
    return 0.5j * (g_coef * slash + term2) + h_coef * eta


class TestAnalyticGradientOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_einsum_form(self, seed):
        grid = TorusGrid((4, 6, 8), (5.0, 7.0, 9.0))
        rng = np.random.default_rng(seed)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        _, wave = planewave_solution((1, 2, 3), 1, pauli, grid)
        for eta in (random_nonvanishing_spinor(grid, rng, max_mode=1),
                    wave.eta + random_nonvanishing_spinor(grid, rng, amplitude=0.1)):
            oracle = _el_gradient_oracle(eta, 0.8, pauli, grid)
            w = el_gradient(SpinorField(eta, pauli, grid), 0.8)
            assert np.abs(w - oracle).max() <= 1e-13 * np.abs(oracle).max()


class TestGradientInSlabs:
    # x1 slabs of 5, 5 and 2 planes on (12,16,8), and of 3 and 1 on
    # (4,6,10), for both sigma^a d_a calls and the in-place sums
    @pytest.mark.parametrize("dims,slab_points", [((12, 16, 8), 5 * 16 * 8),
                                                  ((4, 6, 10), 3 * 6 * 10)])
    def test_slabs_match_one_slab_bit_for_bit(self, monkeypatch, dims, slab_points):
        grid = TorusGrid(dims, (5.0, 7.0, 9.0))
        rng = np.random.default_rng(29)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng, amplitude=0.3, max_mode=2)
        whole = el_gradient(SpinorField(eta, pauli, grid), -0.7)
        monkeypatch.setattr(geometry_module, "_SLAB_POINTS", slab_points)
        sizes = [len(range(dims[0])[sl]) for sl in geometry_module._slabs(dims)]
        assert sum(sizes) == dims[0] and len(set(sizes)) == 2
        assert np.array_equal(el_gradient(SpinorField(eta, pauli, grid), -0.7), whole)

    def test_probe_blocks_match_one_block_bit_for_bit(self, monkeypatch):
        # 40 probes on (12,16,8) are one block; at 15 probes a block they
        # are three, the last short. With a probe that cancels eta at p
        # in the second block, the same field raises the same error
        grid = TorusGrid((12, 16, 8), (5.0, 7.0, 9.0))
        rng = np.random.default_rng(41)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng, amplitude=0.3, max_mode=2)
        c = float(np.cbrt(np.finfo(float).eps))
        p = (3, 0, 7)
        eta[p] = (c / (1.0 - c), 0.0)  # the minus Re probe of eta_1 at p zeroes it
        good = [probe for probe in _probes(_sample_dofs(eta, 40, seed=3)) if probe[0] != p]
        failing = _as_dofs(good[:20] + [(p, 0, 0)] + good[20:])
        args = (eta, -0.7, pauli, grid)
        assert _probe_block(grid) >= len(good) + 1
        whole = _fd_at_dofs(*args, _as_dofs(good))
        with pytest.raises(VanishingSpinor) as one_block:
            _fd_at_dofs(*args, failing)
        monkeypatch.setattr(geometry_module, "_SLAB_POINTS",
                            15 * 4 * _line_stencil(grid)[0].shape[1])
        assert _probe_block(grid) == 15 and 30 < len(good) < 45  # index 20: the second block
        values = _fd_at_dofs(*args, _as_dofs(good))
        assert np.array_equal(values.view(np.uint64), whole.view(np.uint64))
        with pytest.raises(VanishingSpinor) as blocks:
            _fd_at_dofs(*args, failing)
        assert str(blocks.value) == str(one_block.value)

    def test_memory_with_the_field_derivative_cached(self):
        # (16,32,32) holds two slabs. Above its inputs, a call on a field
        # whose sigma^a d_a eta and A are cached peaks at 1.82 times the
        # spinor's bytes: G eta, its sigma^a d_a (the output), G and slab
        # buffers (2.32 as one slab). The whole-grid sums peaked at 5.64
        grid = TorusGrid((16, 32, 32), (5.0, 7.0, 9.0))
        assert len(geometry_module._slabs(grid.shape)) == 2
        rng = np.random.default_rng(71)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        field = SpinorField(random_nonvanishing_spinor(grid, rng, amplitude=0.15, max_mode=1),
                            pauli, grid)
        el_gradient(field, 1.0)  # one-time allocations untraced
        tracemalloc.start()
        try:
            el_gradient(field, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * field.eta.nbytes


class TestLocalFiniteDifferences:
    """The FD gradient evaluates each probe on the three grid lines
    through its point; the full-grid evaluation is the oracle."""

    @pytest.mark.parametrize("dims,box,plane_wave", [
        ((8, 8, 8), (TWO_PI,) * 3, None),
        ((12, 12, 12), (TWO_PI,) * 3, None),
        ((4, 6, 8), (5.0, 7.0, 9.0), None),
        ((8, 8, 8), (TWO_PI,) * 3, (3, 1, 0)),
        ((12, 12, 12), (TWO_PI,) * 3, (5, -1, 2)),
        ((4, 6, 8), (5.0, 7.0, 9.0), (1, 2, -3)),
        ((16, 16, 16), (TWO_PI,) * 3, (7, 1, 0)),
    ])
    def test_matches_full_grid_oracle(self, dims, box, plane_wave):
        grid = TorusGrid(dims, box)
        rng = np.random.default_rng(sum(dims))
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        if plane_wave is None:
            eta, p0 = random_nonvanishing_spinor(grid, rng, max_mode=1), 0.8
        else:
            spec, wave = planewave_solution(plane_wave, 1, pauli, grid)
            eta, p0 = wave.eta, abs(spec.p0)
        dofs = _join(_edge_dofs(grid), _sample_dofs(eta, 16, seed=7))
        local = _fd_at_dofs(eta, p0, pauli, grid, dofs)
        oracle = _full_grid_fd(eta, p0, pauli, grid, dofs)
        scale = _gradient_scale(SpinorField(eta, pauli, grid), p0)
        assert np.abs(local - oracle).max() <= 1e-9 * scale

    @pytest.mark.parametrize("dims,box", [
        ((4, 4, 4), (TWO_PI,) * 3),
        ((6, 6, 6), (TWO_PI,) * 3),
        ((4, 6, 8), (5.0, 7.0, 9.0)),
    ])
    def test_every_dof_matches_analytic_gradient(self, dims, box):
        grid = TorusGrid(dims, box)
        rng = np.random.default_rng(11)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng, max_mode=1)
        assert el_gradient_fd_check(SpinorField(eta, pauli, grid), 0.5,
                                    probes=4 * grid.num_points, seed=2) <= 1e-7

    def test_guards_of_full_grid_path_still_fire(self, grid8):
        rng = np.random.default_rng(13)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid8, rng)
        with pytest.raises(ZeroFrequency):
            el_residual_fd(SpinorField(eta, pauli, grid8), 0.0, probes=4)
        with pytest.raises(ZeroFrequency):
            el_residual(SpinorField(eta, pauli, grid8), 0.0)
        with pytest.raises(ZeroFrequency):
            el_gradient(SpinorField(eta, pauli, grid8), 0.0)
        near_zero = eta.copy()
        near_zero[2, 5, 7] *= 1e-7
        with pytest.raises(VanishingSpinor):
            el_residual_fd(SpinorField(near_zero, pauli, grid8), 0.8, probes=8)
        # a set with complex v cannot be built, so no probe checks v
        with pytest.raises(NotHermitian):
            dataclasses.replace(pauli, sigma_lower=1j * pauli.sigma_lower)

    @pytest.mark.parametrize("amplitude,raises", [(1.0, False), (10.0, True)])
    def test_vanishing_floor_is_relative_to_perturbed_field(self, grid8, amplitude,
                                                            raises):
        # eta vanishes at one point; probing there lifts s to step^2 ~ 3.7e-11,
        # which is above the 1e-12 floor for max s = 1 and below it for 100
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = amplitude
        eta[3, 0, 7] = 0.0
        metric = Metric3.identity()
        args = (0.8, build_pauli(metric), grid8, _as_dofs([((3, 0, 7), 0, 0)]))
        for fd in (_fd_at_dofs, _full_grid_fd):
            if raises:
                with pytest.raises(VanishingSpinor):
                    fd(eta, *args)
            else:
                assert np.isfinite(fd(eta, *args)).all()


def _random_case(grid, seed, plane_wave=None):
    """(eta, p0, pauli, metric): a random nonvanishing spinor, or a
    plane-wave solution of mode ``plane_wave``, on a random SPD metric."""
    rng = np.random.default_rng(seed)
    metric = random_spd_metric(rng)
    pauli = build_pauli(metric)
    if plane_wave is None:
        return random_nonvanishing_spinor(grid, rng, max_mode=1), 0.8, pauli, metric
    spec, wave = planewave_solution(plane_wave, 1, pauli, grid)
    return wave.eta, abs(spec.p0), pauli, metric


class TestBatchedProbes:
    """All probes of a block go through one array pass; the per-probe
    loop is the oracle. The arithmetic per probe is the loop's, so the
    two agree to the last bit on numpy's elementwise kernels; the bound
    leaves room for an einsum kernel that sums in another order."""

    @staticmethod
    def _assert_matches_loop(eta, p0, pauli, grid, dofs):
        batched = _fd_at_dofs(eta, p0, pauli, grid, dofs)
        loop = _per_probe_fd(eta, p0, pauli, grid, dofs)
        scale = _gradient_scale(SpinorField(eta, pauli, grid), p0)
        assert batched.shape == loop.shape == (len(dofs[1]),)
        assert np.abs(batched - loop).max() <= 1e-15 * scale

    @pytest.mark.parametrize("dims,box,plane_wave", [
        ((8, 8, 8), (TWO_PI,) * 3, None),
        ((4, 6, 8), (5.0, 7.0, 9.0), None),
        ((12, 16, 8), (TWO_PI,) * 3, (2, -1, 3)),
    ])
    def test_matches_per_probe_loop(self, dims, box, plane_wave):
        grid = TorusGrid(dims, box)
        eta, p0, pauli, _ = _random_case(grid, sum(dims), plane_wave)
        edges = _edge_dofs(grid)
        sample = _sample_dofs(eta, 24, seed=5)
        for dofs in (edges,
                     _join(sample, sample, tuple(a[::-1] for a in edges)),  # duplicates
                     tuple(a[3:4] for a in sample),  # a single dof
                     _sample_dofs(eta, 2 * _probe_block(grid) + 5, seed=8)):  # three blocks
            self._assert_matches_loop(eta, p0, pauli, grid, dofs)

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(*[st.integers(2, 6).map(lambda half: 2 * half)] * 3),
           st.tuples(*[st.floats(0.5, 10.0)] * 3),
           st.integers(0, 2**31 - 1))
    def test_matches_per_probe_loop_on_any_grid(self, dims, box, seed):
        grid = TorusGrid(dims, box)
        eta, p0, pauli, _ = _random_case(grid, seed)
        dofs = _join(_edge_dofs(grid), _sample_dofs(eta, 40, seed=seed))
        self._assert_matches_loop(eta, p0, pauli, grid, dofs)

    def test_sampled_dofs_are_the_flat_draw(self, grid8):
        # the probed dofs are those of rng.choice over the flat
        # (point, component, Re/Im) index, as the per-probe loop decoded it
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        picks = np.random.default_rng(3).choice(eta.size * 2, size=50, replace=False)
        expected = [(np.unravel_index(flat // 4, grid8.dims), (flat // 2) % 2, flat % 2)
                    for flat in picks]
        assert _probes(_sample_dofs(eta, 50, seed=3)) == [
            (tuple(int(i) for i in point), int(comp), int(part))
            for point, comp, part in expected]
        assert len(_sample_dofs(eta, 10**6, seed=3)[0]) == eta.size * 2

    @pytest.mark.parametrize("position", [5, _SECOND_BLOCK_8])
    def test_vanishing_probe_after_good_ones_raises(self, grid8, position):
        # eta = (v, 0) at p with v = step(v): the minus probe of Re eta_1
        # at p cancels eta there, while every other probe leaves the
        # field above the floor
        c = float(np.cbrt(np.finfo(float).eps))
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = 1.0
        p = (3, 0, 7)
        eta[p + (0,)] = c / (1.0 - c)
        args = (0.8, build_pauli(Metric3.identity()), grid8)
        good = [probe for probe in _probes(_sample_dofs(eta, position, seed=1))
                if probe[0] != p]
        dofs = _as_dofs(good + [(p, 0, 0)] + good[:3])
        for fd in (_fd_at_dofs, _per_probe_fd):
            assert np.isfinite(fd(eta, *args, _as_dofs(good))).all()
            with pytest.raises(VanishingSpinor):
                fd(eta, *args, dofs)

    @pytest.mark.parametrize("raised", [True, False])
    def test_floor_is_relative_to_each_perturbed_max(self, grid8, raised):
        # eta = (a, 0) at p and s = m elsewhere, with v = step(v):
        # - raised: a = v, m = 1.5e-12 v^2; an Im probe lifts s(p) to
        #   2 v^2 in both fields, whose floor 2e-12 v^2 is above m;
        # - lowered: a = v (1 + 5e-7), m = 0.1 v^2; the minus Re probe
        #   drops s(p) to about 2.5e-13 v^2, 2.5e-12 of that field's max
        #   m, but only 2.5e-13 of the unperturbed max a^2.
        # The unperturbed field clears the floor in both cases.
        c = float(np.cbrt(np.finfo(float).eps))
        v = c / (1.0 - c)
        if raised:
            a, m, part = v, 1.5e-12 * v * v, 1
        else:
            a, m, part = v * (1.0 + 5e-7), 0.1 * v * v, 0
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = np.sqrt(m)
        p = (2, 5, 1)
        eta[p + (0,)] = a
        metric = Metric3.identity()
        pauli = build_pauli(metric)
        lagrangian_stationary(eta, 0.8, pauli, metric, grid8)
        for fd in (_fd_at_dofs, _per_probe_fd, _full_grid_fd):
            args = (eta, 0.8, pauli, grid8, _as_dofs([(p, 0, part)]))
            if raised:
                with pytest.raises(VanishingSpinor):
                    fd(*args)
            else:
                assert np.isfinite(fd(*args)).all()

    def test_first_failing_probe_sets_the_error(self, grid8):
        # the plus probes of Re eta_1 at p and at q both fail the floor,
        # each with its own min s: at p, where eta = (-v, 0) with
        # v = step(v), s drops to 0; at q, where eta = (-1.001 v, 0), to
        # (0.001 c)^2, about 3.7e-17. The probe given first raises.
        c = float(np.cbrt(np.finfo(float).eps))
        v = c / (1.0 - c)
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = 1.0
        p, q = (1, 6, 2), (0, 0, 0)
        eta[p + (0,)] = -v
        eta[q + (0,)] = -1.001 * v
        args = (eta, 0.8, build_pauli(Metric3.identity()), grid8)
        for fd in (_fd_at_dofs, _per_probe_fd):
            for first, min_s in ((p, r"0\.000e\+00,"), (q, r"3\.66.e-17,")):
                second = q if first == p else p
                with pytest.raises(VanishingSpinor, match=f"min s = {min_s}"):
                    fd(*args, _as_dofs([(first, 0, 0), (second, 0, 0)]))

    @pytest.mark.parametrize("second_min,raises", [(5e-13, True), (2e-12, False)])
    def test_floor_through_the_second_minimum(self, grid8, second_min, raises):
        # a probe on the argmin p of s, where eta = (1e-9, 0): its Im probe
        # lifts s(p) to about step^2, 3.7e-11, so the perturbed field's
        # least s is the second minimum, at q. Below the floor (1e-12 of
        # max s = 1) the probe raises with that min s; above it, it passes.
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = 1.0
        p, q = (3, 0, 7), (5, 5, 5)
        eta[p + (0,)] = 1e-9
        eta[q + (0,)] = np.sqrt(second_min)
        assert np.argmin(_scalar_density(eta)) == np.ravel_multi_index(p, grid8.dims)
        args = (eta, 0.8, build_pauli(Metric3.identity()), grid8, _as_dofs([(p, 0, 1)]))
        for fd in (_fd_at_dofs, _per_probe_fd, _full_grid_fd):
            if raises:
                with pytest.raises(VanishingSpinor, match=r"min s = 5\.000e-13,"):
                    fd(*args)
            else:
                assert np.isfinite(fd(*args)).all()

    def test_stencil_built_once_per_grid(self, monkeypatch):
        calls = []
        original = weyl_module.spectral_partial
        monkeypatch.setattr(weyl_module, "spectral_partial",
                            lambda *args: calls.append(1) or original(*args))
        _line_stencil.cache_clear()
        dims, box = (6, 4, 8), (3.0, 5.0, 7.0)
        for seed in (0, 1):  # two fields on two equal grids
            grid = TorusGrid(dims, box)
            eta, p0, pauli, _ = _random_case(grid, seed)
            el_residual_fd(SpinorField(eta, pauli, grid), p0, probes=4, seed=seed)
        assert len(calls) == 3  # one kernel per axis
        offsets, weights = _line_stencil(TorusGrid(dims, box))
        assert not offsets.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize("probes", [0, -2])
    def test_probe_count_below_one_rejected(self, grid8, probes):
        eta, p0, pauli, _ = _random_case(grid8, 3)
        with pytest.raises(ValueError, match="probes must be at least 1"):
            el_residual_fd(SpinorField(eta, pauli, grid8), p0, probes=probes)
        with pytest.raises(ValueError, match="probes must be at least 1"):
            el_gradient_fd_check(SpinorField(eta, pauli, grid8), p0, probes=probes)


_NEAR_VANISHING_GRIDS = [((4, 4, 4), (TWO_PI,) * 3),
                         ((12, 16, 8), (TWO_PI, 3.0, 5.0)),
                         ((4, 6, 8), (5.0, 7.0, 9.0))]


class TestNearVanishingSpinors:
    """A random nonvanishing spinor with one point scaled by
    10^U(-8, -4), so that min s / max s falls on either side of the
    1e-12 floor. Every function of the field returns finite values, or
    raises the typed error of the floor; it raises exactly when
    `_vanishing(s)` holds. The FD probes evaluate perturbed fields, so
    they raise exactly when one of those vanishes (the full-grid oracle
    says which), and so always when the field itself does; some land on
    the argmin of s."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_NEAR_VANISHING_GRIDS), st.integers(0, 2**31 - 1),
           st.floats(-8.0, -4.0))
    @example(_NEAR_VANISHING_GRIDS[0], 1, -8.0)   # below the floor
    @example(_NEAR_VANISHING_GRIDS[1], 2, -4.0)   # above it
    def test_finite_or_typed_error(self, case, seed, log10_scale):
        grid = TorusGrid(*case)
        eta, p0, pauli, metric = _random_case(grid, seed)
        # the probes el_residual_fd draws for this seed; plant at the first
        dofs = _sample_dofs(eta, 16, seed)
        eta[tuple(dofs[0][0])] *= 10.0 ** log10_scale
        s = _scalar_density(eta)
        assert np.argmin(s) == np.ravel_multi_index(tuple(dofs[0][0]), grid.dims)
        vanishing = bool(_vanishing(s))
        fresh = lambda: SpinorField(eta, pauli, grid)  # a field per call
        calls = {
            "lagrangian_stationary": lambda: lagrangian_stationary(eta, p0, pauli, metric, grid),
            "factorization_residual": lambda: factorization_residual(fresh(), p0),
            "el_gradient": lambda: el_gradient(fresh(), p0),
            "spinor_to_frame": lambda: spinor_to_frame(fresh())[0],
        }
        for name, call in calls.items():
            if vanishing:
                with pytest.raises((VanishingSpinor, DegenerateDenominator)):
                    call()
            else:
                assert np.isfinite(call()).all(), name
        try:
            _full_grid_fd(eta, p0, pauli, grid, dofs)
            perturbed_vanishing = False
        except VanishingSpinor:
            perturbed_vanishing = True
        assert perturbed_vanishing or not vanishing
        if perturbed_vanishing:
            with pytest.raises(VanishingSpinor):
                el_residual_fd(fresh(), p0, probes=16, seed=seed)
        else:
            assert np.isfinite(el_residual_fd(fresh(), p0, probes=16, seed=seed))


class TestNonFiniteSpinors:
    """One NaN or infinity at one grid point fails the nonvanishing
    floor, whose comparison a NaN fails: every function of the field
    raises VanishingSpinor instead of returning NaN. The FD probes check
    the floor of each perturbed field on the probes' own arrays."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_typed_error(self, grid8, value):
        eta, p0, pauli, metric = _random_case(grid8, 0)
        eta[1, 2, 3, 0] = value
        fresh = lambda: SpinorField(eta, pauli, grid8)  # a field per call
        calls = {
            "lagrangian_stationary": lambda: lagrangian_stationary(eta, p0, pauli, metric, grid8),
            "lagrangian_weyl": lambda: lagrangian_weyl(fresh(), p0, 1),
            "el_gradient": lambda: el_gradient(fresh(), p0),
            "el_residual_fd": lambda: el_residual_fd(fresh(), p0, probes=16),
            "spinor_to_frame": lambda: spinor_to_frame(fresh()),
        }
        for name, call in calls.items():
            with pytest.raises(VanishingSpinor, match="not finite"):
                call()
                pytest.fail(name)


def _witness_pair(grid, k, seed=4):
    """(pair, p0): a plane wave of modes ``k`` and its perturbed
    twin, one stack of two fields as the witness builds each case."""
    metric = random_spd_metric(np.random.default_rng(seed))
    spec, wave = planewave_solution(k, 1, build_pauli(metric), grid)
    pair = SpinorField(geometry_module._component_planes((2,) + grid.shape), wave.pauli, grid)
    pair.eta[...] = wave.eta
    pair.eta[1] += random_bandlimited_spinor(grid, np.random.default_rng(seed + 1), amplitude=0.1)
    return pair, abs(spec.p0)


class TestFloorOncePerField:
    """The nonvanishing floor is checked once per field that passes it,
    whichever checks read the field, and on every call for a field that
    fails it: the failure is raised, not cached."""

    def test_residuals_check_each_field_once(self, grid8, count_calls):
        # a witness case is one stack of the wave and its twin: the floor
        # is checked once on each, the wave first
        checks = count_calls("_check_nonvanishing", spinor_module, weyl_module)
        pair, p0 = _witness_pair(grid8, (1, -1, 2))
        weyl_module._residuals(pair, p0, 1, fd_seed=3)
        assert len(checks) == 2  # three checks read each field
        for (args, _), s in zip(checks, pair.s):
            assert np.shares_memory(args[0], s) and np.array_equal(args[0], s)

    def test_the_twin_raises_its_own_error_after_the_wave(self, grid8):
        # a twin below the floor fails with its own min s, and the wave
        # below it fails first, with its own
        for wave_too, min_s in ((False, r"0\.000e\+00"), (True, r"1\.000e-18")):
            pair, p0 = _witness_pair(grid8, (1, -1, 2))
            pair.eta[1, 2, 3, 4] = 0.0
            if wave_too:
                pair.eta[0, 1, 1, 1] = (1e-9, 0.0)
            with pytest.raises(VanishingSpinor, match=f"min s = {min_s},"):
                weyl_module._residuals(pair, p0, 1, fd_seed=3)

    def test_a_vanishing_field_raises_on_every_call(self, grid8, count_calls):
        checks = count_calls("_check_nonvanishing", spinor_module, weyl_module)
        eta, p0, pauli, metric = _random_case(grid8, 2)
        eta[1, 2, 3] = 0.0
        field = SpinorField(eta, pauli, grid8)
        calls = [lambda: lagrangian_stationary(field, p0, pauli, metric, grid8),
                 lambda: lagrangian_weyl(field, p0, -1),
                 lambda: el_gradient(field, p0)]
        for call in calls + calls:
            with pytest.raises(VanishingSpinor, match="min s = 0.000e"):
                call()
        assert len(checks) == 2 * len(calls)


class TestWitnessSuite:
    def test_small_suite_passes_and_is_consistent(self, grid8, identity_metric):
        report = theorem_witness_suite(3, grid8, identity_metric, n_cases=2)
        assert report["verdict"] == "pass"
        solutions = [c for c in report["cases"] if c["kind"] == "solution"]
        perturbed = [c for c in report["cases"] if c["kind"] == "perturbed"]
        assert len(solutions) == 4 and len(perturbed) == 4
        for c in solutions:
            assert c["weyl_residual"] <= 1e-12
            assert c["el_residual"] <= 1e-8
            assert c["L_max"] <= 1e-12 and c["Lpm_max"] <= 1e-12
        for c in perturbed:
            assert c["el_residual"] >= 1e-3 and c["weyl_residual"] >= 1e-3
        assert set(report["branch_pairing"]) == {"branch+1", "branch-1"}
        assert report["config"]["fd_probes"] == 16
        assert report["config"]["max_mode"] == 3
        assert report["config"]["perturb"] == 0.1
        gates = ("weyl_tol", "el_tol", "lagrangian_tol", "nonsolution_floor")
        assert [report["config"][g] for g in gates] == [1e-12, 1e-8, 1e-12, 1e-3]

    def test_one_spectral_gradient_per_field(self, grid8, count_calls):
        # each case's stack of a solution field and its perturbed twin
        # gets sigma^a d_a once, shared by every residual of both fields
        # (the FD probes of the solution included), and once more for the
        # stack of G eta in their EL gradients
        dirac = count_calls("_dirac", spinor_module, weyl_module)
        metric = random_spd_metric(np.random.default_rng(4))
        report = theorem_witness_suite(4, grid8, metric, n_cases=2)
        kinds = [c["kind"] for c in report["cases"]]
        assert kinds.count("solution") == kinds.count("perturbed") == 4
        assert len(dirac) == 2 * kinds.count("solution")
        assert all(args[0].shape == (2,) + grid8.shape + (2,) for args, _ in dirac)

    def test_a_stack_gives_each_fields_residuals(self):
        # the residuals and density of each field of a case's stack, to the
        # last bit, are those of the field evaluated alone
        grid = TorusGrid((12, 16, 8), (5.0, 7.0, 9.0))
        pair, p0 = _witness_pair(grid, (1, -2, 1), seed=6)
        cases, lag = weyl_module._residuals(pair, p0, -1, fd_seed=3)
        assert "el_residual_fd" in cases[0] and "el_residual_fd" not in cases[1]
        for i, fd_seed in ((0, 3), (1, None)):
            alone = SpinorField(geometry_module._component_planes(grid.shape), pair.pauli, grid)
            alone.eta[...] = pair.eta[i]
            (expected,), expected_lag = weyl_module._residuals(alone[np.newaxis], p0, -1, fd_seed)
            assert list(cases[i].items()) == list(expected.items())
            assert np.array_equal(lag[i], expected_lag[0])

    def test_memory_of_one_case_at_16(self, grid16):
        # a plane wave and its perturbed twin per sign, evaluated as one
        # stack of two fields, peak at 10.21 times one spinor field's bytes
        # (1.28 MiB at 16^3); evaluated one after the other, at 10.72
        metric = random_spd_metric(np.random.default_rng(2))
        theorem_witness_suite(2, grid16, metric, n_cases=1)  # one-time allocations untraced
        tracemalloc.start()
        try:
            theorem_witness_suite(2, grid16, metric, n_cases=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.72 * grid16.num_points * 2 * 16

    def test_fd_probes_run_once_per_solution_case(self, grid8, count_calls):
        # the weyl.el_residual_fd span of a traced theorem job counts
        # exactly these calls: one per solution case, none on a perturbed one
        fd = count_calls("el_residual_fd", weyl_module)
        metric = random_spd_metric(np.random.default_rng(6))
        report = theorem_witness_suite(5, grid8, metric, n_cases=3)
        solutions = [c for c in report["cases"] if c["kind"] == "solution"]
        perturbed = [c for c in report["cases"] if c["kind"] == "perturbed"]
        assert len(fd) == len(solutions) == len(perturbed) == 6
        assert not any("el_residual_fd" in c for c in perturbed)
        for (args, kwargs), case in zip(fd, solutions):
            field, p0 = args[:2]
            assert kwargs["probes"] == weyl_module._FD_PROBES
            assert p0 == case["p0"]
            assert weyl_residual_norm(field, p0, case["branch"], field.pauli, grid8) \
                == case["weyl_residual"]

    def test_verdict_is_every_case_passes(self, grid8, monkeypatch):
        # a perturbed field planted as stationary, though no solution,
        # fails its case and so the verdict: the verdict adds no gate of
        # its own, with or without the plant
        residuals = weyl_module._residuals
        planted = []

        def plant(fields, p0, sign, fd_seed=None):
            (res, bad), lag = residuals(fields, p0, sign, fd_seed)
            if not planted:  # the first perturbed case, the first stack's twin
                planted.append(bad)
                bad = {**bad, "el_residual": 0.0}
            return [res, bad], lag

        for seed in range(3):
            metric = random_spd_metric(np.random.default_rng(seed))
            clean = theorem_witness_suite(seed, grid8, metric, n_cases=2)
            with monkeypatch.context() as m:
                m.setattr(weyl_module, "_residuals", plant)
                planted.clear()
                report = theorem_witness_suite(seed, grid8, metric, n_cases=2)
            assert planted and planted[0]["weyl_residual"] >= NONSOLUTION_FLOOR
            assert report["verdict"] == "fail" and clean["verdict"] == "pass"
            for r in (clean, report):
                assert (r["verdict"] == "pass") == all(c["pass"] for c in r["cases"])
            assert [c["pass"] for c in report["cases"]].count(False) == 1

    def test_out_of_range_perturbation_raises_before_any_case(self, identity_metric,
                                                              count_calls):
        # the wave k = (0, 0, 2) seed 1 draws first is within its own
        # bound; the perturbation's modes reach the short axis and are not
        waves = count_calls("planewave_solution", weyl_module)
        grid = TorusGrid((32, 32, 32), (1e-152, 1.0, 1.0))
        with pytest.raises(OutOfRange, match="perturbation's modes"):
            theorem_witness_suite(1, grid, identity_metric, n_cases=1)
        assert waves == []

    def test_report_is_json_serialisable(self, grid8, identity_metric):
        import json

        report = theorem_witness_suite(1, grid8, identity_metric, n_cases=1)
        json.dumps(report)

    @pytest.mark.parametrize("dims,box", [((4, 4, 4), (TWO_PI,) * 3),
                                          ((4, 6, 8), (5.0, 7.0, 9.0))])
    def test_modes_stay_below_nyquist_on_small_grids(self, dims, box):
        # mode 3 reaches the Nyquist mode of an axis below 8 points, where
        # an exact plane wave aliases and fails its Weyl residual
        grid = TorusGrid(dims, box)
        for seed in range(3):
            metric = random_spd_metric(np.random.default_rng(seed))
            report = theorem_witness_suite(seed, grid, metric, n_cases=8)
            assert report["config"]["max_mode"] == 1
            assert max(abs(m) for c in report["cases"] for m in c["k"]) <= 1
            assert report["verdict"] == "pass", seed


class _Accepted(Exception):
    """Raised in place of the witness's first plane wave."""


def _stop(*args, **kwargs):
    raise _Accepted


class TestTwinFrequencyBound:
    """The witness's perturbed twins (a plane wave plus its perturbation)
    on boxes (L1, 1, 1) it accepts, from the step of its frequency bound
    up to twice it, compute every residual with no RuntimeWarning (the
    test settings make one an error). The waves have k1 = 0, so only the
    perturbation's modes reach the short axis: the bound at its corner
    modes is what keeps the twins in range. The step is found from the
    suite itself; a bound scaled by the perturbation's amplitude, ten
    times tighter in L1, puts it where about a fifth of these twins
    overflow."""

    WAVES = [(0, 1, 0), (0, 0, 1), (0, 3, -2), (0, 1, 1)]

    @staticmethod
    def _step(dims, metric, monkeypatch) -> float:
        """The least L1 (to a relative 1e-6) at which the witness draws a case."""
        def accepts(l1):
            with monkeypatch.context() as m:
                m.setattr(weyl_module, "planewave_solution", _stop)
                try:
                    theorem_witness_suite(0, TorusGrid(dims, (l1, 1.0, 1.0)), metric, n_cases=1)
                except _Accepted:
                    return True
                except OutOfRange:
                    return False
            raise AssertionError("the witness neither drew a case nor raised")

        lo, hi = 1e-160, 1e-140
        assert not accepts(lo) and accepts(hi)
        while hi > lo * (1.0 + 1e-6):
            mid = np.sqrt(lo * hi)
            lo, hi = (lo, mid) if accepts(mid) else (mid, hi)
        return hi

    @pytest.mark.parametrize("dims", [(8, 8, 8), (16, 16, 16)])
    @pytest.mark.parametrize("metric", [Metric3.identity(), Metric3.from_matrix(
        [[1.3, 0.2, -0.1], [0.2, 0.9, 0.15], [-0.1, 0.15, 1.1]])], ids=["identity", "full"])
    def test_no_warning_from_the_step_to_twice_it(self, dims, metric, monkeypatch):
        step = self._step(dims, metric, monkeypatch)
        pauli = build_pauli(metric)
        for factor in (1.0, 1.4, 2.0):
            grid = TorusGrid(dims, (step * factor, 1.0, 1.0))
            for k in self.WAVES:
                for branch in (1, -1):
                    spec, field = planewave_solution(k, branch, pauli, grid)
                    for seed in range(3):
                        noise = random_bandlimited_spinor(
                            grid, np.random.default_rng(seed),
                            max_mode=weyl_module._PERTURB_MAX_MODE, amplitude=weyl_module._PERTURB)
                        twin = SpinorField(field.eta + noise, field.pauli, grid)
                        (res,), _ = weyl_module._residuals(twin[np.newaxis], abs(spec.p0), branch)
                        assert all(np.isfinite(v) for v in res.values())
