"""Plane-wave Weyl solutions, the dispersion relation, variational
gradients and the solution/stationary-point witness suite."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosserat_weyl import (
    Metric3,
    SpinorField,
    TorusGrid,
    VanishingSpinor,
    ZeroFrequency,
    ZeroWavevector,
    build_pauli,
    el_gradient,
    el_gradient_fd_check,
    el_residual,
    lagrangian_stationary,
    planewave_solution,
    theorem_witness_suite,
    weyl_residual,
    weyl_residual_norm,
)
import cosserat_weyl.spinor as spinor_module
import cosserat_weyl.weyl as weyl_module
from cosserat_weyl.geometry import integrate, spectral_partial
from cosserat_weyl.sampling import random_nonvanishing_spinor, random_spd_metric
from cosserat_weyl.spinor import (
    _axial_density,
    _check_nonvanishing,
    _check_real_covector,
    _nonvanishing,
    _sandwich,
    _scalar_density,
    _stationary_density,
)
from cosserat_weyl.weyl import (
    _FD_BLOCK,
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


def _per_axis_slash(eta, sigma, grid):
    """sigma^a d_a eta as the einsum of sigma^a with the stack of the
    three per-axis spectral partials of eta."""
    deta = np.stack([spectral_partial(eta, a, grid) for a in (1, 2, 3)])
    return np.einsum("nab,n...b->...a", sigma, deta)


def _per_axis_lagrangian(eta, p0, pauli, metric, grid):
    """`lagrangian_stationary`, guards included, with sigma^a d_a eta
    taken as sigma^a applied to the stack of per-axis spectral partials:
    the discrete action the local stencil differentiates exactly. (The
    production path applies sigma^a d_a as one 3-D Fourier symbol, which
    rounds every point differently; the FD step would amplify that.)"""
    if p0 == 0.0:
        raise ZeroFrequency("p0 must be nonzero")
    field = _nonvanishing(eta, pauli, grid)
    axial = _axial_density(eta, _per_axis_slash(eta, pauli.sigma_upper, grid))
    return _stationary_density(field.s, axial, p0, metric)


def _full_grid_fd(eta, p0, pauli, metric, grid, dofs):
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
        diff = _per_axis_lagrangian(plus, p0, pauli, metric, grid) \
            - _per_axis_lagrangian(minus, p0, pauli, metric, grid)
        values.append(integrate(diff, grid) / (2.0 * step) / (2.0 * grid.cell_volume))
    return np.array(values)


def _per_probe_fd(eta, p0, pauli, metric, grid, dofs):
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
            at_p = eta_pm[k, 0]
            _check_nonvanishing(np.array([s_pm[k, 0], s_flat[lo], s_flat[hi]]))
            _check_real_covector(_sandwich(at_p, pauli.sigma_lower, at_p),
                                 max(s_pm[k, 0], s_flat[hi], np.finfo(float).tiny))
        axial = _axial_density(eta_pm, slash_pm)
        lag_pm = _stationary_density(s_pm, axial, p0, metric)
        grad = integrate(lag_pm[0] - lag_pm[1], grid) / (2.0 * step)
        values.append(grad / (2.0 * grid.cell_volume))
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
            weyl_residual(eta, 1.0, 0, pauli_identity, grid8)


class TestPlaneWaves:
    def test_axis_mode_identity_metric(self, grid8, identity_metric):
        spec, eta = planewave_solution((0, 0, 1), 1, identity_metric, grid8)
        assert spec.p0 == pytest.approx(1.0, abs=1e-14)
        assert spec.dispersion_residual <= 1e-13
        pauli = build_pauli(identity_metric)
        assert weyl_residual_norm(eta, spec.p0, 1, pauli, grid8) <= 1e-13

    def test_anisotropic_metric_frequency(self, grid8):
        # k = (0,0,1), g = diag(1,1,4): p0 = sqrt(g^33) = 1/2
        metric = Metric3.diagonal(1.0, 1.0, 4.0)
        spec, _ = planewave_solution((0, 0, 1), 1, metric, grid8)
        assert spec.p0 == pytest.approx(0.5, abs=1e-14)

    def test_diagonal_mode(self, grid8, identity_metric):
        spec, _ = planewave_solution((1, 1, 0), -1, identity_metric, grid8)
        assert spec.p0 == pytest.approx(-np.sqrt(2.0), abs=1e-13)

    def test_wrong_sign_residual_is_twice_p0(self, grid8, identity_metric):
        # exact solution of one equation misses the other by 2 |p0| sqrt(s)
        spec, eta = planewave_solution((0, 0, 2), 1, identity_metric, grid8)
        pauli = build_pauli(identity_metric)
        wrong = weyl_residual_norm(eta, spec.p0, -1, pauli, grid8)
        assert wrong == pytest.approx(2.0 * abs(spec.p0), rel=1e-12)

    def test_zero_mode_rejected(self, grid8, identity_metric):
        with pytest.raises(ZeroWavevector):
            planewave_solution((0, 0, 0), 1, identity_metric, grid8)
        with pytest.raises(ValueError):
            planewave_solution((0, 0, 1), 0, identity_metric, grid8)

    def test_dispersion_random_metrics(self, grid8):
        rng = np.random.default_rng(21)
        for _ in range(20):
            metric = random_spd_metric(rng)
            k = rng.integers(-3, 4, size=3)
            if not np.any(k):
                continue
            for branch in (1, -1):
                spec, field = planewave_solution(k, branch, metric, grid8)
                assert spec.dispersion_residual <= 1e-12
                # the wave solves the sign-+1 equation at its signed p0 and
                # misses the other one by 2 |p0| (|eta| = 1 pointwise)
                assert weyl_residual_norm(field, spec.p0, 1, field.pauli, grid8) <= 1e-12
                assert weyl_residual_norm(field, spec.p0, -1, field.pauli, grid8) \
                    == pytest.approx(2.0 * abs(spec.p0), rel=1e-12)


class TestVariationalGradient:
    def test_vanishes_at_plane_wave_solutions(self, grid16, identity_metric):
        pauli = build_pauli(identity_metric)
        for k, branch in (((0, 0, 1), 1), ((1, -2, 1), -1)):
            spec, eta = planewave_solution(k, branch, identity_metric, grid16)
            p0 = abs(spec.p0)
            assert el_residual(eta, p0, pauli, identity_metric, grid16,
                               mode="analytic") <= 1e-13
            assert el_residual(eta, p0, pauli, identity_metric, grid16,
                               mode="fd", probes=8, seed=1) <= 1e-8

    def test_nonzero_away_from_solutions(self, grid8, identity_metric):
        pauli = build_pauli(identity_metric)
        rng = np.random.default_rng(5)
        eta = random_nonvanishing_spinor(grid8, rng)
        assert el_residual(eta, 1.0, pauli, identity_metric, grid8) >= 1e-3

    def test_fd_agrees_with_analytic(self, grid8):
        rng = np.random.default_rng(9)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid8, rng, max_mode=1)
        assert el_gradient_fd_check(eta, 0.5, pauli, metric, grid8,
                                    probes=32, seed=3) <= 1e-7

    def test_gradient_shape_and_mode_validation(self, grid8, pauli_identity,
                                                identity_metric):
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = 1.0
        w = el_gradient(eta, 1.0, pauli_identity, identity_metric, grid8)
        assert w.shape == eta.shape
        with pytest.raises(ValueError):
            el_residual(eta, 1.0, pauli_identity, identity_metric, grid8,
                        mode="nope")


def _el_gradient_oracle(eta, p0, pauli, metric, grid):
    """The closed-form gradient with einsum contractions and the second
    term as d_a (G sigma^a eta), one axis at a time."""
    c = 16.0 / 9.0
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
        _, wave = planewave_solution((1, 2, 3), 1, metric, grid)
        for eta in (random_nonvanishing_spinor(grid, rng, max_mode=1),
                    wave.eta + random_nonvanishing_spinor(grid, rng, amplitude=0.1)):
            oracle = _el_gradient_oracle(eta, 0.8, pauli, metric, grid)
            w = el_gradient(eta, 0.8, pauli, metric, grid)
            assert np.abs(w - oracle).max() <= 1e-13 * np.abs(oracle).max()


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
            spec, wave = planewave_solution(plane_wave, 1, metric, grid)
            eta, p0 = wave.eta, abs(spec.p0)
        dofs = _join(_edge_dofs(grid), _sample_dofs(eta, 16, seed=7))
        local = _fd_gradient_at_dofs(eta, p0, pauli, metric, grid, dofs)
        oracle = _full_grid_fd(eta, p0, pauli, metric, grid, dofs)
        scale = _gradient_scale(SpinorField(eta, pauli, grid), p0, metric)
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
        assert el_gradient_fd_check(eta, 0.5, pauli, metric, grid,
                                    probes=4 * grid.num_points, seed=2) <= 1e-7

    def test_guards_of_full_grid_path_still_fire(self, grid8):
        rng = np.random.default_rng(13)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid8, rng)
        with pytest.raises(ZeroFrequency):
            el_residual(eta, 0.0, pauli, metric, grid8, mode="fd", probes=4)
        with pytest.raises(ZeroFrequency):
            el_residual(eta, 0.0, pauli, metric, grid8, mode="analytic")
        with pytest.raises(ZeroFrequency):
            el_gradient(eta, 0.0, pauli, metric, grid8)
        near_zero = eta.copy()
        near_zero[2, 5, 7] *= 1e-7
        with pytest.raises(VanishingSpinor):
            el_residual(near_zero, 0.8, pauli, metric, grid8, mode="fd", probes=8)
        complex_v = dataclasses.replace(pauli, sigma_lower=1j * pauli.sigma_lower)
        for fd in (_fd_gradient_at_dofs, _full_grid_fd):
            with pytest.raises(ValueError, match="reality check"):
                fd(eta, 0.8, complex_v, metric, grid8,
                   tuple(a[:1] for a in _edge_dofs(grid8)))

    @pytest.mark.parametrize("amplitude,raises", [(1.0, False), (10.0, True)])
    def test_vanishing_floor_is_relative_to_perturbed_field(self, grid8, amplitude,
                                                            raises):
        # eta vanishes at one point; probing there lifts s to step^2 ~ 3.7e-11,
        # which is above the 1e-12 floor for max s = 1 and below it for 100
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = amplitude
        eta[3, 0, 7] = 0.0
        metric = Metric3.identity()
        args = (0.8, build_pauli(metric), metric, grid8, _as_dofs([((3, 0, 7), 0, 0)]))
        for fd in (_fd_gradient_at_dofs, _full_grid_fd):
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
    spec, wave = planewave_solution(plane_wave, 1, metric, grid)
    return wave.eta, abs(spec.p0), pauli, metric


class TestBatchedProbes:
    """All probes of a block go through one array pass; the per-probe
    loop is the oracle. The arithmetic per probe is the loop's, so the
    two agree to the last bit on numpy's elementwise kernels; the bound
    leaves room for an einsum kernel that sums in another order."""

    @staticmethod
    def _assert_matches_loop(eta, p0, pauli, metric, grid, dofs):
        batched = _fd_gradient_at_dofs(eta, p0, pauli, metric, grid, dofs)
        loop = _per_probe_fd(eta, p0, pauli, metric, grid, dofs)
        scale = _gradient_scale(SpinorField(eta, pauli, grid), p0, metric)
        assert batched.shape == loop.shape == (len(dofs[1]),)
        assert np.abs(batched - loop).max() <= 1e-15 * scale

    @pytest.mark.parametrize("dims,box,plane_wave", [
        ((8, 8, 8), (TWO_PI,) * 3, None),
        ((4, 6, 8), (5.0, 7.0, 9.0), None),
        ((12, 16, 8), (TWO_PI,) * 3, (2, -1, 3)),
    ])
    def test_matches_per_probe_loop(self, dims, box, plane_wave):
        grid = TorusGrid(dims, box)
        eta, p0, pauli, metric = _random_case(grid, sum(dims), plane_wave)
        edges = _edge_dofs(grid)
        sample = _sample_dofs(eta, 24, seed=5)
        for dofs in (edges,
                     _join(sample, sample, tuple(a[::-1] for a in edges)),  # duplicates
                     tuple(a[3:4] for a in sample),  # a single dof
                     _sample_dofs(eta, 2 * _FD_BLOCK + 5, seed=8)):  # three blocks
            self._assert_matches_loop(eta, p0, pauli, metric, grid, dofs)

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(*[st.integers(2, 6).map(lambda half: 2 * half)] * 3),
           st.tuples(*[st.floats(0.5, 10.0)] * 3),
           st.integers(0, 2**31 - 1))
    def test_matches_per_probe_loop_on_any_grid(self, dims, box, seed):
        grid = TorusGrid(dims, box)
        eta, p0, pauli, metric = _random_case(grid, seed)
        dofs = _join(_edge_dofs(grid), _sample_dofs(eta, 40, seed=seed))
        self._assert_matches_loop(eta, p0, pauli, metric, grid, dofs)

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

    @pytest.mark.parametrize("position", [5, _FD_BLOCK + 3])
    def test_vanishing_probe_after_good_ones_raises(self, grid8, position):
        # eta = (v, 0) at p with v = step(v): the minus probe of Re eta_1
        # at p cancels eta there, while every other probe leaves the
        # field above the floor
        c = float(np.cbrt(np.finfo(float).eps))
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = 1.0
        p = (3, 0, 7)
        eta[p + (0,)] = c / (1.0 - c)
        metric = Metric3.identity()
        args = (0.8, build_pauli(metric), metric, grid8)
        good = [probe for probe in _probes(_sample_dofs(eta, position, seed=1))
                if probe[0] != p]
        dofs = _as_dofs(good + [(p, 0, 0)] + good[:3])
        for fd in (_fd_gradient_at_dofs, _per_probe_fd):
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
        for fd in (_fd_gradient_at_dofs, _per_probe_fd, _full_grid_fd):
            args = (eta, 0.8, pauli, metric, grid8, _as_dofs([(p, 0, part)]))
            if raised:
                with pytest.raises(VanishingSpinor):
                    fd(*args)
            else:
                assert np.isfinite(fd(*args)).all()

    def test_first_failing_probe_sets_the_error(self, grid8):
        # with a complex sigma_lower every probe fails the reality check;
        # the plus probe of Re eta_1 at p, where eta = (-v, 0) with
        # v = step(v), fails the floor before it
        c = float(np.cbrt(np.finfo(float).eps))
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = 1.0
        p = (1, 6, 2)
        eta[p + (0,)] = -c / (1.0 - c)
        metric = Metric3.identity()
        pauli = build_pauli(metric)
        complex_v = dataclasses.replace(pauli, sigma_lower=1j * pauli.sigma_lower)
        other = ((0, 0, 0), 1, 0)
        for fd in (_fd_gradient_at_dofs, _per_probe_fd):
            with pytest.raises(VanishingSpinor):
                fd(eta, 0.8, complex_v, metric, grid8, _as_dofs([(p, 0, 0), other]))
            with pytest.raises(ValueError, match="reality check"):
                fd(eta, 0.8, complex_v, metric, grid8, _as_dofs([other, (p, 0, 0)]))

    def test_stencil_built_once_per_grid(self, monkeypatch):
        calls = []
        original = weyl_module.spectral_partial
        monkeypatch.setattr(weyl_module, "spectral_partial",
                            lambda *args: calls.append(1) or original(*args))
        _line_stencil.cache_clear()
        dims, box = (6, 4, 8), (3.0, 5.0, 7.0)
        for seed in (0, 1):  # two fields on two equal grids
            grid = TorusGrid(dims, box)
            eta, p0, pauli, metric = _random_case(grid, seed)
            el_residual(eta, p0, pauli, metric, grid, mode="fd", probes=4, seed=seed)
        assert len(calls) == 3  # one kernel per axis
        offsets, weights = _line_stencil(TorusGrid(dims, box))
        assert not offsets.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize("probes", [0, -2])
    def test_probe_count_below_one_rejected(self, grid8, probes):
        eta, p0, pauli, metric = _random_case(grid8, 3)
        with pytest.raises(ValueError, match="probes must be at least 1"):
            el_residual(eta, p0, pauli, metric, grid8, mode="fd", probes=probes)
        with pytest.raises(ValueError, match="probes must be at least 1"):
            el_gradient_fd_check(eta, p0, pauli, metric, grid8, probes=probes)
        with pytest.raises(ValueError, match="fd_probes must be at least 1"):
            theorem_witness_suite(0, grid8, metric, n_cases=1, fd_probes=probes)


class TestWitnessSuite:
    def test_small_suite_passes_and_is_consistent(self, grid8, identity_metric):
        report = theorem_witness_suite(3, grid8, identity_metric, n_cases=2,
                                       max_mode=2, fd_probes=4)
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
        assert report["config"]["fd_probes"] == 4
        assert report["config"]["max_mode"] == 2
        gates = ("weyl_tol", "el_tol", "lagrangian_tol", "nonsolution_floor")
        assert [report["config"][g] for g in gates] == [1e-12, 1e-8, 1e-12, 1e-3]

    def test_one_spectral_gradient_per_field(self, grid8, count_calls):
        # each solution field and each perturbed field gets sigma^a d_a
        # once, shared by every residual of its case (the FD probes of
        # the solution cases included), and once more for G eta in its
        # EL gradient
        dirac = count_calls("_dirac", spinor_module, weyl_module)
        metric = random_spd_metric(np.random.default_rng(4))
        report = theorem_witness_suite(4, grid8, metric, n_cases=2, fd_probes=4)
        kinds = [c["kind"] for c in report["cases"]]
        assert kinds.count("solution") == 4
        assert len(dirac) == 2 * len(kinds)

    def test_report_is_json_serialisable(self, grid8, identity_metric):
        import json

        report = theorem_witness_suite(1, grid8, identity_metric, n_cases=1,
                                       max_mode=1, fd_probes=2)
        json.dumps(report)
