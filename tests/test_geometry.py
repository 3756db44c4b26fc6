"""Core geometry: metric, grid, Pauli matrices, spectral derivatives,
form norms, integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosserat_weyl import (
    InvalidAxis,
    Metric3,
    MetricNotSPD,
    TorusGrid,
    build_pauli,
    exterior_derivative,
    integrate,
    spectral_partial,
)
from cosserat_weyl.cosserat import _gram, _induced_det, kinetic_2form, kinetic_energy
from cosserat_weyl.geometry import PAULI_1, PAULI_2, PAULI_3, _norm2_2form, _norm2_3form
from cosserat_weyl.sampling import random_bandlimited_scalar, random_spd_metric

TWO_PI = 2.0 * np.pi


class TestMetric3:
    def test_identity(self):
        m = Metric3.identity()
        assert np.allclose(m.g_lower, np.eye(3))
        assert m.det_g == pytest.approx(1.0)

    def test_inverse_and_det(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_spd_metric(rng)
            assert np.abs(m.g_upper @ m.g_lower - np.eye(3)).max() <= 1e-14
            assert m.det_g > 0.0

    def test_rejects_non_spd(self):
        with pytest.raises(MetricNotSPD):
            Metric3.from_matrix(np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(MetricNotSPD):
            Metric3.from_matrix([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(MetricNotSPD):
            Metric3.from_matrix(np.zeros((2, 2)))


class TestTorusGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorusGrid((15, 16, 16), (1.0, 1.0, 1.0))  # odd
        with pytest.raises(ValueError):
            TorusGrid((2, 16, 16), (1.0, 1.0, 1.0))  # too small
        with pytest.raises(ValueError):
            TorusGrid((8, 8, 8), (1.0, -1.0, 1.0))  # bad box

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_rejects_non_finite_box(self, length):
        with pytest.raises(ValueError, match="finite"):
            TorusGrid((8, 8, 8), (1.0, length, 1.0))

    def test_wavenumbers_cached_and_read_only(self):
        g = TorusGrid((4, 6, 8), (5.0, 7.0, 9.0))
        k = g.wavenumber(2)
        assert k is g.wavenumber(2)
        assert k[3] == 0.0 and k[1] == pytest.approx(TWO_PI / 7.0)
        with pytest.raises(ValueError):
            k[1] = 0.0
        with pytest.raises(InvalidAxis):
            g.wavenumber(4)

    def test_cell_volume(self):
        g = TorusGrid((8, 4, 16), (1.0, 2.0, 4.0))
        assert g.cell_volume == pytest.approx((1 / 8) * (2 / 4) * (4 / 16))
        assert g.num_points == 8 * 4 * 16


class TestBuildPauli:
    def test_identity_metric_gives_standard_triple(self, identity_metric):
        p = build_pauli(identity_metric)
        assert np.allclose(p.sigma_upper[0], PAULI_1)
        assert np.allclose(p.sigma_upper[1], PAULI_2)
        assert np.allclose(p.sigma_upper[2], PAULI_3)
        anti12 = p.sigma_upper[0] @ p.sigma_upper[1] + p.sigma_upper[1] @ p.sigma_upper[0]
        assert np.abs(anti12).max() == 0.0
        assert np.allclose(p.sigma_upper[2] @ p.sigma_upper[2], np.eye(2))

    def test_diag_metric_scales_first_matrix(self):
        # g = diag(4,1,1): g_upper = diag(1/4,1,1) so sigma^1 = sigma_x / 2
        m = Metric3.diagonal(4.0, 1.0, 1.0)
        p = build_pauli(m)
        assert np.allclose(p.sigma_upper[0], PAULI_1 / 2.0)
        anti = p.sigma_upper[0] @ p.sigma_upper[0]
        assert np.allclose(anti, 0.25 * np.eye(2))
        s = p.sigma_upper
        anti = s[:, np.newaxis] @ s[np.newaxis] + s[np.newaxis] @ s[:, np.newaxis]
        target = 2.0 * m.g_upper[..., np.newaxis, np.newaxis] * np.eye(2)
        assert np.abs(anti - target).max() <= 1e-14

    def test_anticommutator_100_random_metrics(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = random_spd_metric(rng)
            s = build_pauli(m).sigma_upper
            # sigma^a sigma^b + sigma^b sigma^a for all (a, b) pairs at once
            anti = s[:, np.newaxis] @ s[np.newaxis] + s[np.newaxis] @ s[:, np.newaxis]
            target = 2.0 * m.g_upper[..., np.newaxis, np.newaxis] * np.eye(2)
            assert np.abs(anti - target).max() <= 1e-14

    def test_hermitian_and_lowering(self):
        rng = np.random.default_rng(3)
        m = random_spd_metric(rng)
        p = build_pauli(m)
        for a in range(3):
            assert np.abs(p.sigma_upper[a] - p.sigma_upper[a].conj().T).max() <= 1e-15
            lowered = sum(m.g_lower[a, b] * p.sigma_upper[b] for b in range(3))
            assert np.abs(p.sigma_lower[a] - lowered).max() <= 1e-15

    def test_rejects_non_spd(self):
        with pytest.raises(MetricNotSPD):
            build_pauli(Metric3.from_matrix(np.diag([1.0, 1.0, -2.0])))


class TestSpectralPartial:
    def test_constant_field(self, grid8):
        f = np.full(grid8.shape, 3.7)
        for axis in (1, 2, 3):
            assert np.abs(spectral_partial(f, axis, grid8)).max() == 0.0

    def test_sine_against_analytic_derivative(self):
        g = TorusGrid((16, 8, 8), (3.0, TWO_PI, TWO_PI))
        x1 = g.coords()[0]
        f = np.sin(TWO_PI * x1 / 3.0)
        expected = (TWO_PI / 3.0) * np.cos(TWO_PI * x1 / 3.0)
        assert np.abs(spectral_partial(f, 1, g) - expected).max() <= 1e-13

    def test_plane_wave_exact(self, grid8):
        x1, x2, x3 = grid8.coords()
        k = np.array([2.0, -1.0, 3.0])
        f = np.exp(1j * (k[0] * x1 + k[1] * x2 + k[2] * x3))
        for axis in (1, 2, 3):
            expected = 1j * k[axis - 1] * f
            assert np.abs(spectral_partial(f, axis, grid8) - expected).max() <= 1e-13

    def test_invalid_axis(self, grid8):
        with pytest.raises(InvalidAxis):
            spectral_partial(np.zeros(grid8.shape), 0, grid8)
        with pytest.raises(InvalidAxis):
            spectral_partial(np.zeros(grid8.shape), 4, grid8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_partials_commute(self, seed):
        g = TorusGrid((8, 8, 8), (TWO_PI, TWO_PI, TWO_PI))
        f = random_bandlimited_scalar(g, np.random.default_rng(seed))
        d12 = spectral_partial(spectral_partial(f, 1, g), 2, g)
        d21 = spectral_partial(spectral_partial(f, 2, g), 1, g)
        assert np.abs(d12 - d21).max() <= 1e-12


class TestExteriorDerivative:
    def test_constant_covector(self, grid8):
        theta = np.zeros(grid8.shape + (3,))
        theta[..., 0] = 1.0  # dx1
        assert np.abs(exterior_derivative(theta, grid8)).max() == 0.0

    def test_against_symbolic_oracle(self, grid8):
        # theta = cos(x3) dx1 + sin(x3) dx2, oracle via sympy
        import sympy as sp

        x3s = sp.symbols("x3")
        comps = [sp.cos(x3s), sp.sin(x3s), sp.Integer(0)]
        # (d theta)_23 = -d3 theta_2, (d theta)_31 = d3 theta_1
        oracle = [
            sp.lambdify(x3s, -sp.diff(comps[1], x3s)),
            sp.lambdify(x3s, sp.diff(comps[0], x3s)),
            lambda v: np.zeros_like(v),
        ]
        x3 = grid8.coords()[2]
        theta = np.zeros(grid8.shape + (3,))
        theta[..., 0] = np.cos(x3)
        theta[..., 1] = np.sin(x3)
        d = exterior_derivative(theta, grid8)
        for comp in range(3):
            assert np.abs(d[..., comp] - oracle[comp](x3)).max() <= 1e-13

    def test_d_of_gradient_vanishes(self, grid8):
        f = random_bandlimited_scalar(grid8, np.random.default_rng(5))
        grad = np.stack([spectral_partial(f, i, grid8) for i in (1, 2, 3)], axis=-1)
        assert np.abs(exterior_derivative(grad, grid8)).max() <= 1e-12


class TestFormNorms:
    def test_constant_3form(self, grid8, identity_metric):
        f = np.full(grid8.shape, 2.0 / 3.0)
        # f^2 / det g by hand
        assert np.abs(_norm2_3form(f, identity_metric.det_g) - 4.0 / 9.0).max() <= 1e-15

    def test_3form_metric_scaling(self, grid8):
        # g -> c g scales det by c^3, hence the squared norm by c^-3
        rng = np.random.default_rng(1)
        base = random_spd_metric(rng)
        c = 1.7
        scaled = Metric3.from_matrix(c * base.g_lower)
        f = random_bandlimited_scalar(grid8, rng)
        ratio = _norm2_3form(f, scaled.det_g) / _norm2_3form(f, base.det_g).clip(1e-300)
        assert np.abs(ratio - c**-3).max() <= 1e-12

    def test_zero_forms(self, grid8, identity_metric):
        zero2 = np.zeros(grid8.shape + (3,))
        zero3 = np.zeros(grid8.shape)
        g, det_g = identity_metric.g_lower, identity_metric.det_g
        assert np.abs(_norm2_2form(zero2, g, det_g)).max() == 0.0
        assert np.abs(_norm2_3form(zero3, det_g)).max() == 0.0

    def test_2form_identity_metric(self, grid8, identity_metric):
        # single component w_12 = 3: (1/2)(w_12^2 + w_21^2) = 9
        omega = np.zeros(grid8.shape + (3,))
        omega[..., 2] = 3.0
        norm2 = _norm2_2form(omega, identity_metric.g_lower, identity_metric.det_g)
        assert np.abs(norm2 - 9.0).max() <= 1e-14


def _norm2_2form_full(omega, g_upper):
    """Oracle: (1/2) w_ab w_cd g^ac g^bd from the full antisymmetric
    matrix; g_upper is one 3x3 matrix or one per point."""
    w23, w31, w12 = omega[..., 0], omega[..., 1], omega[..., 2]
    full = np.zeros(omega.shape[:-1] + (3, 3))
    full[..., 1, 2], full[..., 2, 1] = w23, -w23
    full[..., 2, 0], full[..., 0, 2] = w31, -w31
    full[..., 0, 1], full[..., 1, 0] = w12, -w12
    return 0.5 * np.einsum("...ab,...cd,...ac,...bd->...", full, full, g_upper, g_upper)


class TestTwoFormNormOracle:
    def test_random_spd_metrics(self, grid8):
        rng = np.random.default_rng(17)
        for _ in range(20):
            metric = random_spd_metric(rng, eig_low=0.05, eig_high=20.0)
            omega = rng.normal(size=grid8.shape + (3,))
            oracle = _norm2_2form_full(omega, metric.g_upper)
            assert np.abs(_norm2_2form(omega, metric.g_lower, metric.det_g) - oracle).max() \
                <= 1e-13 * np.abs(oracle).max()

    def test_induced_metrics(self, grid8):
        # per-point metrics of random (non-orthonormal) coframes, as the
        # coframe energetics use them
        rng = np.random.default_rng(19)
        theta = np.eye(3)[:, np.newaxis, np.newaxis, np.newaxis, :] \
            + 0.2 * rng.normal(size=(3,) + grid8.shape + (3,))
        dtheta0 = rng.normal(size=theta.shape)
        rho = 1.0 + 0.5 * rng.uniform(size=grid8.shape)
        g_ind, det_ind = _gram(theta), _induced_det(theta)
        g_ind_upper = np.linalg.inv(g_ind)
        omega = kinetic_2form(theta, dtheta0)
        oracle = _norm2_2form_full(omega, g_ind_upper)
        assert np.abs(_norm2_2form(omega, g_ind, det_ind) - oracle).max() \
            <= 1e-12 * np.abs(oracle).max()
        k_oracle = integrate(oracle * rho, grid8)
        k = kinetic_energy(theta, dtheta0, rho, Metric3.identity(), grid8)
        assert abs(k - k_oracle) <= 1e-12 * abs(k_oracle)
        assert np.abs(det_ind - np.linalg.det(g_ind)).max() <= 1e-12 * np.abs(det_ind).max()


class TestIntegrate:
    def test_constant(self, identity_metric):
        for dims in ((8, 8, 8), (8, 16, 4)):
            g = TorusGrid(dims, (TWO_PI, TWO_PI, TWO_PI))
            assert integrate(np.ones(g.shape), g) == pytest.approx(TWO_PI**3)

    def test_mean_zero_mode(self, grid8):
        x1 = grid8.coords()[0]
        assert abs(integrate(np.sin(x1), grid8)) <= 1e-13

    def test_sin_squared(self, grid8):
        x1 = grid8.coords()[0]
        assert integrate(np.sin(x1) ** 2, grid8) == pytest.approx(TWO_PI**3 / 2.0, abs=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_integral_of_derivative_vanishes(self, seed):
        g = TorusGrid((8, 8, 8), (TWO_PI, TWO_PI, TWO_PI))
        f = random_bandlimited_scalar(g, np.random.default_rng(seed))
        for axis in (1, 2, 3):
            assert abs(integrate(spectral_partial(f, axis, g), g)) <= 1e-12
