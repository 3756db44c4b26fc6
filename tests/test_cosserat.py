"""Coframe energetics: torsion, potential/kinetic energies, conformal
rescaling, orthonormality."""

import tracemalloc

import numpy as np
import pytest

from cosserat_weyl import (
    DegenerateDenominator,
    Metric3,
    NonPositiveDensity,
    TorusGrid,
    axial_torsion,
    build_pauli,
    conformal_rescale,
    integrate,
    kinetic_2form,
    lagrangian_coframe,
    orthonormality_residual,
    potential_energy,
    spectral_partial,
    stationary_frame_path,
)
from cosserat_weyl.cosserat import (_GRAM_PAIRS, _gram_entry, _induced_det, _norm2_2form,
                                    _triple_product, check_density)
from cosserat_weyl.sampling import (random_bandlimited_scalar, random_nonvanishing_spinor,
                                    random_spd_metric, rotating_coframe)

from helpers import einsum_gram

TWO_PI = 2.0 * np.pi


def _identity_coframe(grid):
    theta = np.zeros((3,) + grid.shape + (3,))
    for j in range(3):
        theta[j, ..., j] = 1.0
    return theta


def _kinetic_energy(theta, dtheta0, rho, grid):
    """Test-local oracle of K = integral of |theta_dot|^2 rho over the
    torus, in the induced-metric norm: the kinetic term of
    `lagrangian_coframe`, whose integral is P - K."""
    check_density(rho)
    det_ind = _induced_det(theta)
    return integrate(_norm2_2form(kinetic_2form(theta, dtheta0), theta, det_ind) * rho, grid)


class TestOrthonormality:
    def test_rotating_coframe_is_orthonormal(self, grid8, identity_metric):
        x3 = grid8.coords()[2]
        theta = rotating_coframe(grid8, x3)
        assert orthonormality_residual(theta, identity_metric).max() <= 1e-15

    def test_doubled_coframe_residual_is_three(self, grid8, identity_metric):
        # gram of 2*theta is 4*delta; max entry of |4 delta - delta| = 3
        theta = 2.0 * _identity_coframe(grid8)
        res = orthonormality_residual(theta, identity_metric)
        assert np.abs(res - 3.0).max() <= 1e-14

    def test_induced_metric_matches_prescribed(self, grid8, identity_metric):
        x3 = grid8.coords()[2]
        theta = rotating_coframe(grid8, 2.0 * x3)
        g_ind, det_ind = einsum_gram(theta), _induced_det(theta)
        g_ind_upper = np.linalg.inv(g_ind)
        assert np.abs(g_ind - np.eye(3)).max() <= 1e-14
        assert np.abs(g_ind_upper - np.eye(3)).max() <= 1e-13
        assert np.abs(det_ind - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("shape", [(8, 8, 8), (4, 6, 10), ()])
    def test_gram_matches_einsum_and_is_symmetric(self, shape):
        rng = np.random.default_rng(len(shape))
        for scale in (1e-3, 1.0, 1e4):
            theta = scale * rng.normal(size=(3,) + shape + (3,))
            oracle = einsum_gram(theta)
            for a, b in _GRAM_PAIRS:
                entry = _gram_entry(theta, a, b)
                assert entry.shape == shape
                assert np.abs(entry - oracle[..., a, b]).max() \
                    <= 1e-15 * np.abs(theta).max() ** 2
                assert np.array_equal(entry, _gram_entry(theta, b, a))

    @pytest.mark.parametrize("shape", [(8, 8, 8), (4, 6, 10)])
    def test_residual_matches_full_gram_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        metric = random_spd_metric(rng)
        for scale in (1e-3, 1.0, 1e4):
            theta = scale * rng.normal(size=(3,) + shape + (3,))
            oracle = np.abs(einsum_gram(theta) - metric.g_lower).max(axis=(-2, -1))
            res = orthonormality_residual(theta, metric)
            assert res.shape == shape
            assert np.array_equal(res, oracle)  # bit for bit


class TestAxialTorsion:
    def test_identity_coframe_is_torsion_free(self, grid8):
        assert np.abs(axial_torsion(_identity_coframe(grid8), grid8)).max() == 0.0

    @pytest.mark.parametrize("rate, expected", [(1.0, -2.0 / 3.0), (2.0, -4.0 / 3.0)])
    def test_rotating_coframe_constant_torsion(self, grid8, rate, expected):
        # angle = rate * x3 gives f = -(2/3) * rate identically
        x3 = grid8.coords()[2]
        f = axial_torsion(rotating_coframe(grid8, rate * x3), grid8)
        assert np.abs(f - expected).max() <= 1e-13

    def test_matches_symbolic_oracle_for_varying_angle(self):
        # angle alpha(x3) = sin x3: closed form f = -(2/3) alpha'(x3);
        # cos(sin x3) is not band-limited, so use 32 points along x3
        # for the spectral tail to drop below the tolerance
        import sympy as sp

        grid = TorusGrid((4, 4, 32), (TWO_PI, TWO_PI, TWO_PI))
        x3s = sp.symbols("x3")
        alpha = sp.sin(x3s)
        oracle = sp.lambdify(x3s, -sp.Rational(2, 3) * sp.diff(alpha, x3s))
        x3 = grid.coords()[2]
        f = axial_torsion(rotating_coframe(grid, np.sin(x3)), grid)
        assert np.abs(f - oracle(x3)).max() <= 1e-12

    @staticmethod
    def _random_coframe(grid, rng):
        return np.stack([np.stack([random_bandlimited_scalar(grid, rng, max_mode=1)
                                   for _ in range(3)], axis=-1) for _ in range(3)])

    @pytest.mark.parametrize("dims", [(4, 6, 10), (12, 16, 8), (16, 16, 16)])
    def test_matches_the_stacked_2form(self, dims):
        # f summed straight from the paired partials, against
        # (1/3) sum_j theta^j . d theta^j with d theta^j stacked from
        # per-component partials, on a random non-orthonormal coframe
        grid = TorusGrid(dims, (5.0, 7.0, 9.0))
        theta = self._random_coframe(grid, np.random.default_rng(23))
        oracle = np.zeros(dims)
        for cov in theta:
            d = lambda comp, axis: spectral_partial(cov[..., comp], axis, grid)
            dcov = np.stack([d(2, 2) - d(1, 3), d(0, 3) - d(2, 1), d(1, 1) - d(0, 2)], axis=-1)
            oracle += np.einsum("...i,...i->...", cov, dcov)
        oracle /= 3.0
        f = axial_torsion(theta, grid)
        assert np.abs(f - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_memory_of_one_call(self):
        # above its input, a (64,32,32) call peaks at 0.45 times the
        # coframe's bytes: f, one complex field and one product. Stacking
        # d theta^j from per-component real partials peaked at 0.78
        grid = TorusGrid((64, 32, 32), (5.0, 7.0, 9.0))
        theta = self._random_coframe(grid, np.random.default_rng(71))
        axial_torsion(theta, grid)  # one-time allocations untraced
        tracemalloc.start()
        try:
            axial_torsion(theta, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * theta.nbytes


class TestEnergies:
    def test_potential_energy_rotating_coframe(self, grid8, identity_metric):
        # f = -2/3, |T|^2 = 4/9, rho = 1: P = (4/9)(2 pi)^3
        x3 = grid8.coords()[2]
        theta = rotating_coframe(grid8, x3)
        rho = np.ones(grid8.shape)
        p = potential_energy(theta, rho, identity_metric, grid8)
        assert p == pytest.approx((4.0 / 9.0) * TWO_PI**3, rel=1e-13)

    def test_kinetic_energy_frozen_example(self, grid8, identity_metric):
        # theta = identity, d0 theta^1 = 2 dx2: omega = (2/3) dx1^dx2,
        # |omega|^2 = 4/9, K = (4/9)(2 pi)^3
        theta = _identity_coframe(grid8)
        dtheta0 = np.zeros_like(theta)
        dtheta0[0, ..., 1] = 2.0
        omega = kinetic_2form(theta, dtheta0)
        assert np.abs(omega[..., 2] - 2.0 / 3.0).max() <= 1e-15
        assert np.abs(omega[..., :2]).max() == 0.0
        rho = np.ones(grid8.shape)
        k = _kinetic_energy(theta, dtheta0, rho, grid8)
        assert k == pytest.approx((4.0 / 9.0) * TWO_PI**3, rel=1e-13)

    def test_lagrangian_integrates_to_p_minus_k(self, grid8, identity_metric):
        x3 = grid8.coords()[2]
        theta = rotating_coframe(grid8, x3)
        dtheta0 = np.zeros_like(theta)
        dtheta0[0, ..., 1] = 1.0
        rho = 1.0 + 0.25 * np.cos(x3)
        lag = lagrangian_coframe(theta, dtheta0, rho, identity_metric, grid8)
        p = potential_energy(theta, rho, identity_metric, grid8)
        k = _kinetic_energy(theta, dtheta0, rho, grid8)
        assert integrate(lag, grid8) == pytest.approx(p - k, rel=1e-12)

    def test_rejects_nonpositive_density(self, grid8, identity_metric):
        # a density must be finite and positive at every point
        theta = _identity_coframe(grid8)
        dtheta0 = np.zeros_like(theta)
        for value in (0.0, np.nan, np.inf, -np.inf):
            rho = np.ones(grid8.shape)
            rho[0, 0, 0] = value
            with pytest.raises(NonPositiveDensity, match="finite and positive"):
                potential_energy(theta, rho, identity_metric, grid8)
            with pytest.raises(NonPositiveDensity, match="finite and positive"):
                _kinetic_energy(theta, dtheta0, rho, grid8)
            with pytest.raises(NonPositiveDensity, match="finite and positive"):
                lagrangian_coframe(theta, dtheta0, rho, identity_metric, grid8)

    def test_rejects_degenerate_or_out_of_range_coframe(self, grid8, identity_metric):
        # det g_ind = tau^2 must be a finite normal float at every point:
        # theta^1 = theta^2 gives 0, and scales 1e-100 and 1e100 under-
        # and overflow it; each would make the energies NaN
        degenerate = rotating_coframe(grid8, grid8.coords()[2])
        degenerate[1] = degenerate[0]
        rho = np.ones(grid8.shape)
        for theta in (degenerate, 1e-100 * _identity_coframe(grid8),
                      1e100 * _identity_coframe(grid8)):
            dtheta0 = np.ones_like(theta)
            for energy in (lambda: potential_energy(theta, rho, identity_metric, grid8),
                           lambda: _kinetic_energy(theta, dtheta0, rho, grid8),
                           lambda: lagrangian_coframe(theta, dtheta0, rho, identity_metric,
                                                      grid8)):
                with pytest.raises(DegenerateDenominator, match="not a finite normal float"):
                    energy()
        # one degenerate point suffices
        theta = _identity_coframe(grid8)
        theta[1, 3, 2, 1] = theta[0, 3, 2, 1]
        with pytest.raises(DegenerateDenominator):
            potential_energy(theta, rho, identity_metric, grid8)

    def test_energies_read_the_induced_metric_not_the_given_one(self, grid8, identity_metric):
        # both norms use the coframe's induced metric, so a metric the
        # coframe is not orthonormal for gives the same bits
        x3 = grid8.coords()[2]
        theta = rotating_coframe(grid8, x3)
        dtheta0 = np.zeros_like(theta)
        dtheta0[0, ..., 1] = 1.0
        dtheta0[2, ..., 0] = np.sin(x3)
        rho = 1.0 + 0.25 * np.cos(x3)
        other = Metric3.diagonal(1.0, 4.0, 9.0)
        p = potential_energy(theta, rho, identity_metric, grid8)
        assert float(potential_energy(theta, rho, other, grid8)).hex() == float(p).hex()
        lag = lagrangian_coframe(theta, dtheta0, rho, identity_metric, grid8)
        assert np.abs(lag).max() > 0.0
        assert np.array_equal(lagrangian_coframe(theta, dtheta0, rho, other, grid8).view(np.uint64),
                              lag.view(np.uint64))

    def test_rejects_a_density_or_velocity_of_another_shape(self, grid8, identity_metric):
        # numpy would broadcast them: rho of shape (8, 8, 8, 1) gave
        # 8 times P and an (8, 8, 8, 8) Lagrangian; a scalar or a list
        # is not an array and gets the same message
        theta = rotating_coframe(grid8, grid8.coords()[2])
        dtheta0 = np.zeros_like(theta)
        for rho in (np.ones(grid8.shape + (1,)), np.ones((8, 8)), 1.0, [1.0] * 8):
            with pytest.raises(ValueError, match="density of shape .* does not match the "
                                                 "frame's grid shape"):
                potential_energy(theta, rho, identity_metric, grid8)
            with pytest.raises(ValueError, match="density of shape"):
                lagrangian_coframe(theta, dtheta0, rho, identity_metric, grid8)
        # a velocity of two covectors has d0 theta^3 = 0; one covector
        # would be read as two zero ones, four would index past the frame,
        # three on one point would broadcast into an (8, 8, 8, 3) 2-form,
        # and a trailing axis would index past the wedge's components
        rho = np.ones(grid8.shape)
        four = np.concatenate([dtheta0, dtheta0[:1]])
        broadcast = np.ones((3, 1, 1, 1, 3))
        for velocity in (dtheta0[:1], four, dtheta0[..., np.newaxis], broadcast):
            for call in (lambda: lagrangian_coframe(theta, velocity, rho, identity_metric, grid8),
                         lambda: kinetic_2form(theta, velocity)):
                with pytest.raises(ValueError, match="velocity of shape .* does not match the "
                                                     "frame's shape .* with 2 or 3 covectors"):
                    call()

    def test_slabs_keep_the_bits_of_the_whole_grid_form(self):
        # (36, 32, 32) is five x1 slabs, the last short: det g, the
        # potential and the kinetic norm keep the whole-grid bits
        grid = TorusGrid((36, 32, 32), (5.0, 7.0, 9.0))
        rng = np.random.default_rng(23)
        metric = random_spd_metric(rng)
        eta = random_nonvanishing_spinor(grid, rng, amplitude=0.1, max_mode=1)
        theta, dtheta0, rho = stationary_frame_path(eta, 0.7, build_pauli(metric), metric, grid)
        det_ind = _induced_det(theta)
        whole_det = _triple_product(theta) ** 2
        assert np.array_equal(det_ind.view(np.uint64), whole_det.view(np.uint64))
        f = axial_torsion(theta, grid)
        whole = (f * f / det_ind
                 - _norm2_2form(kinetic_2form(theta, dtheta0), theta, det_ind)) * rho
        lag = lagrangian_coframe(theta, dtheta0, rho, metric, grid)
        assert np.array_equal(lag.view(np.uint64), whole.view(np.uint64))
        p = potential_energy(theta, rho, metric, grid)
        assert float(p).hex() == float(integrate(f * f / whole_det * rho, grid)).hex()

    def test_a_velocity_of_two_covectors_is_a_zero_third_one(self):
        # (36, 32, 32) is five x1 slabs. The zero wedge of theta^3 can
        # flip the sign of an exact zero of the 2-form, which the norm
        # squares away: the Lagrangian keeps every bit
        grid = TorusGrid((36, 32, 32), (5.0, 7.0, 9.0))
        rng = np.random.default_rng(29)
        metric = random_spd_metric(rng)
        eta = random_nonvanishing_spinor(grid, rng, amplitude=0.1, max_mode=1)
        theta, dtheta0, rho = stationary_frame_path(eta, 0.7, build_pauli(metric), metric, grid)
        assert dtheta0.shape == (2,) + grid.shape + (3,)
        full = np.concatenate([dtheta0, np.zeros_like(dtheta0[:1])])
        assert np.array_equal(kinetic_2form(theta, dtheta0), kinetic_2form(theta, full))
        lag = lagrangian_coframe(theta, dtheta0, rho, metric, grid)
        assert np.array_equal(lag.view(np.uint64),
                              lagrangian_coframe(theta, full, rho, metric, grid).view(np.uint64))


class TestConformal:
    def test_rescale_shapes_and_values(self, grid8):
        theta = _identity_coframe(grid8)
        rho = np.ones(grid8.shape)
        h = np.full(grid8.shape, np.log(2.0))
        theta2, rho2 = conformal_rescale(theta, rho, h)
        assert np.abs(theta2 - 2.0 * theta).max() <= 1e-14
        assert np.abs(rho2 - 4.0).max() <= 1e-13

    def test_potential_energy_invariant_under_rescaling(self, grid8, identity_metric):
        x1, _, x3 = grid8.coords()
        theta = rotating_coframe(grid8, x3)
        rho = np.ones(grid8.shape)
        h = np.log(1.5 + np.cos(x1))
        p0 = potential_energy(theta, rho, identity_metric, grid8)
        theta2, rho2 = conformal_rescale(theta, rho, h)
        p1 = potential_energy(theta2, rho2, identity_metric, grid8)
        assert abs(p1 - p0) / abs(p0) <= 1e-12

    def test_invariance_with_anisotropic_metric(self, grid8):
        # coframe scaled to be orthonormal for diag(4, 1, 1)
        metric = Metric3.diagonal(4.0, 1.0, 1.0)
        theta = _identity_coframe(grid8)
        theta[0] *= 2.0
        assert orthonormality_residual(theta, metric).max() <= 1e-15
        x2 = grid8.coords()[1]
        rho = np.ones(grid8.shape)
        h = 0.3 * np.sin(x2)
        p0 = potential_energy(theta, rho, metric, grid8)
        theta2, rho2 = conformal_rescale(theta, rho, h)
        p1 = potential_energy(theta2, rho2, metric, grid8)
        # torsion-free coframe: both sides vanish
        assert abs(p0) <= 1e-20 and abs(p1) <= 1e-20
