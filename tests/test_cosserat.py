"""Coframe energetics: torsion, potential/kinetic energies, conformal
rescaling, orthonormality."""

import numpy as np
import pytest

from cosserat_weyl import (
    Metric3,
    NonPositiveDensity,
    TorusGrid,
    axial_torsion,
    conformal_rescale,
    kinetic_2form,
    kinetic_energy,
    lagrangian_coframe,
    orthonormality_residual,
    potential_energy,
)
from cosserat_weyl.cosserat import _gram, _induced_det
from cosserat_weyl.sampling import rotating_coframe

TWO_PI = 2.0 * np.pi


def _identity_coframe(grid):
    theta = np.zeros((3,) + grid.shape + (3,))
    for j in range(3):
        theta[j, ..., j] = 1.0
    return theta


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
        g_ind, det_ind = _gram(theta), _induced_det(theta)
        g_ind_upper = np.linalg.inv(g_ind)
        assert np.abs(g_ind - np.eye(3)).max() <= 1e-14
        assert np.abs(g_ind_upper - np.eye(3)).max() <= 1e-13
        assert np.abs(det_ind - 1.0).max() <= 1e-13


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
        k = kinetic_energy(theta, dtheta0, rho, identity_metric, grid8)
        assert k == pytest.approx((4.0 / 9.0) * TWO_PI**3, rel=1e-13)

    def test_lagrangian_integrates_to_p_minus_k(self, grid8, identity_metric):
        from cosserat_weyl import integrate

        x3 = grid8.coords()[2]
        theta = rotating_coframe(grid8, x3)
        dtheta0 = np.zeros_like(theta)
        dtheta0[0, ..., 1] = 1.0
        rho = 1.0 + 0.25 * np.cos(x3)
        lag = lagrangian_coframe(theta, dtheta0, rho, identity_metric, grid8)
        p = potential_energy(theta, rho, identity_metric, grid8)
        k = kinetic_energy(theta, dtheta0, rho, identity_metric, grid8)
        assert integrate(lag, grid8) == pytest.approx(p - k, rel=1e-12)

    def test_rejects_nonpositive_density(self, grid8, identity_metric):
        theta = _identity_coframe(grid8)
        rho = np.ones(grid8.shape)
        rho[0, 0, 0] = 0.0
        with pytest.raises(NonPositiveDensity):
            potential_energy(theta, rho, identity_metric, grid8)
        with pytest.raises(NonPositiveDensity):
            kinetic_energy(theta, np.zeros_like(theta), rho, identity_metric, grid8)


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
