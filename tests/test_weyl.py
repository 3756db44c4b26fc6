"""Plane-wave Weyl solutions, the dispersion relation, variational
gradients and the solution/stationary-point witness suite."""

import dataclasses

import numpy as np
import pytest

from cosserat_weyl import (
    Metric3,
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
from cosserat_weyl.geometry import integrate, spectral_partial
from cosserat_weyl.sampling import random_nonvanishing_spinor, random_spd_metric
from cosserat_weyl.weyl import _fd_gradient_at_dofs, _gradient_scale, _sample_dofs

TWO_PI = 2.0 * np.pi


def _full_grid_fd(eta, p0, pauli, metric, grid, dofs):
    """Oracle: central differences of the action from two full-grid
    Lagrangians per probe."""
    eps_cbrt = float(np.cbrt(np.finfo(float).eps))
    values = []
    for point, comp, part in dofs:
        idx = point + (comp,)
        step = eps_cbrt * (1.0 + abs(eta[idx]))
        plus, minus = eta.copy(), eta.copy()
        plus[idx] += step if part == 0 else 1j * step
        minus[idx] -= step if part == 0 else 1j * step
        diff = lagrangian_stationary(plus, p0, pauli, metric, grid) \
            - lagrangian_stationary(minus, p0, pauli, metric, grid)
        values.append(integrate(diff, grid) / (2.0 * step) / (2.0 * grid.cell_volume))
    return np.array(values)


def _edge_dofs(grid):
    """Probes at index 0 and N-1 on every axis, so the periodic wrap of
    each grid line is exercised, for both components and parts."""
    n1, n2, n3 = grid.dims
    points = [(0, 0, 0), (n1 - 1, n2 - 1, n3 - 1), (0, n2 - 1, n3 // 2),
              (n1 - 1, 1, 0)]
    return [(point, comp, part) for point in points
            for comp in (0, 1) for part in (0, 1)]


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
        assert weyl_residual_norm(eta, spec.p0, spec.weyl_sign, pauli,
                                  grid8) <= 1e-13

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
        wrong = weyl_residual_norm(eta, spec.p0, -spec.weyl_sign, pauli, grid8)
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
                spec, _ = planewave_solution(k, branch, metric, grid8)
                assert spec.dispersion_residual <= 1e-12


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
        dofs = _edge_dofs(grid) + _sample_dofs(eta, 16, seed=7)
        local = _fd_gradient_at_dofs(eta, p0, pauli, metric, grid, dofs)
        oracle = _full_grid_fd(eta, p0, pauli, metric, grid, dofs)
        assert np.abs(local - oracle).max() <= 1e-9 * _gradient_scale(eta, p0, metric)

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
                fd(eta, 0.8, complex_v, metric, grid8, _edge_dofs(grid8)[:1])

    @pytest.mark.parametrize("amplitude,raises", [(1.0, False), (10.0, True)])
    def test_vanishing_floor_is_relative_to_perturbed_field(self, grid8, amplitude,
                                                            raises):
        # eta vanishes at one point; probing there lifts s to step^2 ~ 3.7e-11,
        # which is above the 1e-12 floor for max s = 1 and below it for 100
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = amplitude
        eta[3, 0, 7] = 0.0
        metric = Metric3.identity()
        args = (0.8, build_pauli(metric), metric, grid8, [((3, 0, 7), 0, 0)])
        for fd in (_fd_gradient_at_dofs, _full_grid_fd):
            if raises:
                with pytest.raises(VanishingSpinor):
                    fd(eta, *args)
            else:
                assert np.isfinite(fd(eta, *args)).all()


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

    def test_one_spectral_gradient_per_field(self, grid8, monkeypatch):
        # each solution field is differentiated once, inside
        # planewave_solution, and its case reuses that gradient; each
        # perturbed field once: one gradient per case
        calls = []
        original = spinor_module.spinor_gradient
        monkeypatch.setattr(spinor_module, "spinor_gradient",
                            lambda *args: calls.append(1) or original(*args))
        metric = random_spd_metric(np.random.default_rng(4))
        report = theorem_witness_suite(4, grid8, metric, n_cases=2, fd_probes=4)
        assert len(calls) == len(report["cases"])

    def test_report_is_json_serialisable(self, grid8, identity_metric):
        import json

        report = theorem_witness_suite(1, grid8, identity_metric, n_cases=1,
                                       max_mode=1, fd_probes=2)
        json.dumps(report)
