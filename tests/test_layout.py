"""Memory layout of spinor fields: every spinor the package builds is two
component planes, C-contiguous each, of one (2,) + dims block, and every
function gives the same result on an interleaved copy."""

import numpy as np
import pytest

import cosserat_weyl.correspondence as correspondence_module
import cosserat_weyl.spinor as spinor_module
import cosserat_weyl.suites as suites_module
from cosserat_weyl import (
    Metric3,
    SpinorField,
    TorusGrid,
    build_pauli,
    el_gradient,
    el_gradient_fd_check,
    el_residual,
    el_residual_fd,
    factorization_residual,
    fierz_residual,
    frame_to_spinor,
    lagrangian_dynamic,
    lagrangian_stationary,
    lagrangian_weyl,
    planewave_solution,
    scaling_covariance_residual,
    spinor_to_frame,
    stationary_frame_path,
    weyl_residual,
    weyl_residual_norm,
)
from cosserat_weyl.geometry import _axis_exponentials, _plane_waves
from cosserat_weyl.sampling import (
    _perturbed_unit_spinor,
    random_bandlimited_scalar,
    random_bandlimited_spinor,
    random_nonvanishing_spinor,
    random_spd_metric,
)
from cosserat_weyl.spinor import _covector, _dirac, _metric_norm2


def _is_component_planes(field):
    """Each field[..., c] C-contiguous, and the field a view of one block."""
    return np.moveaxis(field, -1, 0).flags.c_contiguous


def _interleaved(field):
    copy = np.ascontiguousarray(field)
    assert copy.flags.c_contiguous and np.array_equal(copy, field)
    return copy


def _block_diagonal_plane_waves(grid, modes, coeffs):
    """Oracle: the sums of `_plane_waves` as one matrix product
    (n1 n2 x C T) @ (C T x n3 C), e3 in the columns of its term's
    component, written in the interleaved layout."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n_comp, n_terms = coeffs.shape
    n1, n2, n3 = grid.dims
    e1, e2, e3 = _axis_exponentials(grid, np.reshape(modes, (-1, 3)))
    left = (coeffs.reshape(-1, 1) * e1).T[:, None, :] * e2.T
    right = np.zeros((n_comp, n_terms, n3, n_comp), dtype=complex)
    for c, block in enumerate(e3.reshape(n_comp, n_terms, n3)):
        right[c, :, :, c] = block
    out = left.reshape(n1 * n2, -1) @ right.reshape(-1, n3 * n_comp)
    return out.reshape(grid.dims + (n_comp,))


class TestPlaneWaves:
    # bit for bit where the per-component product rounds as the
    # block-diagonal one did; on the other grids the two differ by at
    # most 3.0e-16 of the peak on a sixth to a third of the points
    @pytest.mark.parametrize("dims, bits", [
        ((4, 4, 4), True), ((12, 16, 8), True), ((32, 32, 32), True),
        ((64, 32, 32), True), ((4, 6, 10), False), ((8, 12, 10), False),
        ((6, 6, 6), False)])
    @pytest.mark.parametrize("n_comp, n_terms", [(2, 4), (1, 6)])
    def test_matches_the_block_diagonal_product(self, dims, bits, n_comp, n_terms):
        grid = TorusGrid(dims, (5.0, 7.0, 9.0))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            modes = rng.integers(-2, 3, size=(n_comp, n_terms, 3))
            coeffs = (rng.normal(size=(n_comp, n_terms))
                      + 1j * rng.normal(size=(n_comp, n_terms)))
            got = _plane_waves(grid, modes, coeffs)
            want = _block_diagonal_plane_waves(grid, modes, coeffs)
            assert _is_component_planes(got)
            if bits:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 2.0 * np.finfo(float).eps \
                    * np.abs(want).max()


class TestBuildersReturnPlanes:
    grid = TorusGrid((12, 16, 8), (5.0, 7.0, 9.0))

    @pytest.mark.parametrize("sampler", [random_bandlimited_spinor, _perturbed_unit_spinor,
                                         random_nonvanishing_spinor])
    def test_draws(self, sampler):
        eta = sampler(self.grid, np.random.default_rng(3))
        assert eta.shape == self.grid.dims + (2,) and _is_component_planes(eta)

    def test_plane_wave_solution(self):
        _, field = planewave_solution((1, -2, 1), -1, Metric3.diagonal(1.0, 4.0, 9.0),
                                      self.grid)
        assert _is_component_planes(field.eta)

    def test_dirac_and_the_lift(self):
        rng = np.random.default_rng(4)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = _interleaved(random_nonvanishing_spinor(self.grid, rng, amplitude=0.15,
                                                      max_mode=1))
        assert _is_component_planes(_dirac(eta, pauli.sigma_upper, self.grid))
        theta, rho = spinor_to_frame(eta, pauli, metric, self.grid)
        assert _is_component_planes(frame_to_spinor(theta, rho, pauli, metric)[0])

    def test_phase_and_scale_of_a_suite_case(self, monkeypatch):
        # the rotated field of verify u1 and e^h eta of verify scaling
        seen = []
        original = spinor_module.lagrangian_weyl

        def recording(eta, *args):
            seen.append(eta.eta if isinstance(eta, SpinorField) else eta)
            return original(eta, *args)

        monkeypatch.setattr(spinor_module, "lagrangian_weyl", recording)
        monkeypatch.setattr(suites_module, "lagrangian_weyl", recording)
        suites_module.verify_u1(self.grid, 1, n_cases=2)
        suites_module.verify_scaling(self.grid, 1, n_cases=2)
        assert len(seen) == 16
        assert all(_is_component_planes(eta) for eta in seen)

    def test_e_h_eta_of_an_interleaved_field(self, monkeypatch):
        seen = []
        original = spinor_module.lagrangian_weyl
        monkeypatch.setattr(spinor_module, "lagrangian_weyl",
                            lambda eta, *args: seen.append(eta.eta) or original(eta, *args))
        rng = np.random.default_rng(6)
        metric = random_spd_metric(rng)
        eta = _interleaved(random_nonvanishing_spinor(self.grid, rng, max_mode=1))
        h = random_bandlimited_scalar(self.grid, rng, max_mode=1, amplitude=0.2)
        scaling_covariance_residual(eta, h, 0.5, build_pauli(metric), metric, self.grid)
        scaled = [e for e in seen if e is not eta]
        assert scaled and all(_is_component_planes(e) for e in scaled)


class TestAnyLayoutIsAccepted:
    @pytest.mark.parametrize("dims", [(8, 8, 8), (4, 6, 10)])
    def test_interleaved_input_gives_the_planar_result(self, dims):
        grid = TorusGrid(dims, (5.0, 7.0, 9.0))
        rng = np.random.default_rng(sum(dims))
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        planar = random_nonvanishing_spinor(grid, rng, amplitude=0.15, max_mode=1)
        dxi0 = random_bandlimited_spinor(grid, rng, max_mode=1)
        h = random_bandlimited_scalar(grid, rng, max_mode=1, amplitude=0.2)
        assert _is_component_planes(planar) and _is_component_planes(dxi0)
        calls = [
            ("_covector", lambda e: _covector(e, pauli)),
            ("_dirac", lambda e: _dirac(e, pauli.sigma_upper, grid)),
            ("lagrangian_stationary",
             lambda e: lagrangian_stationary(e, 0.5, pauli, metric, grid)),
            ("lagrangian_weyl", lambda e: lagrangian_weyl(e, -1.0, 1, pauli, metric, grid)),
            ("factorization_residual",
             lambda e: factorization_residual(e, 2.0, pauli, metric, grid)),
            ("scaling_covariance_residual",
             lambda e: scaling_covariance_residual(e, h, 1.0, pauli, metric, grid)),
            ("lagrangian_dynamic", lambda e: lagrangian_dynamic(e, dxi0, pauli, metric, grid)),
            ("lagrangian_dynamic of dxi0",
             lambda e: lagrangian_dynamic(planar, dxi0 if e is planar else _interleaved(dxi0),
                                          pauli, metric, grid)),
            ("fierz_residual", lambda e: fierz_residual(e, pauli, metric, grid)),
            ("weyl_residual", lambda e: weyl_residual(e, 0.5, -1, pauli, grid)),
            ("weyl_residual_norm", lambda e: weyl_residual_norm(e, 0.5, 1, pauli, grid)),
            ("el_gradient", lambda e: el_gradient(e, -0.5, pauli, metric, grid)),
            ("el_residual", lambda e: el_residual(e, 0.5, pauli, metric, grid)),
            ("el_residual_fd",
             lambda e: el_residual_fd(e, 0.5, pauli, metric, grid, probes=8, seed=1)),
            ("el_gradient_fd_check",
             lambda e: el_gradient_fd_check(e, 1.0, pauli, metric, grid, probes=8)),
            ("spinor_to_frame", lambda e: spinor_to_frame(e, pauli, metric, grid)),
            ("stationary_frame_path",
             lambda e: stationary_frame_path(e, 1.0, pauli, metric, grid)),
        ]
        interleaved = _interleaved(planar)
        for name, call in calls:
            got, want = call(interleaved), call(planar)
            pairs = zip(got, want) if isinstance(want, tuple) else [(got, want)]
            assert all(np.array_equal(g, w) for g, w in pairs), name

    def test_metric_norm_of_any_layout(self):
        rng = np.random.default_rng(8)
        g_upper = random_spd_metric(rng).g_upper
        w = rng.normal(size=(6, 4, 10, 3))
        planar = np.moveaxis(np.ascontiguousarray(np.moveaxis(w, -1, 0)), 0, -1)
        got = _metric_norm2(planar, g_upper)
        assert np.array_equal(got, _metric_norm2(w, g_upper))
        want = np.einsum("...a,ab,...b->...", w, g_upper, w)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("dims", [(4, 4, 4), (12, 16, 8), (4, 6, 10), (8, 6, 4)])
    def test_sweep_signs_of_either_layout(self, dims):
        # a continuous spinor with a random sign at every point
        rng = np.random.default_rng(len(dims) + dims[2])
        grid = TorusGrid(dims, (5.0, 7.0, 9.0))
        xi = random_nonvanishing_spinor(grid, rng, amplitude=0.15, max_mode=1)
        xi *= rng.choice([-1.0, 1.0], size=dims)[..., np.newaxis]
        assert _is_component_planes(xi)
        signs = correspondence_module._sweep_signs(xi)
        assert np.array_equal(signs, correspondence_module._sweep_signs(_interleaved(xi)))
        assert np.array_equal(np.abs(signs), np.ones(dims))
