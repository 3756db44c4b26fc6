"""Memory layout of spinor fields and coframes: every spinor the package
builds is two component planes, C-contiguous each, of one (2,) + dims
block, every coframe nine planes theta^j_a of one (3, 3) + dims block, and
every function gives the same result on an interleaved copy."""

import numpy as np
import pytest

import cosserat_weyl.correspondence as correspondence_module
import cosserat_weyl.spinor as spinor_module
import cosserat_weyl.suites as suites_module
from cosserat_weyl import (
    Metric3,
    SpinorField,
    TorusGrid,
    axial_torsion,
    build_pauli,
    conformal_rescale,
    el_gradient,
    el_gradient_fd_check,
    el_residual,
    el_residual_fd,
    factorization_residual,
    fierz_residual,
    frame_to_spinor,
    kinetic_2form,
    lagrangian_coframe,
    lagrangian_dynamic,
    lagrangian_stationary,
    lagrangian_weyl,
    orthonormality_residual,
    planewave_solution,
    potential_energy,
    read_field,
    scaling_covariance_residual,
    spinor_to_frame,
    stationary_frame_path,
    weyl_residual,
    weyl_residual_norm,
    write_field,
)
from cosserat_weyl.geometry import _axis_exponentials, _plane_waves
from cosserat_weyl.sampling import (
    _perturbed_unit_spinor,
    random_bandlimited_scalar,
    random_bandlimited_spinor,
    random_nonvanishing_spinor,
    random_spd_metric,
    rotating_coframe,
)
from cosserat_weyl.spinor import _covector, _dirac


def _is_component_planes(field):
    """Each field[..., c] C-contiguous, and the field a view of one block."""
    return np.moveaxis(field, -1, 0).flags.c_contiguous


def _is_coframe_planes(theta, covectors=3):
    """Each theta[j, ..., a] C-contiguous, and the coframe (or a velocity
    of ``covectors`` covectors) a view of one (covectors, 3) + dims block."""
    return theta.shape[0] == covectors and theta.shape[-1] == 3 \
        and np.moveaxis(theta, -1, 1).flags.c_contiguous


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
        metric = random_spd_metric(rng)
        w = rng.normal(size=(6, 4, 10, 3))
        planar = np.moveaxis(np.ascontiguousarray(np.moveaxis(w, -1, 0)), 0, -1)
        got = metric.covector_norm2(planar)
        assert np.array_equal(got, metric.covector_norm2(w))
        want = np.einsum("...a,ab,...b->...", w, np.linalg.inv(metric.g_lower), w)
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


class TestCoframesAreBuiltAsPlanes:
    grid = TorusGrid((12, 16, 8), (5.0, 7.0, 9.0))

    def _frame_path(self, seed):
        rng = np.random.default_rng(seed)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(self.grid, rng, amplitude=0.15, max_mode=1)
        return metric, pauli, eta

    def test_the_dictionary(self):
        metric, pauli, eta = self._frame_path(9)
        for given in (eta, _interleaved(eta)):
            theta, _ = spinor_to_frame(given, pauli, metric, self.grid)
            assert _is_coframe_planes(theta)
            theta, dtheta0, _ = stationary_frame_path(given, 1.0, pauli, metric, self.grid)
            # d0 theta^3 = 0 is not stored: the velocity is two covectors
            assert _is_coframe_planes(theta) and _is_coframe_planes(dtheta0, covectors=2)

    @pytest.mark.parametrize("angle", ["axis", "grid"])
    def test_rotating_coframe(self, angle):
        x3 = self.grid.axis_coords(3) if angle == "axis" else self.grid.coords()[2]
        theta = rotating_coframe(self.grid, x3)
        assert _is_coframe_planes(theta)
        c, s = np.cos(x3), np.sin(x3)
        rows = ((c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0))
        for j, row in enumerate(rows):
            for a, value in enumerate(row):
                assert np.array_equal(theta[j, ..., a], np.broadcast_to(value, self.grid.dims))

    def test_conformal_rescale_of_either_layout(self):
        theta = rotating_coframe(self.grid, self.grid.coords()[2])
        rho = np.ones(self.grid.dims)
        h = random_bandlimited_scalar(self.grid, np.random.default_rng(10), max_mode=1,
                                      amplitude=0.3)
        scaled, scaled_rho = conformal_rescale(theta, rho, h)
        again, again_rho = conformal_rescale(_interleaved(theta), rho, h)
        assert _is_coframe_planes(scaled) and _is_coframe_planes(again)
        assert np.array_equal(scaled, again) and np.array_equal(scaled_rho, again_rho)

    def test_kinetic_2form(self):
        metric, pauli, eta = self._frame_path(11)
        theta, dtheta0, _ = stationary_frame_path(eta, 0.5, pauli, metric, self.grid)
        assert _is_component_planes(kinetic_2form(theta, dtheta0))

    def test_the_coframes_of_a_suite_case(self, count_calls):
        # the rotating coframe and its rescaling in verify conformal, and
        # the frame verify correspondence lifts
        energies = count_calls("potential_energy", suites_module)
        lifts = count_calls("frame_to_spinor", suites_module)
        suites_module.verify_conformal(self.grid)
        suites_module.verify_correspondence(self.grid, 1, n_cases=2)
        assert len(energies) == 2 and len(lifts) == 2
        assert all(_is_coframe_planes(args[0]) for args, _ in energies + lifts)


class TestCoframesOfAnyLayout:
    # every coframe kernel reads theta^j_a through plane views, and the
    # spectral ones copy each pair of planes into one complex buffer, so
    # an interleaved copy gives the planar result bit for bit
    @pytest.mark.parametrize("dims", [(8, 8, 8), (4, 6, 10)])
    def test_interleaved_input_gives_the_planar_result(self, dims):
        grid = TorusGrid(dims, (5.0, 7.0, 9.0))
        rng = np.random.default_rng(2 * sum(dims))
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng, amplitude=0.15, max_mode=1)
        theta, dtheta0, rho = stationary_frame_path(eta, 0.7, pauli, metric, grid)
        assert _is_coframe_planes(theta) and _is_coframe_planes(dtheta0, covectors=2)
        calls = [
            ("orthonormality_residual", lambda t, d: orthonormality_residual(t, metric)),
            ("axial_torsion", lambda t, d: axial_torsion(t, grid)),
            ("potential_energy", lambda t, d: potential_energy(t, rho, metric, grid)),
            ("kinetic_2form", kinetic_2form),
            ("lagrangian_coframe", lambda t, d: lagrangian_coframe(t, d, rho, metric, grid)),
            ("frame_to_spinor", lambda t, d: frame_to_spinor(t, rho, pauli, metric)),
        ]
        interleaved = [(_interleaved(theta), dtheta0), (theta, _interleaved(dtheta0)),
                       (_interleaved(theta), _interleaved(dtheta0))]
        for name, call in calls:
            want = call(theta, dtheta0)
            for args in interleaved:
                got = call(*args)
                pairs = zip(got, want) if isinstance(want, (tuple, list)) else [(got, want)]
                assert all(np.array_equal(g, w) for g, w in pairs), name

    def test_write_field_keeps_its_bytes(self, tmp_path):
        grid = TorusGrid((4, 6, 10), (5.0, 7.0, 9.0))
        theta = rotating_coframe(grid, grid.coords()[0] + 2.0 * grid.coords()[2])
        assert _is_coframe_planes(theta)
        planar, interleaved = tmp_path / "planar.cwf", tmp_path / "interleaved.cwf"
        write_field(planar, "coframe", theta, grid)
        write_field(interleaved, "coframe", _interleaved(theta), grid)
        assert planar.read_bytes() == interleaved.read_bytes()
        kind, values, _ = read_field(planar)
        assert kind == "coframe" and np.array_equal(values, theta)
