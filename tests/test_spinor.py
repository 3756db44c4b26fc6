"""Spinor bilinears, the stationary and Weyl Lagrangian densities, the
factorisation identity, scaling covariance and the dynamic reduction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cosserat_weyl.spinor as spinor_module
import cosserat_weyl.weyl as weyl_module
from cosserat_weyl import (
    DegenerateDenominator,
    FACTORIZATION_SIGN,
    Metric3,
    SpinorField,
    TorusGrid,
    VanishingSpinor,
    ZeroFrequency,
    bilinears,
    build_pauli,
    el_gradient,
    el_gradient_fd_check,
    el_residual,
    factorization_residual,
    fierz_residual,
    lagrangian_dynamic,
    lagrangian_stationary,
    lagrangian_weyl,
    planewave_solution,
    scaling_covariance_residual,
    spinor_to_frame,
    stationary_ansatz,
    weyl_residual,
    weyl_residual_norm,
)
from cosserat_weyl.geometry import spectral_partial
from cosserat_weyl.spinor import _dirac, _sandwich
from cosserat_weyl.sampling import (
    random_bandlimited_scalar,
    random_nonvanishing_spinor,
    random_spd_metric,
)


def _constant_spinor(grid, u=(1.0, 0.0)):
    eta = np.zeros(grid.shape + (2,), dtype=complex)
    eta[..., 0] = u[0]
    eta[..., 1] = u[1]
    return eta


class TestBilinears:
    def test_constant_spin_up(self, grid8, pauli_identity):
        b = bilinears(_constant_spinor(grid8), pauli_identity, grid8)
        assert np.abs(b.s - 1.0).max() <= 1e-15
        assert np.abs(b.v - np.array([0.0, 0.0, 1.0])).max() <= 1e-15
        assert np.abs(b.A).max() == 0.0

    def test_plane_wave_axial_scalar(self, grid8, pauli_identity):
        # eta = u e^{i k x} with (k.sigma) u = p0 u gives A = -p0 s
        x3 = grid8.coords()[2]
        u = np.array([1.0, 0.0])  # sigma_3 eigenvector, eigenvalue +1
        eta = np.exp(1j * x3)[..., np.newaxis] * u  # k = (0,0,1), p0 = 1
        b = bilinears(eta, pauli_identity, grid8)
        assert np.abs(b.A + b.s).max() <= 1e-13

    def test_vanishing_guard(self, grid8, pauli_identity, identity_metric):
        x1 = grid8.coords()[0]
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = np.cos(x1)  # vanishes on a plane
        with pytest.raises(VanishingSpinor):
            lagrangian_stationary(eta, 1.0, pauli_identity, identity_metric, grid8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_fierz_identity(self, seed):
        grid = TorusGrid((8, 8, 8), (2 * np.pi,) * 3)
        rng = np.random.default_rng(seed)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng)
        assert fierz_residual(eta, pauli, metric, grid) <= 1e-13


class TestLagrangians:
    def test_constant_spinor_frozen_values(self, grid8, pauli_identity, identity_metric):
        # s = 1, A = 0, p0 = 1: L = -16/9, L_pm = pm 1
        eta = _constant_spinor(grid8)
        lag = lagrangian_stationary(eta, 1.0, pauli_identity, identity_metric, grid8)
        assert np.abs(lag + 16.0 / 9.0).max() <= 1e-14
        lp = lagrangian_weyl(eta, 1.0, 1, pauli_identity, identity_metric, grid8)
        lm = lagrangian_weyl(eta, 1.0, -1, pauli_identity, identity_metric, grid8)
        assert np.abs(lp - 1.0).max() <= 1e-14
        assert np.abs(lm + 1.0).max() <= 1e-14

    def test_zero_frequency_rejected(self, grid8, pauli_identity, identity_metric):
        eta = _constant_spinor(grid8)
        with pytest.raises(ZeroFrequency):
            lagrangian_stationary(eta, 0.0, pauli_identity, identity_metric, grid8)
        with pytest.raises(ZeroFrequency):
            lagrangian_weyl(eta, 0.0, 1, pauli_identity, identity_metric, grid8)

    def test_vanishing_spinor_rejected(self, grid8, pauli_identity, identity_metric):
        x1 = grid8.coords()[0]
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = np.cos(x1)  # vanishes on a plane
        for call in (
            lambda: lagrangian_weyl(eta, 1.0, -1, pauli_identity, identity_metric, grid8),
            lambda: lagrangian_dynamic(*stationary_ansatz(eta, 1.0), pauli_identity,
                                       identity_metric, grid8),
            lambda: el_gradient(eta, 1.0, pauli_identity, identity_metric, grid8),
        ):
            with pytest.raises(VanishingSpinor):
                call()

    def test_bad_weyl_sign_rejected(self, grid8, pauli_identity, identity_metric):
        with pytest.raises(ValueError):
            lagrangian_weyl(_constant_spinor(grid8), 1.0, 2,
                            pauli_identity, identity_metric, grid8)

    def test_u1_invariance(self, grid8, pauli_identity, identity_metric):
        rng = np.random.default_rng(7)
        eta = random_nonvanishing_spinor(grid8, rng)
        rotated = np.exp(1j * 0.83) * eta
        for field in (lagrangian_stationary(eta, 0.5, pauli_identity,
                                            identity_metric, grid8)
                      - lagrangian_stationary(rotated, 0.5, pauli_identity,
                                              identity_metric, grid8),):
            assert np.abs(field).max() <= 1e-13


class TestFactorization:
    def test_constant_spinor_by_hand(self, grid8, pauli_identity, identity_metric):
        # L+ L- / (L+ - L-) = -1/2 at p0 = 1, and L = -16/9,
        # so the printed constant -32/9 needs sign -1
        eta = _constant_spinor(grid8)
        res, sign = factorization_residual(eta, 1.0, pauli_identity,
                                           identity_metric, grid8)
        assert sign == -1
        assert res.max() <= 1e-14

    def test_sign_is_global_constant(self, grid16):
        rng = np.random.default_rng(11)
        for p0 in (0.5, -0.5, 1.0, 2.0):
            metric = random_spd_metric(rng)
            pauli = build_pauli(metric)
            eta = random_nonvanishing_spinor(grid16, rng)
            res, sign = factorization_residual(eta, p0, pauli, metric, grid16)
            assert sign == FACTORIZATION_SIGN
            lag = lagrangian_stationary(eta, p0, pauli, metric, grid16)
            assert res.max() / np.abs(lag).max() <= 1e-12

    def test_degenerate_denominator(self, grid8, pauli_identity, identity_metric):
        # s vanishes on the x1 = pi/2 plane, so L+ - L- does too
        x1 = grid8.coords()[0]
        eta = np.zeros(grid8.shape + (2,), dtype=complex)
        eta[..., 0] = np.cos(x1)
        with pytest.raises(DegenerateDenominator):
            factorization_residual(eta, 1.0, pauli_identity, identity_metric, grid8)

    def test_zero_frequency_rejected(self, grid8, pauli_identity, identity_metric):
        with pytest.raises(ZeroFrequency):
            factorization_residual(_constant_spinor(grid8), 0.0,
                                   pauli_identity, identity_metric, grid8)


class TestScalingCovariance:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_small_band_limited_rescaling(self, seed):
        grid = TorusGrid((16, 16, 16), (2 * np.pi,) * 3)
        rng = np.random.default_rng(seed)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng, max_mode=1)
        h = random_bandlimited_scalar(grid, rng, max_mode=1, amplitude=0.2)
        for sign in (1, -1):
            res = scaling_covariance_residual(eta, h, 0.5, sign, pauli, metric, grid)
            assert res <= 1e-10

    def test_constant_rescaling_is_exact(self, grid8, pauli_identity, identity_metric):
        rng = np.random.default_rng(2)
        eta = random_nonvanishing_spinor(grid8, rng)
        h = np.full(grid8.shape, 0.7)
        res = scaling_covariance_residual(eta, h, 1.0, 1, pauli_identity,
                                          identity_metric, grid8)
        assert res <= 1e-14


class TestDynamicReduction:
    def test_stationary_ansatz_returns_time_derivative(self, grid8):
        eta = _constant_spinor(grid8)
        xi, dxi0 = stationary_ansatz(eta, 2.0)
        assert xi is eta
        assert np.abs(dxi0 + 2.0j * eta).max() == 0.0

    def test_dynamic_equals_stationary_on_ansatz(self, grid16):
        rng = np.random.default_rng(13)
        for p0 in (0.5, 1.0, -2.0):
            metric = random_spd_metric(rng)
            pauli = build_pauli(metric)
            eta = random_nonvanishing_spinor(grid16, rng)
            xi, dxi0 = stationary_ansatz(eta, p0)
            dyn = lagrangian_dynamic(xi, dxi0, pauli, metric, grid16)
            stat = lagrangian_stationary(eta, p0, pauli, metric, grid16)
            scale = np.abs(stat).max()
            assert np.abs(dyn - stat).max() / scale <= 1e-13


# -- explicit Pauli arithmetic and the shared field ---------------------------

GRID_468 = TorusGrid((4, 6, 8), (5.0, 7.0, 9.0))


def _oracle_sandwich(eta, sigma, xi):
    return np.einsum("...a,nab,...b->...n", eta.conj(), sigma, xi)


def _gradient_stack(eta, grid):
    """(d_1 eta, d_2 eta, d_3 eta) from the public per-axis partial."""
    return np.stack([spectral_partial(eta, a, grid) for a in (1, 2, 3)])


def _oracle_slash(sigma, deta):
    return np.einsum("nab,n...b->...a", sigma, deta)


def _oracle_axial(eta, deta, sigma_upper):
    return -np.einsum("...a,nab,n...b->...", eta.conj(), sigma_upper, deta).imag


def _metric_pauli_and_fields(seed):
    """A metric-adapted Pauli set and two spinor fields on the (4,6,8)
    grid: a random one and a plane wave with modes (1,2,3), the highest
    below Nyquist on every axis."""
    rng = np.random.default_rng(seed)
    metric = random_spd_metric(rng)
    pauli = build_pauli(metric)
    eta = random_nonvanishing_spinor(GRID_468, rng, max_mode=1)
    _, wave = planewave_solution((1, 2, 3), 1 if seed % 2 else -1, metric, GRID_468)
    return metric, pauli, rng, (eta, wave.eta)


def _rel(value, oracle):
    return np.abs(value - oracle).max() / max(np.abs(oracle).max(), np.finfo(float).tiny)


class TestPauliArithmetic:
    @pytest.mark.parametrize("seed", range(4))
    def test_helpers_match_einsum_oracle(self, seed):
        metric, pauli, rng, fields = _metric_pauli_and_fields(seed)
        skew = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        for eta in fields:
            other = random_nonvanishing_spinor(GRID_468, rng)
            deta = _gradient_stack(eta, GRID_468)
            conjugate = np.stack([eta[..., 1].conj(), -eta[..., 0].conj()], axis=-1)
            for sigma in (pauli.sigma_lower, pauli.sigma_upper, skew):
                for xi in (eta, other, conjugate):
                    assert _rel(_sandwich(eta, sigma, xi),
                                _oracle_sandwich(eta, sigma, xi)) <= 1e-14
            b = bilinears(eta, pauli, GRID_468)
            assert _rel(b.v, _oracle_sandwich(eta, pauli.sigma_lower, eta).real) <= 1e-14
            assert _rel(b.A, _oracle_axial(eta, deta, pauli.sigma_upper)) <= 1e-14

    def test_plane_wave_axial_density_is_minus_p0_s(self):
        # (k.sigma) u = p0 u gives sigma^a d_a eta = i p0 eta, so A = -p0 s
        metric, pauli, _, (_, wave) = _metric_pauli_and_fields(1)
        k = 2.0 * np.pi * np.array([1, 2, 3]) / np.asarray(GRID_468.box)
        p0 = float(np.sqrt(k @ metric.g_upper @ k))
        b = bilinears(wave, pauli, GRID_468)
        assert np.abs(b.A + p0 * b.s).max() <= 1e-12


def _ill_conditioned_metric(rng, log10_cond):
    """Q diag(e) Q^T with seeded orthogonal Q and eigenvalues spread
    over ``log10_cond`` decades."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    g = q @ np.diag(10.0 ** (log10_cond * rng.uniform(-0.5, 0.5, size=3))) @ q.T
    return Metric3.from_matrix(0.5 * (g + g.T))


def _su2(rng):
    """A random SU(2) matrix [[a, -conj b], [b, conj a]], |a|^2 + |b|^2 = 1."""
    a, b = (rng.normal(size=2) + 1j * rng.normal(size=2)) / np.sqrt(2.0)
    norm = np.hypot(abs(a), abs(b))
    a, b = a / norm, b / norm
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def _near_nyquist_spinor(grid, rng, terms=6):
    """A sum of random 2-spinor plane waves whose mode on each axis is
    drawn from 0, +-1, +-(N/2 - 1) and the Nyquist mode N/2, plus one
    wave with every mode below Nyquist and nonzero."""
    def wave(modes):
        e1, e2, e3 = (np.exp(2j * np.pi * m * np.arange(n) / n)
                      for m, n in zip(modes, grid.dims))
        return (e1[:, None, None] * e2[:, None] * e3)[..., np.newaxis] \
            * (rng.normal(size=2) + 1j * rng.normal(size=2))
    eta = wave([n // 2 - 1 for n in grid.dims])
    for _ in range(terms):
        eta += wave([rng.choice([0, 1, -1, n // 2 - 1, 1 - n // 2, n // 2])
                     for n in grid.dims])
    return eta


def _dirac_case(dims, box, seed, log10_cond):
    """(eta, sigma sets, grid) of one `_dirac` property case: the Pauli
    set of an ill-conditioned metric, both index placements, an
    SU(2)-conjugated copy of it and a random complex triple."""
    grid = TorusGrid(dims, box)
    rng = np.random.default_rng(seed)
    pauli = build_pauli(_ill_conditioned_metric(rng, log10_cond))
    u = _su2(rng)
    conjugated = u @ pauli.sigma_upper @ u.conj().T
    skew = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    sigmas = (pauli.sigma_upper, pauli.sigma_lower, conjugated, skew)
    return _near_nyquist_spinor(grid, rng), sigmas, grid


class TestDiracSymbol:
    """sigma^a d_a as one Fourier symbol against sigma^a applied to the
    stack of per-axis spectral partials."""

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*[st.integers(2, 8).map(lambda half: 2 * half)] * 3),
           st.tuples(*[st.floats(0.5, 10.0)] * 3),
           st.integers(0, 2**31 - 1),
           st.floats(0.0, 6.0))
    @example((4, 4, 4), (2.0 * np.pi,) * 3, 0, 0.0)
    @example((12, 16, 8), (5.0, 7.0, 9.0), 1, 6.0)
    @example((4, 6, 8), (5.0, 7.0, 9.0), 2, 3.0)
    def test_matches_per_axis_partials(self, dims, box, seed, log10_cond):
        eta, sigmas, grid = _dirac_case(dims, box, seed, log10_cond)
        deta = _gradient_stack(eta, grid)
        for sigma in sigmas:
            assert _rel(_dirac(eta, sigma, grid), _oracle_slash(sigma, deta)) <= 1e-13

    @pytest.mark.parametrize("mutant", [
        lambda sigma: sigma * np.array([1.0, 0.0, 1.0])[:, None, None],  # sigma[1] dropped
        lambda sigma: -sigma.conj(),  # the symbol conjugated: conj(i k sigma)
        lambda sigma: sigma.transpose(0, 2, 1),  # entries (0, 1) and (1, 0) swapped
        lambda sigma: sigma[[1, 0, 2]],  # sigma paired with the wrong axes
    ])
    def test_catches_a_wrong_symbol(self, mutant):
        # the comparison of the property above fails by O(1) when the
        # symbol is built wrong
        eta, sigmas, grid = _dirac_case((12, 16, 8), (5.0, 7.0, 9.0), 1, 2.0)
        deta = _gradient_stack(eta, grid)
        for sigma in sigmas[:3]:
            assert _rel(_dirac(eta, mutant(sigma), grid), _oracle_slash(sigma, deta)) > 1e-2

    def test_real_array_is_differentiated_as_its_complex_copy(self):
        eta, sigmas, grid = _dirac_case((4, 6, 8), (5.0, 7.0, 9.0), 4, 1.0)
        for sigma in sigmas:
            assert np.array_equal(_dirac(eta.real, sigma, grid),
                                  _dirac(eta.real.astype(complex), sigma, grid))


_EDGE_EXAMPLES = [((4, 4, 4), (2.0 * np.pi,) * 3, 0, 0.0, 1.0),
                  ((4, 6, 10), (0.5, 10.0, 3.0), 1, 6.0, -2.0),
                  ((10, 10, 10), (10.0, 0.5, 5.0), 2, 6.0, 0.5),
                  ((4, 4, 4), (0.5,) * 3, 4, 6.0, 2.0)]


def _el_fd_disagreement(dims, box, seed, log10_cond, p0):
    """`el_gradient_fd_check` with 64 probes on a random nonvanishing
    spinor and the Pauli set of an ill-conditioned metric."""
    grid = TorusGrid(dims, box)
    rng = np.random.default_rng(seed)
    metric = _ill_conditioned_metric(rng, log10_cond)
    eta = random_nonvanishing_spinor(grid, rng, max_mode=1)
    return el_gradient_fd_check(eta, p0, build_pauli(metric), metric, grid,
                                probes=64, seed=seed)


class TestELGradientAtTheEdges:
    """The closed-form EL gradient against central differences of the
    discrete action on small and non-cubic grids, boxes far from 2 pi,
    metrics up to six decades of condition and both signs of p0."""

    @settings(max_examples=30, deadline=None)
    @given(st.tuples(*[st.integers(2, 5).map(lambda half: 2 * half)] * 3),
           st.tuples(*[st.floats(0.5, 10.0)] * 3),
           st.integers(0, 2**31 - 1),
           st.floats(0.0, 6.0),
           st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
    @example(*_EDGE_EXAMPLES[0])
    @example(*_EDGE_EXAMPLES[1])
    @example(*_EDGE_EXAMPLES[2])
    @example(*_EDGE_EXAMPLES[3])
    def test_matches_finite_differences(self, dims, box, seed, log10_cond, p0):
        assert _el_fd_disagreement(dims, box, seed, log10_cond, p0) <= 1e-7

    @pytest.mark.parametrize("case", _EDGE_EXAMPLES)
    def test_catches_a_dropped_term(self, monkeypatch, case):
        # weyl's own _dirac applies sigma^a d_a only to G eta in
        # el_gradient (the field's sigma^a d_a eta, which the probes
        # perturb, comes from spinor's), so zeroing it drops that term
        monkeypatch.setattr(weyl_module, "_dirac",
                            lambda eta, sigma, grid: np.zeros(eta.shape, dtype=complex))
        assert _el_fd_disagreement(*case) > 1e-3


class TestSpinorField:
    def _setup(self, seed=5):
        metric, pauli, _, (eta, _) = _metric_pauli_and_fields(seed)
        return metric, pauli, eta

    def test_field_and_array_give_identical_results(self):
        metric, pauli, eta = self._setup()
        grid = GRID_468
        field = SpinorField(eta, pauli, grid)
        _, dxi0 = stationary_ansatz(eta, 0.7)
        for fn in (
            lambda e: bilinears(e, pauli, grid).A,
            lambda e: bilinears(e, pauli, grid).v,
            lambda e: lagrangian_stationary(e, 0.7, pauli, metric, grid),
            lambda e: lagrangian_weyl(e, 0.7, -1, pauli, metric, grid),
            lambda e: factorization_residual(e, 0.7, pauli, metric, grid)[0],
            lambda e: fierz_residual(e, pauli, metric, grid),
            lambda e: lagrangian_dynamic(e, dxi0, pauli, metric, grid),
            lambda e: weyl_residual(e, 0.7, 1, pauli, grid),
            lambda e: el_gradient(e, 0.7, pauli, metric, grid),
            lambda e: el_residual(e, 0.7, pauli, metric, grid, mode="fd", probes=8),
            lambda e: spinor_to_frame(e, pauli, metric, grid).theta,
        ):
            assert np.array_equal(fn(field), fn(eta))

    def test_each_quantity_is_computed_once(self, count_calls):
        metric, pauli, eta = self._setup()
        dirac = count_calls("_dirac", spinor_module, weyl_module)
        fierz_residual(SpinorField(eta, pauli, GRID_468), pauli, metric, GRID_468)
        assert dirac == []  # the Fierz identity needs no derivative
        field = SpinorField(eta, pauli, GRID_468)
        lagrangian_stationary(field, 0.5, pauli, metric, GRID_468)
        lagrangian_weyl(field, 0.5, 1, pauli, metric, GRID_468)
        weyl_residual_norm(field, 0.5, 1, pauli, GRID_468)
        el_residual(field, 0.5, pauli, metric, GRID_468)
        el_residual(field, 0.5, pauli, metric, GRID_468, mode="fd", probes=4)
        # sigma^a d_a eta once for the field, shared by the FD probes, and
        # once for G eta in the EL gradient
        assert len(dirac) == 2

    def test_field_for_other_pauli_set_or_grid_rejected(self):
        metric, pauli, eta = self._setup()
        other_pauli = build_pauli(random_spd_metric(np.random.default_rng(99)))
        other_grid = TorusGrid((4, 6, 8), (5.0, 7.0, 9.5))
        field = SpinorField(eta, pauli, GRID_468)
        calls = [
            lambda p, g: bilinears(field, p, g),
            lambda p, g: lagrangian_stationary(field, 0.5, p, metric, g),
            lambda p, g: fierz_residual(field, p, metric, g),
            lambda p, g: weyl_residual_norm(field, 0.5, 1, p, g),
            lambda p, g: el_residual(field, 0.5, p, metric, g),
            lambda p, g: spinor_to_frame(field, p, metric, g),
        ]
        for call in calls:
            for p, g in ((other_pauli, GRID_468), (pauli, other_grid)):
                with pytest.raises(ValueError, match="different Pauli set or grid"):
                    call(p, g)
            # an equal Pauli set built separately is the same Pauli set
            call(build_pauli(metric), TorusGrid((4, 6, 8), (5.0, 7.0, 9.0)))

    def test_non_hermitian_pauli_set_fails_reality_check(self):
        metric, pauli, eta = self._setup()
        complex_v = dataclasses.replace(pauli, sigma_lower=1j * pauli.sigma_lower)
        for call in (
            lambda: bilinears(eta, complex_v, GRID_468),
            lambda: fierz_residual(eta, complex_v, metric, GRID_468),
            lambda: spinor_to_frame(eta, complex_v, metric, GRID_468),
            lambda: el_residual(eta, 0.5, complex_v, metric, GRID_468,
                                mode="fd", probes=4),
            lambda: lagrangian_stationary(eta, 0.5, complex_v, metric, GRID_468),
            lambda: lagrangian_weyl(eta, 0.5, 1, complex_v, metric, GRID_468),
            lambda: lagrangian_dynamic(*stationary_ansatz(eta, 0.5), complex_v,
                                       metric, GRID_468),
            lambda: el_gradient(eta, 0.5, complex_v, metric, GRID_468),
            lambda: factorization_residual(eta, 0.5, complex_v, metric, GRID_468),
        ):
            with pytest.raises(ValueError, match="reality check"):
                call()
