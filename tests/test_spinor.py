"""Spinor bilinears, the stationary and Weyl Lagrangian densities, the
factorisation identity, scaling covariance and the dynamic reduction."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cosserat_weyl.correspondence as correspondence_module
import cosserat_weyl.geometry as geometry_module
import cosserat_weyl.spinor as spinor_module
import cosserat_weyl.weyl as weyl_module
from cosserat_weyl import (
    DegenerateDenominator,
    FACTORIZATION_SIGN,
    Metric3,
    ModelError,
    NotHermitian,
    PauliSet,
    SpinorField,
    TorusGrid,
    VanishingSpinor,
    ZeroFrequency,
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
    orthonormality_residual,
    planewave_solution,
    scaling_covariance_residual,
    spinor_to_frame,
    theorem_witness_suite,
    weyl_residual,
    weyl_residual_norm,
)
from cosserat_weyl.geometry import spectral_partial
from cosserat_weyl.spinor import _axial_density, _covector, _dirac, _sandwich, _scalar_density
from cosserat_weyl.sampling import (
    random_bandlimited_scalar,
    random_nonvanishing_spinor,
    random_spd_metric,
)

from helpers import constant_spinor


class TestBilinears:
    def test_constant_spin_up(self, grid8, pauli_identity):
        b = SpinorField(constant_spinor(grid8), pauli_identity, grid8)
        assert np.abs(b.s - 1.0).max() <= 1e-15
        assert np.abs(b.v - np.array([0.0, 0.0, 1.0])).max() <= 1e-15
        assert np.abs(b.A).max() == 0.0

    def test_plane_wave_axial_scalar(self, grid8, pauli_identity):
        # eta = u e^{i k x} with (k.sigma) u = p0 u gives A = -p0 s
        x3 = grid8.coords()[2]
        u = np.array([1.0, 0.0])  # sigma_3 eigenvector, eigenvalue +1
        eta = np.exp(1j * x3)[..., np.newaxis] * u  # k = (0,0,1), p0 = 1
        b = SpinorField(eta, pauli_identity, grid8)
        assert np.abs(b.A + b.s).max() <= 1e-13

    @pytest.mark.parametrize("dims", [(4, 4, 4), (12, 16, 8), (32, 32, 32)])
    def test_scalar_density_matches_complex_form(self, dims):
        # the real-arithmetic s against etabar eta summed as complex products
        grid = TorusGrid(dims, (5.0, 0.7, 9.0))
        rng = np.random.default_rng(sum(dims))
        for eta in (random_nonvanishing_spinor(grid, rng),
                    rng.normal(size=dims + (2,)) + 1j * rng.normal(size=dims + (2,))):
            want = np.einsum("...a,...a->...", eta.conj(), eta).real
            s = _scalar_density(eta)
            assert s.dtype == float and s.shape == dims
            assert np.all(np.abs(s - want) <= 2 * np.finfo(float).eps * want)

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
        eta = constant_spinor(grid8)
        lag = lagrangian_stationary(eta, 1.0, pauli_identity, identity_metric, grid8)
        assert np.abs(lag + 16.0 / 9.0).max() <= 1e-14
        lp = lagrangian_weyl(eta, 1.0, 1, pauli_identity, identity_metric, grid8)
        lm = lagrangian_weyl(eta, 1.0, -1, pauli_identity, identity_metric, grid8)
        assert np.abs(lp - 1.0).max() <= 1e-14
        assert np.abs(lm + 1.0).max() <= 1e-14

    def test_zero_frequency_rejected(self, grid8, pauli_identity, identity_metric):
        eta = constant_spinor(grid8)
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
            lambda: lagrangian_dynamic(eta, -1j * eta, pauli_identity, identity_metric,
                                       grid8),
            lambda: el_gradient(eta, 1.0, pauli_identity, identity_metric, grid8),
        ):
            with pytest.raises(VanishingSpinor):
                call()

    def test_bad_weyl_sign_rejected(self, grid8, pauli_identity, identity_metric):
        with pytest.raises(ValueError):
            lagrangian_weyl(constant_spinor(grid8), 1.0, 2,
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
        eta = constant_spinor(grid8)
        res = factorization_residual(eta, 1.0, pauli_identity, identity_metric, grid8)
        assert FACTORIZATION_SIGN == -1
        assert res.max() <= 1e-14

    def test_sign_is_global_constant(self, grid16):
        rng = np.random.default_rng(11)
        for p0 in (0.5, -0.5, 1.0, 2.0):
            metric = random_spd_metric(rng)
            pauli = build_pauli(metric)
            eta = random_nonvanishing_spinor(grid16, rng)
            res = factorization_residual(eta, p0, pauli, metric, grid16)
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
            factorization_residual(constant_spinor(grid8), 0.0,
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
        for res in scaling_covariance_residual(eta, h, 0.5, pauli, metric, grid):
            assert res <= 1e-10

    def test_constant_rescaling_is_exact(self, grid8, pauli_identity, identity_metric):
        rng = np.random.default_rng(2)
        eta = random_nonvanishing_spinor(grid8, rng)
        h = np.full(grid8.shape, 0.7)
        res = scaling_covariance_residual(eta, h, 1.0, pauli_identity,
                                          identity_metric, grid8)
        assert max(res) <= 1e-14


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [0.0, np.inf, np.nan])
    def test_floor_is_checked_before_a_transform(self, grid8, pauli_identity, identity_metric,
                                                 count_calls, value):
        # a point of eta at zero, infinity or NaN fails the floor before
        # e^h eta is formed or either field transformed, so an infinity
        # makes no NaN (and no warning) on the way
        eta = random_nonvanishing_spinor(grid8, np.random.default_rng(3))
        eta[1, 2, 3] = value
        dirac = count_calls("_dirac", spinor_module, weyl_module)
        with pytest.raises(VanishingSpinor):
            scaling_covariance_residual(eta, np.zeros(grid8.shape), 0.5, pauli_identity,
                                        identity_metric, grid8)
        assert dirac == []

class TestDynamicReduction:
    def test_dynamic_equals_stationary_on_ansatz(self, grid16):
        rng = np.random.default_rng(13)
        for p0 in (0.5, 1.0, -2.0):
            metric = random_spd_metric(rng)
            pauli = build_pauli(metric)
            eta = random_nonvanishing_spinor(grid16, rng)
            # the slice x0 = 0 of xi = e^{-i p0 x0} eta: (xi, d0 xi) = (eta, -i p0 eta)
            dyn = lagrangian_dynamic(eta, -1j * p0 * eta, pauli, metric, grid16)
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
            b = SpinorField(eta, pauli, GRID_468)
            assert _rel(b.v, _oracle_sandwich(eta, pauli.sigma_lower, eta).real) <= 1e-14
            assert _rel(b.A, _oracle_axial(eta, deta, pauli.sigma_upper)) <= 1e-14

    def test_plane_wave_axial_density_is_minus_p0_s(self):
        # (k.sigma) u = p0 u gives sigma^a d_a eta = i p0 eta, so A = -p0 s
        metric, pauli, _, (_, wave) = _metric_pauli_and_fields(1)
        k = 2.0 * np.pi * np.array([1, 2, 3]) / np.asarray(GRID_468.box)
        p0 = float(np.sqrt(metric.covector_norm2(k)))
        b = SpinorField(wave, pauli, GRID_468)
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


def _dirac_per_entry(eta, sigma, grid):
    """`_dirac` with each entry of the symbol rebuilt per slab from three
    1-D arrays, (c1 k1 + c2 k2) + c3 k3 with c = i sigma[:, i, j], and
    the mean taken by `ndarray.mean`: the bits `_dirac` must keep."""
    k1, k2, k3 = (grid.wavenumber(a) for a in (1, 2, 3))
    slash = geometry_module._component_planes(eta.shape[:-1])
    fhat = np.moveaxis(slash, -1, 0)
    for j in (0, 1):
        np.subtract(eta[..., j], complex(eta[..., j].mean()), out=fhat[j])
        np.fft.fftn(fhat[j], out=fhat[j])
    slabs = geometry_module._slabs(eta.shape[:-1])
    buffers = np.empty((2, slabs[0].stop) + eta.shape[1:-1], dtype=complex)

    def times_symbol(i, j, sl, out):
        c1, c2, c3 = 1j * sigma[:, i, j]
        np.add((c1 * k1[sl])[:, None, None] + (c2 * k2)[:, None], c3 * k3, out=out)
        out *= fhat[j, sl]

    for sl in slabs:
        first, second = buffers[:, :sl.stop - sl.start]
        times_symbol(0, 0, sl, first)
        times_symbol(0, 1, sl, second)
        first += second
        times_symbol(1, 0, sl, second)
        fhat[0, sl] = first
        times_symbol(1, 1, sl, first)
        second += first
        fhat[1, sl] = second
    for j in (0, 1):
        np.fft.ifftn(fhat[j], out=fhat[j])
    return slash


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

    # white noise carries every mode, the Nyquist mode of each axis
    # included; its constant part, as a nonvanishing field's unit spinor,
    # shows the last bit of the mean where the point count (1536 on
    # (12,16,8)) is not a power of 2
    @pytest.mark.parametrize("dims,box,log10_cond", [
        ((4, 4, 4), (2.0 * np.pi,) * 3, 0.0),
        ((12, 16, 8), (5.0, 7.0, 9.0), 6.0),  # an ill-conditioned metric
        ((64, 32, 32), (5.0, 7.0, 9.0), 2.0),  # several x1 slabs
    ])
    def test_bits_of_the_per_entry_symbol(self, dims, box, log10_cond):
        # the symbol from a plane part and a line part keeps the
        # association (c1 k1 + c2 k2) + c3 k3, and the mean keeps the sum
        # and division of ndarray.mean, so the result keeps every bit
        _, sigmas, grid = _dirac_case(dims, box, 6, log10_cond)
        rng = np.random.default_rng(6)
        white = rng.normal(size=dims + (2,)) + 1j * rng.normal(size=dims + (2,))
        white += np.array([0.6 - 0.8j, 3.3 + 1.7j])
        planar = geometry_module._component_planes(dims)
        planar[...] = white
        for eta in (white, planar, white.real):
            for sigma in sigmas:
                assert np.array_equal(_dirac(eta, sigma, grid),
                                      _dirac_per_entry(eta, sigma, grid))

    # a stack of two fields, as the witness evaluates a plane wave and
    # its perturbed twin: one transform per axis of the whole block, and
    # each symbol entry built once per x1 slab for both fields
    @pytest.mark.parametrize("dims,box,log10_cond", [
        ((4, 4, 4), (2.0 * np.pi,) * 3, 0.0),  # Nyquist content on every axis
        ((12, 16, 8), (5.0, 7.0, 9.0), 6.0),  # an ill-conditioned metric
        ((64, 32, 32), (5.0, 7.0, 9.0), 2.0),  # several x1 slabs
    ])
    def test_a_stack_keeps_each_fields_bits(self, dims, box, log10_cond):
        eta, sigmas, grid = _dirac_case(dims, box, 8, log10_cond)
        stack = geometry_module._component_planes((2,) + dims)
        stack[0] = eta
        stack[1] = 0.5 * eta.conj() + 2.0 - 1.0j
        for sigma in sigmas:
            each = [_dirac(field, sigma, grid) for field in stack]
            together = _dirac(stack, sigma, grid)
            assert together.shape == stack.shape
            for field, expected in zip(together, each):
                assert np.array_equal(field, expected)
            # transformed in place, as the EL gradient transforms G eta
            in_place = geometry_module._component_planes(stack.shape[:-1])
            in_place[...] = stack
            assert _dirac(in_place, sigma, grid, out=in_place) is in_place
            assert np.array_equal(in_place, together)

    def test_real_array_is_differentiated_as_its_complex_copy(self):
        eta, sigmas, grid = _dirac_case((4, 6, 8), (5.0, 7.0, 9.0), 4, 1.0)
        for sigma in sigmas:
            assert np.array_equal(_dirac(eta.real, sigma, grid),
                                  _dirac(eta.real.astype(complex), sigma, grid))

    # x1 slabs of 5, 5 and 2 planes on (12,16,8), and of 3 and 1 on
    # (4,6,10): every other test's grid is one slab of _SLAB_POINTS
    @pytest.mark.parametrize("dims,slab_points", [((12, 16, 8), 5 * 16 * 8),
                                                  ((4, 6, 10), 3 * 6 * 10)])
    def test_slabs_match_one_slab_bit_for_bit(self, monkeypatch, dims, slab_points):
        eta, sigmas, grid = _dirac_case(dims, (5.0, 7.0, 9.0), 5, 2.0)
        whole = [_dirac(eta, sigma, grid) for sigma in sigmas]
        monkeypatch.setattr(geometry_module, "_SLAB_POINTS", slab_points)
        sizes = [len(range(dims[0])[sl]) for sl in geometry_module._slabs(dims)]
        assert sum(sizes) == dims[0] and len(set(sizes)) == 2
        for sigma, expected in zip(sigmas, whole):
            assert np.array_equal(_dirac(eta, sigma, grid), expected)

    @pytest.mark.parametrize("dims,slab_points", [((12, 16, 8), 5 * 16 * 8),
                                                  ((4, 6, 10), 3 * 6 * 10)])
    def test_stationary_density_of_an_array_in_slabs_matches_one_slab(self, monkeypatch,
                                                                       dims, slab_points):
        # sigma^a d_a eta and A in x1 slabs of the same size
        grid = TorusGrid(dims, (5.0, 7.0, 9.0))
        rng = np.random.default_rng(37)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng, amplitude=0.3, max_mode=2)
        whole = lagrangian_stationary(eta, -0.7, pauli, metric, grid)
        monkeypatch.setattr(geometry_module, "_SLAB_POINTS", slab_points)
        assert len(geometry_module._slabs(dims)) > 1
        sliced = lagrangian_stationary(eta, -0.7, pauli, metric, grid)
        assert np.array_equal(sliced.view(np.uint64), whole.view(np.uint64))

    def test_memory_of_a_multi_slab_call(self):
        # (16,32,32) holds two slabs. Above its input, a call peaks at 1.82
        # times the spinor's bytes: the two spectra, which become the
        # result, two slab buffers and the symbol's parts (2.32 as one
        # slab). With whole-grid symbol buffers and an output apart from
        # the spectra it peaked at 3.14
        grid = TorusGrid((16, 32, 32), (5.0, 7.0, 9.0))
        assert len(geometry_module._slabs(grid.shape)) == 2
        rng = np.random.default_rng(71)
        pauli = build_pauli(random_spd_metric(rng))
        eta = random_nonvanishing_spinor(grid, rng, amplitude=0.15, max_mode=1)
        _dirac(eta, pauli.sigma_upper, grid)  # one-time allocations untraced
        tracemalloc.start()
        try:
            _dirac(eta, pauli.sigma_upper, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.9 * eta.nbytes


class TestAxialDensity:
    """A from the real and imaginary views of eta and sigma^a d_a eta,
    against the conjugate einsum form -Im(etabar . slash)."""

    @staticmethod
    def _einsum_form(eta, slash):
        return -np.einsum("...a,...a->...", eta.conj(), slash).imag

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(4, 4, 4), (12, 16, 8), (4, 6, 10)]),
           st.integers(0, 2**31 - 1), st.floats(0.0, 6.0))
    @example((12, 16, 8), 1, 6.0)
    def test_within_two_ulp_of_the_einsum_form(self, dims, seed, log10_cond):
        eta, sigmas, grid = _dirac_case(dims, (5.0, 7.0, 9.0), seed, log10_cond)
        for sigma in sigmas:
            slash = _dirac(eta, sigma, grid)
            oracle = self._einsum_form(eta, slash)
            assert np.all(np.abs(_axial_density(eta, slash) - oracle)
                          <= 2.0 * np.spacing(np.abs(oracle)))

    def test_any_leading_shape_and_a_real_spinor(self):
        # the finite-difference probes pass (probe, sign, point, 2) arrays
        rng = np.random.default_rng(3)
        eta = rng.normal(size=(5, 2, 7, 2)) + 1j * rng.normal(size=(5, 2, 7, 2))
        slash = rng.normal(size=eta.shape) + 1j * rng.normal(size=eta.shape)
        for spinor in (eta, eta.real):
            oracle = self._einsum_form(spinor, slash)
            axial = _axial_density(spinor, slash)
            assert axial.shape == eta.shape[:-1]
            assert np.all(np.abs(axial - oracle) <= 2.0 * np.spacing(np.abs(oracle)))

    @staticmethod
    def _whole_array_form(eta, slash):
        e1, e2, d1, d2 = eta[..., 0], eta[..., 1], slash[..., 0], slash[..., 1]
        return (e1.imag * d1.real - e1.real * d1.imag) + (e2.imag * d2.real - e2.real * d2.imag)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_slabs_keep_the_bits_of_the_whole_array_form(self, lead):
        # (36, 32, 32) is five x1 slabs, the last short; a stack of three
        # takes each slab of all three fields at once
        rng = np.random.default_rng(8)
        shape = lead + (36, 32, 32, 2)
        eta, slash = (geometry_module._component_planes(shape[:-1]) for _ in range(2))
        for array in (eta, slash):
            array[...] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert len(geometry_module._slabs(shape[-4:-1])) == 5
        assert np.array_equal(_axial_density(eta, slash).view(np.uint64),
                              self._whole_array_form(eta, slash).view(np.uint64))

    # a list of spinors, the FD probes' (probe, sign, stencil point) and
    # (sign, point), a stack, and a strided view of a stack
    @pytest.mark.parametrize("shape", [(300, 2), (40, 2, 7, 2), (2, 9, 2), (3, 12, 16, 8, 2),
                                       "view"])
    @pytest.mark.parametrize("slab_points", [2**6, 2**13])
    def test_any_chunking_keeps_the_bits(self, monkeypatch, shape, slab_points):
        rng = np.random.default_rng(12)
        if shape == "view":
            full = (4, 24, 16, 10, 2)
            eta, slash = (rng.normal(size=full) + 1j * rng.normal(size=full)
                          for _ in range(2))
            eta, slash = eta[::2, ::2, :, 8:0:-1], slash[1::2, 1::2, :, 1:9]
            assert not eta.flags.forc and not slash.flags.forc
        else:
            eta, slash = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                          for _ in range(2))
        whole = self._whole_array_form(eta, slash)
        monkeypatch.setattr(geometry_module, "_SLAB_POINTS", slab_points)
        assert np.array_equal(_axial_density(eta, slash).view(np.uint64), whole.view(np.uint64))

    def test_memory_of_a_strided_stack(self):
        # every chunk is a view: a strided stack is not copied whole. Above
        # its inputs, a call on (3, 36, 32, 32) in five x1 slabs peaks at
        # 1.45 times the result's bytes, as on a contiguous stack: the
        # result and two temporaries of a slab of all three fields. A
        # reshaped copy of each input would add eight
        rng = np.random.default_rng(9)
        full = (6, 36, 32, 32, 2)
        eta, slash = (rng.normal(size=full) + 1j * rng.normal(size=full) for _ in range(2))
        eta, slash = eta[::2], slash[1::2]
        tracemalloc.start()
        try:
            axial = _axial_density(eta, slash)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * axial.nbytes


def test_stationary_density_is_the_expression_bit_for_bit():
    # each operation is done in place, in the order of the expression
    rng = np.random.default_rng(4)
    metric = random_spd_metric(rng)
    s = rng.uniform(0.1, 2.0, size=(12, 16, 8))
    axial = rng.normal(size=s.shape)
    for p0 in (0.5, -2.0):
        expression = (16.0 / (9.0 * s)) * (axial**2 - (p0 * s) ** 2) * metric.sqrt_det
        assert np.array_equal(spinor_module._stationary_density(s, axial, p0, metric),
                              expression)


def _covector_of(eta, sigma):
    """`_covector` for any triple sigma, Hermitian or not, in the role
    of sigma_lower."""
    return _covector(eta, SimpleNamespace(sigma_lower=sigma))


class TestCovectorMap:
    """Re v_n = Re etabar sigma[n] eta as the real densities of eta times
    the real 4x3 matrix of `_covector`, against the complex sandwich."""

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*[st.integers(2, 8).map(lambda half: 2 * half)] * 3),
           st.tuples(*[st.floats(0.5, 10.0)] * 3),
           st.integers(0, 2**31 - 1),
           st.floats(0.0, 6.0))
    @example((4, 4, 4), (2.0 * np.pi,) * 3, 0, 0.0)
    @example((12, 16, 8), (5.0, 7.0, 9.0), 1, 6.0)
    @example((4, 6, 8), (5.0, 7.0, 9.0), 2, 3.0)
    def test_real_part_matches_sandwich_oracle(self, dims, box, seed, log10_cond):
        # metric-adapted sets of both index placements, an SU(2)-conjugated
        # copy and a non-Hermitian triple
        eta, sigmas, _ = _dirac_case(dims, box, seed, log10_cond)
        for sigma in sigmas:
            oracle = _oracle_sandwich(eta, sigma, eta)
            scale = np.abs(oracle).max()
            assert np.abs(_covector_of(eta, sigma) - oracle.real).max() <= 1e-14 * scale

    # each wrong map is the map of a wrong triple, so it goes through _covector
    @pytest.mark.parametrize("mutant", [
        # Re and Im of etabar_1 eta_2 swapped: m01 -> -i conj(m01), m10 -> i conj(m10)
        lambda m: np.where(np.eye(2, dtype=bool), m, np.array([[0.0, -1j], [1j, 0.0]]) * m.conj()),
        lambda m: m.transpose(0, 2, 1),  # the Im (m10 - m01) row negated
        lambda m: m[:, ::-1, ::-1].transpose(0, 2, 1),  # |eta_1|^2 and |eta_2|^2 swapped
    ])
    def test_catches_a_wrong_map(self, mutant):
        eta, sigmas, _ = _dirac_case((12, 16, 8), (5.0, 7.0, 9.0), 1, 2.0)
        for sigma in sigmas[:3]:
            oracle = _oracle_sandwich(eta, sigma, eta).real
            assert _rel(_covector_of(eta, mutant(sigma)), oracle) > 1e-2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 6.0))
    @example(0, 6.0)
    def test_build_pauli_sets_have_exactly_real_v(self, seed, log10_cond):
        rng = np.random.default_rng(seed)
        for metric in (random_spd_metric(rng), _ill_conditioned_metric(rng, log10_cond)):
            pauli = build_pauli(metric)
            for m in (pauli.sigma_lower, pauli.sigma_upper):
                # the parts of the complex map that `_covector` drops
                dropped = np.array([m[:, 0, 0].imag, m[:, 1, 1].imag,
                                    (m[:, 0, 1] + m[:, 1, 0]).imag, (m[:, 0, 1] - m[:, 1, 0]).real])
                assert not dropped.any()


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
                            lambda eta, sigma, grid, out=None: np.zeros(eta.shape, dtype=complex))
        assert _el_fd_disagreement(*case) > 1e-3


_LAGRANGIAN_EDGE_GRIDS = [((4, 4, 4), (2.0 * np.pi,) * 3), ((12, 16, 8), (5.0, 7.0, 9.0)),
                          ((4, 6, 10), (0.5, 10.0, 3.0))]


class TestLagrangiansAtTheEdges:
    """`lagrangian_stationary` and `lagrangian_weyl` on 4^3 and non-cubic
    grids and boxes, metrics up to six decades of condition, fields with
    modes next to and at the Nyquist mode of every axis, and one point
    scaled by 10^U(-10, 0) toward zero. Each returns finite values or
    raises a typed ModelError, VanishingSpinor exactly when the field
    fails the nonvanishing floor."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_LAGRANGIAN_EDGE_GRIDS), st.floats(0.0, 6.0),
           st.integers(0, 2**31 - 1), st.floats(-10.0, 0.0),
           st.sampled_from([-2.0, -0.5, 0.5, 1.0, 3.0]))
    @example(_LAGRANGIAN_EDGE_GRIDS[0], 6.0, 0, -10.0, 1.0)  # below the floor
    @example(_LAGRANGIAN_EDGE_GRIDS[1], 6.0, 1, 0.0, -2.0)
    @example(_LAGRANGIAN_EDGE_GRIDS[2], 3.0, 2, -3.0, 0.5)
    def test_finite_or_typed_error(self, case, log10_cond, seed, log10_scale, p0):
        grid = TorusGrid(*case)
        rng = np.random.default_rng(seed)
        metric = _ill_conditioned_metric(rng, log10_cond)
        pauli = build_pauli(metric)
        eta = _near_nyquist_spinor(grid, rng)
        eta[tuple(rng.integers(0, n) for n in grid.dims)] *= 10.0 ** log10_scale
        vanishing = bool(spinor_module._vanishing(_scalar_density(eta)))
        for call in (lambda: lagrangian_stationary(eta, p0, pauli, metric, grid),
                     lambda: lagrangian_weyl(eta, p0, 1, pauli, metric, grid),
                     lambda: lagrangian_weyl(eta, p0, -1, pauli, metric, grid)):
            try:
                density = call()
            except ModelError as exc:
                assert vanishing and isinstance(exc, VanishingSpinor), exc
            else:
                assert not vanishing and np.isfinite(density).all()


def _anticommutators(sigma):
    """sigma_a sigma_b + sigma_b sigma_a for every pair (a, b) at once."""
    return sigma[:, np.newaxis] @ sigma[np.newaxis] + sigma[np.newaxis] @ sigma[:, np.newaxis]


def _one_factor_residuals(seed, log10_cond):
    """The residuals of `TestOneMetricFactorAtTheEdges` on one drawn
    metric, plane wave and spinor, each relative to its scale."""
    grid = TorusGrid((4, 6, 8), (1.0, 2.0, 3.0))
    rng = np.random.default_rng(seed)
    metric = _ill_conditioned_metric(rng, log10_cond)
    pauli = build_pauli(metric)
    # g^ab by polarisation of the package's contraction g^ab x_a x_b
    unit = np.eye(3)
    g_upper = (metric.covector_norm2(unit[:, np.newaxis] + unit)
               - metric.covector_norm2(unit[:, np.newaxis] - unit)) / 4.0
    k = rng.integers(-1, 2, size=3)
    k[rng.integers(3)] = 1  # a nonzero mode vector
    spec, _ = planewave_solution(k, 1, metric, grid)
    kk = 2.0 * np.pi * k / np.asarray(grid.box)
    kslash = np.einsum("a,akl->kl", kk, pauli.sigma_upper)
    xi = random_nonvanishing_spinor(grid, rng, amplitude=0.25, max_mode=1)
    theta, rho = spinor_to_frame(xi, pauli, metric, grid)
    rec, _ = frame_to_spinor(theta, rho, pauli, metric)
    return {
        "clifford_lower": _rel(_anticommutators(pauli.sigma_lower),
                               2.0 * metric.g_lower[..., np.newaxis, np.newaxis] * np.eye(2)),
        "clifford_upper": _rel(_anticommutators(pauli.sigma_upper),
                               2.0 * g_upper[..., np.newaxis, np.newaxis] * np.eye(2)),
        # relative to |g^ab| |k_a| |k_b|, the scale of the contraction's rounding
        "plane_wave": np.abs(kslash @ kslash - spec.p0**2 * np.eye(2)).max()
        / (np.abs(kk) @ np.abs(g_upper) @ np.abs(kk)),
        "fierz": fierz_residual(xi, pauli, metric, grid),
        "orthonormality": orthonormality_residual(theta, metric).max()
        / np.abs(metric.g_lower).max(),
        "round_trip": min(np.abs(rec - xi).max(), np.abs(rec + xi).max()) / np.abs(xi).max(),
    }


class TestOneMetricFactorAtTheEdges:
    """The Pauli set, the g^ab contraction and the dictionary, all from
    one Cholesky factor of the metric, on metrics up to nine decades of
    condition: no residual grows as eps times the condition. Each bound
    of `BOUNDS` sits about ten times above the worst of 20000 seeded
    draws of condition up to 1e9 on this grid (4.4e-16, 5.4e-16,
    4.4e-16, 1.2e-12, 1.3e-15 and 2.3e-12 in their order). p0^2
    contracted with a computed inverse of g, or sigma_a lowered from
    sigma^a with g_ab, exceeds them at the condition-1e9 example."""

    BOUNDS = {"clifford_lower": 4e-15, "clifford_upper": 5e-15, "plane_wave": 5e-15,
              "fierz": 1e-11, "orthonormality": 1e-14, "round_trip": 2e-11}

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 9.0))
    @example(823, 9.0)
    @example(0, 0.0)
    def test_identities_do_not_degrade_with_the_condition(self, seed, log10_cond):
        residuals = _one_factor_residuals(seed, log10_cond)
        assert all(residuals[name] <= bound for name, bound in self.BOUNDS.items()), residuals


class TestSpinorField:
    def _setup(self, seed=5):
        metric, pauli, _, (eta, _) = _metric_pauli_and_fields(seed)
        return metric, pauli, eta

    def test_field_and_array_give_identical_results(self):
        metric, pauli, eta = self._setup()
        grid = GRID_468
        field = SpinorField(eta, pauli, grid)
        dxi0 = -0.7j * eta
        for fn in (
            lambda e: spinor_module._field(e, pauli, grid).A,
            lambda e: spinor_module._field(e, pauli, grid).v,
            lambda e: lagrangian_stationary(e, 0.7, pauli, metric, grid),
            lambda e: lagrangian_weyl(e, 0.7, -1, pauli, metric, grid),
            lambda e: factorization_residual(e, 0.7, pauli, metric, grid),
            lambda e: fierz_residual(e, pauli, metric, grid),
            lambda e: lagrangian_dynamic(e, dxi0, pauli, metric, grid),
            lambda e: weyl_residual(e, 0.7, 1, pauli, grid),
            lambda e: el_gradient(e, 0.7, pauli, metric, grid),
            lambda e: el_residual_fd(e, 0.7, pauli, metric, grid, probes=8),
            lambda e: spinor_to_frame(e, pauli, metric, grid)[0],
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
        el_residual_fd(field, 0.5, pauli, metric, GRID_468, probes=4)
        # sigma^a d_a eta once for the field, shared by the FD probes, and
        # once for G eta in the EL gradient
        assert len(dirac) == 2

    def test_v_is_built_only_where_read(self, count_calls):
        metric, pauli, eta = self._setup()
        maps = count_calls("_covector", spinor_module, correspondence_module)
        field = SpinorField(eta, pauli, GRID_468)
        lagrangian_stationary(field, 0.5, pauli, metric, GRID_468)
        factorization_residual(field, 0.5, pauli, metric, GRID_468)
        scaling_covariance_residual(field, 0.1 * field.s, 0.5, pauli, metric, GRID_468)
        el_gradient(field, 0.5, pauli, metric, GRID_468)
        el_residual_fd(field, 0.5, pauli, metric, GRID_468, probes=8)
        theorem_witness_suite(1, GRID_468, metric, n_cases=2)
        assert maps == []  # no check of the field or of a probe reads v
        fierz_residual(field, pauli, metric, GRID_468)
        fierz_residual(field, pauli, metric, GRID_468)
        assert len(maps) == 1  # built on the first read, then cached
        other = SpinorField(eta, pauli, GRID_468)
        spinor_to_frame(other, pauli, metric, GRID_468)
        assert len(maps) == 2
        assert "v" not in vars(other)  # the caller's field does not keep it

    def test_stationary_density_of_an_array_keeps_the_bits(self):
        # (36, 32, 32) is five x1 slabs, the last short; the function's
        # own field drops s and sigma^a d_a eta, a given one keeps them
        grid = TorusGrid((36, 32, 32), (5.0, 7.0, 9.0))
        rng = np.random.default_rng(17)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng, amplitude=0.1, max_mode=1)
        field = SpinorField(eta, pauli, grid)
        held = {name: getattr(field, name) for name in ("s", "slash", "A")}
        lag = lagrangian_stationary(field, 0.7, pauli, metric, grid)
        assert all(vars(field)[name] is value for name, value in held.items())
        fresh = lagrangian_stationary(SpinorField(eta, pauli, grid), 0.7, pauli, metric, grid)
        from_array = lagrangian_stationary(eta, 0.7, pauli, metric, grid)
        assert np.array_equal(from_array.view(np.uint64), fresh.view(np.uint64))
        assert np.array_equal(from_array.view(np.uint64), lag.view(np.uint64))

    def test_scaling_leaves_a_given_field_as_it_was(self, count_calls):
        # the residual makes eta's arrays on a copy of the field, so the
        # field keeps none of them, and keeps the arrays it already held
        metric, pauli, eta = self._setup()
        dirac = count_calls("_dirac", spinor_module, weyl_module)
        field = SpinorField(eta, pauli, GRID_468)
        h = 0.1 * field.s

        def residuals_keep_the_fields_arrays():
            before = dict(vars(field))
            residuals = scaling_covariance_residual(field, h, 0.5, pauli, metric, GRID_468)
            assert vars(field).keys() == before.keys()
            assert all(vars(field)[name] is value for name, value in before.items())
            return residuals

        first = residuals_keep_the_fields_arrays()
        assert len(dirac) == 2 and "slash" not in vars(field)
        field.A
        assert residuals_keep_the_fields_arrays() == first
        assert len(dirac) == 2 + 1 + 1  # field.A, then only e^h eta

    def test_field_for_other_pauli_set_or_grid_rejected(self):
        metric, pauli, eta = self._setup()
        other_pauli = build_pauli(random_spd_metric(np.random.default_rng(99)))
        other_grid = TorusGrid((4, 6, 8), (5.0, 7.0, 9.5))
        field = SpinorField(eta, pauli, GRID_468)
        calls = [
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
        # a set whose v would be complex is rejected when it is built, so
        # no field or probe is ever evaluated on one
        _, pauli, _ = self._setup()
        with pytest.raises(NotHermitian, match="not Hermitian"):
            dataclasses.replace(pauli, sigma_lower=1j * pauli.sigma_lower)
        with pytest.raises(NotHermitian):
            PauliSet(sigma_upper=pauli.sigma_upper, sigma_lower=1j * pauli.sigma_lower)
        assert issubclass(NotHermitian, ModelError)
