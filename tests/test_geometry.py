"""Core geometry: metric, grid, Pauli matrices, spectral derivatives,
form norms, integration."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosserat_weyl import (
    InvalidAxis,
    Metric3,
    MetricNotSPD,
    NotHermitian,
    TorusGrid,
    build_pauli,
    integrate,
    spectral_partial,
)
from cosserat_weyl.cosserat import (_induced_det, _norm2_2form, _potential_density,
                                    _triple_product, kinetic_2form)
from cosserat_weyl.geometry import (PAULI_1, PAULI_2, PAULI_3, _plane_wave, _plane_waves,
                                    _wedge_component)
from cosserat_weyl.sampling import (random_bandlimited_scalar, random_nonvanishing_spinor,
                                    random_spd_metric, rotating_coframe)
from cosserat_weyl.spinor import _sandwich, _scalar_density

from helpers import einsum_gram, su2_conjugate

TWO_PI = 2.0 * np.pi


def _wedge_1_1(a, b):
    """Test-local wedge of two covector fields as a 2-form, components
    (w_23, w_31, w_12): the pointwise cross product."""
    return np.stack([_wedge_component(a, b, i) for i in range(3)], axis=-1)


class TestMetric3:
    def test_identity(self):
        m = Metric3.identity()
        assert np.array_equal(m.g_lower, np.eye(3)) and np.array_equal(m.factor, np.eye(3))
        assert m.sqrt_det == 1.0

    def test_factor_and_det(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_spd_metric(rng)
            assert np.array_equal(m.factor, np.tril(m.factor)) and (np.diag(m.factor) > 0).all()
            residual = np.abs(m.factor @ m.factor.T - m.g_lower).max()
            assert residual <= 1e-14 * np.abs(m.g_lower).max()
            assert m.sqrt_det == pytest.approx(np.sqrt(np.linalg.det(m.g_lower)), rel=1e-14)

    def test_covector_norm_is_the_inverse_metric_contraction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_spd_metric(rng)
            x = rng.normal(size=(5, 3))
            want = np.einsum("na,ab,nb->n", x, np.linalg.inv(m.g_lower), x)
            assert np.abs(m.covector_norm2(x) - want).max() <= 1e-14 * want.max()
            assert m.covector_norm2(x[0]) == pytest.approx(want[0], rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_symmetry_tolerance_scales_with_the_entries(self, scale):
        # Q diag(1e-4, 1, 1e4) Q^T is asymmetric at rounding, by 4.5e-13 on
        # entries up to 8.8e3, above an absolute 1e-13, and is accepted at
        # any scale; an asymmetry of 1e-12 of the largest entry is not
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
        g = q @ np.diag([1e-4, 1.0, 1e4]) @ q.T
        assert np.abs(g - g.T).max() > 1e-13
        Metric3.from_matrix(scale * g)
        skewed = scale * np.eye(3)
        skewed[0, 1] += 1e-12 * scale
        with pytest.raises(MetricNotSPD, match="not symmetric"):
            Metric3.from_matrix(skewed)

    def test_equality_and_hash_are_by_identity(self):
        # array fields: a generated __eq__ raised ValueError (the truth value
        # of an array) and the generated hash TypeError
        a, b = Metric3.identity(), Metric3.identity()
        assert a == a and a != b and len({a, b, a}) == 2
        pa, pb = build_pauli(a), build_pauli(b)
        assert pa == pa and pa != pb and len({pa, pb, pa}) == 2

    def test_rejects_non_spd(self):
        with pytest.raises(MetricNotSPD, match=r"not positive definite, eigenvalues \[-1"):
            Metric3.from_matrix(np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(MetricNotSPD):
            Metric3.from_matrix([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(MetricNotSPD):
            Metric3.from_matrix(np.zeros((2, 2)))
        for bad in (np.inf, np.nan):
            with pytest.raises(MetricNotSPD, match="non-finite"):
                Metric3.from_matrix(np.diag([bad, 1.0, 1.0]))
        # finite SPD entries whose determinant or inverse overflows or
        # underflows (a subnormal determinant included); sqrt(det g) of diag(1e200, 1e200, 1)
        # and diag(1e308, 100, 1) is finite but det g is not
        for diag in ([1e300] * 3, [1e-200] * 3, [1.0, 1.0, 1e-320], [1e10, 1e10, 1e-309],
                     [1.0, 1e300, 1e-309], [1e200, 1e200, 1.0], [1e308, 100.0, 1.0]):
            with pytest.raises(MetricNotSPD, match="not a finite normal float"):
                Metric3.from_matrix(np.diag(diag))


class TestTorusGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorusGrid((15, 16, 16), (1.0, 1.0, 1.0))  # odd
        with pytest.raises(ValueError):
            TorusGrid((2, 16, 16), (1.0, 1.0, 1.0))  # too small
        with pytest.raises(ValueError):
            TorusGrid((8, 8, 8), (1.0, -1.0, 1.0))  # bad box
        with pytest.raises(ValueError, match="integers"):
            TorusGrid((8, 8, 4.9), (1.0, 1.0, 1.0))  # int() would read 4

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_rejects_non_finite_box(self, length):
        with pytest.raises(ValueError, match="finite"):
            TorusGrid((8, 8, 8), (1.0, length, 1.0))

    @pytest.mark.parametrize("box", ["579", ["5", "7", "9"], [True, 1, 1], (1.0, np.True_, 1.0)])
    def test_rejects_a_box_of_strings_or_bools(self, box):
        # float() would read "579" as (5, 7, 9) and True as 1
        with pytest.raises(ValueError, match="box lengths numbers"):
            TorusGrid((8, 8, 8), box)

    def test_box_lengths_of_any_real_type(self):
        box = TorusGrid((8, 8, 8), (np.float32(0.5), np.int64(2), 3)).box
        assert box == (0.5, 2.0, 3.0) and all(type(length) is float for length in box)

    def test_wavenumbers_cached_and_read_only(self):
        g = TorusGrid((4, 6, 8), (5.0, 7.0, 9.0))
        k = g.wavenumber(2)
        assert k is g.wavenumber(2)
        assert k[3] == 0.0 and k[1] == pytest.approx(TWO_PI / 7.0)
        with pytest.raises(ValueError):
            k[1] = 0.0
        with pytest.raises(InvalidAxis):
            g.wavenumber(4)

    @pytest.mark.parametrize("axis", [0, 4])
    def test_axis_coords_rejects_an_invalid_axis(self, axis):
        with pytest.raises(InvalidAxis, match=f"got {axis}"):
            TorusGrid((4, 6, 8), (5.0, 7.0, 9.0)).axis_coords(axis)

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
        # g = diag(4,1,1): L = diag(2,1,1) so sigma^1 = sigma_x / 2 and sigma_1 = 2 sigma_x
        m = Metric3.diagonal(4.0, 1.0, 1.0)
        p = build_pauli(m)
        assert np.array_equal(p.sigma_upper[0], PAULI_1 / 2.0)
        assert np.array_equal(p.sigma_lower[0], 2.0 * PAULI_1)
        s = p.sigma_upper
        anti = s[:, np.newaxis] @ s[np.newaxis] + s[np.newaxis] @ s[:, np.newaxis]
        target = 2.0 * np.diag([0.25, 1.0, 1.0])[..., np.newaxis, np.newaxis] * np.eye(2)
        assert np.abs(anti - target).max() <= 1e-14

    def test_anticommutator_100_random_metrics(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = random_spd_metric(rng)
            s = build_pauli(m).sigma_upper
            # sigma^a sigma^b + sigma^b sigma^a for all (a, b) pairs at once
            anti = s[:, np.newaxis] @ s[np.newaxis] + s[np.newaxis] @ s[:, np.newaxis]
            target = 2.0 * np.linalg.inv(m.g_lower)[..., np.newaxis, np.newaxis] * np.eye(2)
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


def _skew(sigma):
    """max |sigma_n - sigma_n^dagger| over a triple of 2x2 matrices."""
    return float(np.abs(sigma - sigma.conj().swapaxes(-1, -2)).max())


def _anti_hermitian(rng, skew):
    """A random anti-Hermitian triple K with max |K - K^dagger| = skew."""
    x = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    k = x - x.conj().swapaxes(-1, -2)
    return k * (0.5 * skew / np.abs(k).max())


class TestPauliSetHermitian:
    """A `PauliSet` is built only with sigma_lower Hermitian to 1e-13, which
    bounds |Im v| by 1e-13 s for every field: v needs no later check."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 6.0))
    @example(0, 6.0)
    def test_tolerance_and_im_v_bound(self, seed, log10_cond):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        g = q @ np.diag(10.0 ** (log10_cond * rng.uniform(-0.5, 0.5, size=3))) @ q.T
        sets = []
        for metric in (random_spd_metric(rng), Metric3.from_matrix(0.5 * (g + g.T))):
            pauli = build_pauli(metric)
            sets += [pauli, su2_conjugate(pauli, rng)]  # both construct
        # anti-Hermitian perturbations either side of the tolerance, on the
        # sets of the random metric (entries of order 1, so rounding stays
        # far below the 0.2e-13 margins)
        for pauli in sets[:2]:
            with pytest.raises(NotHermitian):
                dataclasses.replace(pauli, sigma_lower=pauli.sigma_lower
                                    + _anti_hermitian(rng, 1.2e-13))
            sets.append(dataclasses.replace(
                pauli, sigma_lower=pauli.sigma_lower + _anti_hermitian(rng, 0.8e-13)))
        # |Im etabar sigma_n eta| <= s max |sigma - sigma^dagger| pointwise, on
        # the accepted sets and on a random complex triple
        grid = TorusGrid((4, 6, 8), (5.0, 7.0, 9.0))
        eta = random_nonvanishing_spinor(grid, rng, amplitude=0.5, max_mode=2)
        s = _scalar_density(eta)[..., np.newaxis]
        eps = np.finfo(float).eps
        for sigma in [p.sigma_lower for p in sets] + [rng.normal(size=(3, 2, 2))
                                                     + 1j * rng.normal(size=(3, 2, 2))]:
            im_v = np.abs(_sandwich(eta, sigma, eta).imag)
            assert np.all(im_v <= (_skew(sigma) + 8.0 * eps * np.abs(sigma).max()) * s)

    def test_skew_exactly_at_tolerance_accepted(self):
        # the diagonal of a build_pauli set is real: an imaginary part of
        # exactly half the tolerance gives exactly the tolerance
        pauli = build_pauli(Metric3.identity())
        at = pauli.sigma_lower + np.diag([0.5e-13j, 0.0])
        assert _skew(at) == 1e-13
        dataclasses.replace(pauli, sigma_lower=at)
        above = pauli.sigma_lower + np.diag([np.nextafter(0.5e-13, 1.0) * 1j, 0.0])
        with pytest.raises(NotHermitian, match="not Hermitian"):
            dataclasses.replace(pauli, sigma_lower=above)


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

    @pytest.mark.parametrize("dims", [(4, 4, 4), (12, 16, 8), (4, 6, 8), (16, 12, 20)])
    def test_real_branch_matches_complex_path(self, dims):
        # a random real field holds every mode up to N/2 - 1 and the
        # Nyquist mode on each axis; the rfft branch must agree with the
        # fft of its complex copy and stay a contiguous real array
        g = TorusGrid(dims, (5.0, 0.7, 9.0))
        rng = np.random.default_rng(sum(dims))
        for f in (rng.normal(size=dims), rng.normal(size=dims + (3,))):
            for axis in (1, 2, 3):
                got = spectral_partial(f, axis, g)
                want = spectral_partial(f.astype(complex), axis, g)
                assert got.dtype == float and got.flags.c_contiguous
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("dims", [(4, 4, 4), (12, 16, 8), (4, 6, 8)])
    def test_real_branch_at_the_highest_modes(self, dims):
        # cos and sin of mode N/2 - 1 along each axis differentiate
        # exactly; the real Nyquist mode has zero derivative, as its
        # wavenumber is zeroed
        g = TorusGrid(dims, (5.0, 0.7, 9.0))
        for axis in (1, 2, 3):
            n, length = dims[axis - 1], g.box[axis - 1]
            modes = [0, 0, 0]
            modes[axis - 1] = n // 2 - 1
            wave = _plane_wave(g, modes, 1.0)
            k = 2.0 * np.pi * (n // 2 - 1) / length
            for f, df in ((wave.real, -k * wave.imag), (wave.imag, k * wave.real)):
                assert np.abs(spectral_partial(f, axis, g) - df).max() <= 1e-14 * k
            modes[axis - 1] = n // 2
            nyquist = _plane_wave(g, modes, 1.0).real
            k_nyq = np.pi * n / length
            assert np.abs(spectral_partial(nyquist, axis, g)).max() <= 1e-14 * k_nyq
            assert np.abs(spectral_partial(nyquist.astype(complex), axis, g)).max() \
                <= 1e-14 * k_nyq

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


PLANE_WAVE_GRIDS = [
    TorusGrid((4, 4, 4), (TWO_PI,) * 3),
    TorusGrid((12, 16, 8), (1.0, 2.5, 7.0)),
    TorusGrid((64, 64, 64), (TWO_PI,) * 3),
]


def _edge_modes(grid, rng, n_comp, n_terms):
    """Random modes within the resolved band, the first two terms of
    each component at +-(N/2 - 1) on every axis."""
    top = np.array([n // 2 - 1 for n in grid.dims])
    modes = rng.integers(-top, top + 1, size=(n_comp, n_terms, 3))
    modes[:, 0], modes[:, 1] = top, -top
    return modes


class TestPlaneWaves:
    @pytest.mark.parametrize("grid", PLANE_WAVE_GRIDS, ids=lambda g: "x".join(map(str, g.dims)))
    def test_single_wave_is_the_broadcast_product(self, grid):
        # bit for bit: plane-wave solutions keep the separable rounding of
        # ((c e1) e2) e3, which a BLAS product may change in the last bit
        rng = np.random.default_rng(1)
        for modes in _edge_modes(grid, rng, 1, 6)[0]:
            coeff = complex(rng.normal(), rng.normal())
            e1, e2, e3 = (np.exp(1j * (m * (2.0 * np.pi / n)) * np.arange(n))
                          for m, n in zip(modes, grid.dims))
            want = (coeff * e1)[:, None, None] * e2[:, None] * e3
            for m in (modes, [int(x) for x in modes]):
                assert np.array_equal(_plane_wave(grid, m, coeff), want)

    @pytest.mark.parametrize("grid", PLANE_WAVE_GRIDS, ids=lambda g: "x".join(map(str, g.dims)))
    @pytest.mark.parametrize("n_comp, n_terms", [(1, 6), (2, 4), (2, 1)])
    def test_sum_matches_single_waves(self, grid, n_comp, n_terms):
        rng = np.random.default_rng(n_comp * 10 + n_terms)
        modes = _edge_modes(grid, rng, n_comp, max(n_terms, 2))[:, :n_terms]
        coeffs = rng.normal(size=(n_comp, n_terms)) + 1j * rng.normal(size=(n_comp, n_terms))
        got = _plane_waves(grid, modes, coeffs)
        assert got.shape == grid.dims + (n_comp,)
        # each component plane C-contiguous, the sum a view of one (C,) + dims block
        assert got.dtype == np.complex128 and np.moveaxis(got, -1, 0).flags.c_contiguous
        for c in range(n_comp):
            want = sum(_plane_wave(grid, m, coeff) for m, coeff in zip(modes[c], coeffs[c]))
            assert np.abs(got[..., c] - want).max() <= 1e-14 * np.abs(coeffs[c]).sum()


def _constant_coframe(grid, frame):
    """The coframe whose j-th covector is row j of ``frame`` at every point."""
    return np.broadcast_to(np.asarray(frame)[:, np.newaxis, np.newaxis, np.newaxis, :],
                           (3,) + grid.shape + (3,))


class TestFormNorms:
    """The coframe energetics' form norms, taken in the induced metric."""

    def test_constant_3form(self, grid8):
        # rotating coframe angle x3: f = -2/3, det g_ind = 1, so f^2 / det g = 4/9
        theta = rotating_coframe(grid8, grid8.coords()[2])
        norm2 = _potential_density(theta, grid8, _induced_det(theta))
        assert np.abs(norm2 - 4.0 / 9.0).max() <= 1e-15

    def test_3form_metric_scaling(self, grid8):
        # theta -> sqrt(c) theta takes g_ind to c g_ind: det by c^3 and
        # f by c, hence the squared norm by c^-1
        rng = np.random.default_rng(1)
        mix = np.linalg.cholesky(random_spd_metric(rng).g_lower)
        theta = np.einsum("jk,k...->j...", mix, rotating_coframe(grid8, grid8.coords()[2]))
        c = 1.7
        scaled = np.sqrt(c) * theta
        ratio = (_potential_density(scaled, grid8, _induced_det(scaled))
                 / _potential_density(theta, grid8, _induced_det(theta)).clip(1e-300))
        assert np.abs(ratio - 1.0 / c).max() <= 1e-12

    def test_zero_forms(self, grid8):
        theta = _constant_coframe(grid8, np.eye(3))
        det_ind = _induced_det(theta)
        assert np.abs(_norm2_2form(np.zeros(grid8.shape + (3,)), theta, det_ind)).max() == 0.0
        # a constant coframe has no torsion
        assert np.abs(_potential_density(theta, grid8, det_ind)).max() == 0.0

    def test_2form_identity_metric(self, grid8):
        # single component w_12 = 3: (1/2)(w_12^2 + w_21^2) = 9
        omega = np.zeros(grid8.shape + (3,))
        omega[..., 2] = 3.0
        theta = _constant_coframe(grid8, np.eye(3))
        norm2 = _norm2_2form(omega, theta, _induced_det(theta))
        assert np.abs(norm2 - 9.0).max() <= 1e-14

    def test_wedge_and_triple_product_are_cross_products(self):
        # written out component by component, bit for bit as np.cross,
        # and the triple product sums its three terms left to right
        rng = np.random.default_rng(7)
        theta = rng.normal(size=(3, 12, 16, 8, 3))
        cross = np.cross(theta[1], theta[2])
        assert np.array_equal(_wedge_1_1(theta[1], theta[2]), cross)
        terms = theta[0] * cross
        assert np.array_equal(_triple_product(theta),
                              terms[..., 0] + terms[..., 1] + terms[..., 2])

    def test_kinetic_2form_is_the_stacked_wedge_sum(self):
        # each wedge component is added in place, bit for bit as the sum
        # of the three stacked wedges
        rng = np.random.default_rng(8)
        theta, dtheta0 = rng.normal(size=(2, 3, 12, 16, 8, 3))
        stacked = np.zeros(theta.shape[1:])
        for j in range(3):
            stacked += _wedge_1_1(theta[j], dtheta0[j])
        assert np.array_equal(kinetic_2form(theta, dtheta0), stacked / 3.0)


def _norm2_2form_full(omega, g_upper):
    """Oracle: (1/2) w_ab w_cd g^ac g^bd from the full antisymmetric
    matrix; g_upper is one 3x3 matrix or one per point."""
    w23, w31, w12 = omega[..., 0], omega[..., 1], omega[..., 2]
    full = np.zeros(omega.shape[:-1] + (3, 3))
    full[..., 1, 2], full[..., 2, 1] = w23, -w23
    full[..., 2, 0], full[..., 0, 2] = w31, -w31
    full[..., 0, 1], full[..., 1, 0] = w12, -w12
    return 0.5 * np.einsum("...ab,...cd,...ac,...bd->...", full, full, g_upper, g_upper)


def _random_frames(rng, shape, scale, cond):
    """Per point scale * U diag(sigma) V^T, U and V random rotations or
    reflections and sigma log-uniform in [1, sqrt(cond)] with both ends
    taken, so the induced metric has condition number cond; theta^1
    flips sign at random points, so both handednesses occur."""
    n = int(np.prod(shape))
    u, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    sigma = np.exp(rng.uniform(0.0, 0.5 * np.log(cond), size=(n, 3)))
    sigma[:, 0], sigma[:, 2] = 1.0, np.sqrt(cond)
    frames = scale * (u * sigma[:, np.newaxis, :]) @ np.swapaxes(v, -1, -2)
    sign = rng.choice([-1.0, 1.0], size=n)
    sign[:2] = (-1.0, 1.0)
    frames[:, 0] *= sign[:, np.newaxis]
    return np.moveaxis(frames.reshape(shape + (3, 3)), -2, 0)


class TestTwoFormNormOracle:
    def test_random_spd_metrics(self, grid8):
        rng = np.random.default_rng(17)
        for _ in range(20):
            # the draws of random_spd_metric, with eigenvalues in [0.05, 20]
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            metric = Metric3.from_matrix(q @ np.diag(rng.uniform(0.05, 20.0, size=3)) @ q.T)
            # the constant coframe Theta = L^T, g = L L^T, induces the metric
            theta = _constant_coframe(grid8, np.linalg.cholesky(metric.g_lower).T)
            omega = rng.normal(size=grid8.shape + (3,))
            oracle = _norm2_2form_full(omega, np.linalg.inv(metric.g_lower))
            assert np.abs(_norm2_2form(omega, theta, _induced_det(theta)) - oracle).max() \
                <= 1e-13 * np.abs(oracle).max()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([(4, 4, 4), (12, 16, 8), (4, 6, 8)]),
           st.floats(-3.0, 3.0), st.floats(0.0, 3.0))
    @example(0, (4, 4, 4), -3.0, 3.0)
    @example(1, (12, 16, 8), 3.0, 3.0)
    def test_frame_components_match_full_oracle(self, seed, shape, log_scale, log_cond):
        # the induced metric's condition number stays <= 1e3: the oracle
        # inverts it, so its own rounding grows with that number
        rng = np.random.default_rng(seed)
        theta = _random_frames(rng, shape, 10.0**log_scale, 10.0**log_cond)
        omega = rng.normal(size=shape + (3,))
        oracle = _norm2_2form_full(omega, np.linalg.inv(einsum_gram(theta)))
        norm2 = _norm2_2form(omega, theta, _induced_det(theta))
        assert np.abs(norm2 - oracle).max() <= 1e-12 * oracle.max()

    def test_induced_metrics(self, grid8):
        # per-point metrics of random (non-orthonormal) coframes, as the
        # coframe energetics use them
        rng = np.random.default_rng(19)
        theta = np.eye(3)[:, np.newaxis, np.newaxis, np.newaxis, :] \
            + 0.2 * rng.normal(size=(3,) + grid8.shape + (3,))
        dtheta0 = rng.normal(size=theta.shape)
        rho = 1.0 + 0.5 * rng.uniform(size=grid8.shape)
        g_ind, det_ind = einsum_gram(theta), _induced_det(theta)
        omega = kinetic_2form(theta, dtheta0)
        oracle = _norm2_2form_full(omega, np.linalg.inv(g_ind))
        assert np.abs(_norm2_2form(omega, theta, det_ind) - oracle).max() \
            <= 1e-12 * np.abs(oracle).max()
        k_oracle = integrate(oracle * rho, grid8)
        k = integrate(_norm2_2form(omega, theta, det_ind) * rho, grid8)
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
