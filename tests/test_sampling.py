"""Band-limited samplers: agreement with the full-grid exp/cos
evaluation they replace, the random stream they consume, and their
spectral support."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosserat_weyl import TorusGrid, VanishingSpinor
from cosserat_weyl.geometry import _plane_waves
from cosserat_weyl.sampling import (_check_safely_nonvanishing, _perturbed_unit_spinor, random_bandlimited_scalar,
                                    random_bandlimited_spinor, random_nonvanishing_spinor)


def _angular_coords(grid):
    return [2.0 * np.pi * x / length for x, length in zip(grid.coords(), grid.box)]


def _scalar_oracle(grid, rng, max_mode=2, amplitude=1.0):
    # one full-grid cos per term, drawing modes, phase, coeff per term
    xt = _angular_coords(grid)
    field = np.zeros(grid.shape)
    for _ in range(6):
        modes = rng.integers(-max_mode, max_mode + 1, size=3)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coeff = rng.normal()
        field += coeff * np.cos(modes[0] * xt[0] + modes[1] * xt[1]
                                + modes[2] * xt[2] + phase)
    peak = max(float(np.abs(field).max()), np.finfo(float).tiny)
    return amplitude * field / peak


def _spinor_oracle(grid, rng, max_mode=2, amplitude=1.0):
    # one full-grid complex exp per term, drawing modes, coeff per term
    xt = _angular_coords(grid)
    field = np.zeros(grid.shape + (2,), dtype=complex)
    for comp in range(2):
        for _ in range(4):
            modes = rng.integers(-max_mode, max_mode + 1, size=3)
            coeff = rng.normal() + 1j * rng.normal()
            field[..., comp] += coeff * np.exp(
                1j * (modes[0] * xt[0] + modes[1] * xt[1] + modes[2] * xt[2]))
    peak = max(float(np.abs(field).max()), np.finfo(float).tiny)
    return amplitude * field / peak


def _nonvanishing_oracle(grid, rng, amplitude=0.25, max_mode=2):
    # a unit spinor u, then the scaled band-limited noise added to it
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    u /= np.linalg.norm(u)
    return u + _spinor_oracle(grid, rng, max_mode=max_mode, amplitude=amplitude)


GRIDS = [
    TorusGrid((4, 4, 4), (2 * np.pi,) * 3),
    TorusGrid((12, 16, 8), (1.0, 2.5, 7.0)),
    TorusGrid((64, 64, 64), (2 * np.pi,) * 3),
]


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g.dims)))
@pytest.mark.parametrize("sampler, oracle, kwargs", [
    (random_bandlimited_spinor, _spinor_oracle, {}),
    (random_bandlimited_spinor, _spinor_oracle, {"max_mode": 1, "amplitude": 0.25}),
    (random_bandlimited_scalar, _scalar_oracle, {}),
    (random_bandlimited_scalar, _scalar_oracle, {"max_mode": 1, "amplitude": 0.2}),
    (_perturbed_unit_spinor, _nonvanishing_oracle, {}),
    (random_nonvanishing_spinor, _nonvanishing_oracle, {}),
    (random_nonvanishing_spinor, _nonvanishing_oracle, {"max_mode": 1, "amplitude": 0.1}),
], ids=["spinor", "spinor-small", "scalar", "scalar-small", "perturbed", "nonvanishing",
        "nonvanishing-small"])
def test_matches_full_grid_oracle(grid, sampler, oracle, kwargs):
    for seed in (0, 1):
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        field = sampler(grid, rng, **kwargs)
        expected = oracle(grid, rng_oracle, **kwargs)
        assert field.shape == expected.shape and field.dtype == expected.dtype
        # a scalar is one contiguous grid; a spinor's component planes are
        # each C-contiguous, the field a view of one (2,) + dims block
        assert (field if field.ndim == 3 else np.moveaxis(field, -1, 0)).flags.c_contiguous
        peak = np.abs(expected).max()
        assert np.abs(field - expected).max() <= 1e-14 * peak
        # same draws in the same order: every later draw is unchanged
        assert rng.bit_generator.state == rng_oracle.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(dims=st.tuples(*[st.integers(2, 8).map(lambda h: 2 * h)] * 3),
       box=st.tuples(*[st.floats(0.1, 10.0)] * 3),
       data=st.data(),
       seed=st.integers(0, 2**31 - 1))
def test_spectrum_is_band_limited(dims, box, data, seed):
    grid = TorusGrid(dims, box)
    max_mode = data.draw(st.integers(0, min(dims) // 2 - 1), label="max_mode")
    outside = np.zeros(dims, dtype=bool)
    for axis, n in enumerate(dims):
        m = np.abs(np.fft.fftfreq(n, 1.0 / n)).reshape([-1 if a == axis else 1 for a in range(3)])
        outside |= m > max_mode
    rng = np.random.default_rng(seed)
    scalar = random_bandlimited_scalar(grid, rng, max_mode=max_mode)
    spinor = random_bandlimited_spinor(grid, rng, max_mode=max_mode)
    for field in (scalar, spinor[..., 0], spinor[..., 1]):
        spectrum = np.fft.fftn(field) / grid.num_points
        assert np.abs(spectrum[outside]).max(initial=0.0) <= 1e-14


@pytest.mark.parametrize("s", [[1.0, np.nan], [np.nan, np.nan], [0.05, 1.0]])
def test_guard_rejects_a_non_finite_or_small_draw(s):
    # not min s > 0.05, which a NaN fails too
    with pytest.raises(VanishingSpinor):
        _check_safely_nonvanishing(np.array(s))


def _scalar_draw_spinor(grid, rng, max_mode=2, amplitude=1.0):
    # the sampler with each coefficient drawn as two scalar normals
    modes = np.empty((2, 4, 3), dtype=int)
    coeffs = np.empty((2, 4), dtype=complex)
    for c in range(2):
        for t in range(4):
            modes[c, t] = rng.integers(-max_mode, max_mode + 1, size=3)
            coeffs[c, t] = rng.normal() + 1j * rng.normal()
    field = _plane_waves(grid, modes, coeffs)
    field *= amplitude / max(float(np.abs(field).max()), np.finfo(float).tiny)
    return field


@pytest.mark.parametrize("max_mode", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_one_draw_per_coefficient_keeps_the_stream(seed, max_mode):
    # one rng.normal(size=2) per coefficient gives the values two scalar
    # draws would, and leaves the generator where they would
    grid = TorusGrid((4, 4, 4), (2 * np.pi,) * 3)
    rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    field = random_bandlimited_spinor(grid, rng, max_mode=max_mode, amplitude=0.3)
    assert np.array_equal(field, _scalar_draw_spinor(grid, scalar_rng, max_mode, 0.3))
    assert rng.bit_generator.state == scalar_rng.bit_generator.state
