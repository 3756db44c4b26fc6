"""The seeded case generator shared by the `verify` suites, and the
work the scaling suite does per case."""

import numpy as np
import pytest

import cosserat_weyl.spinor as spinor_module
from cosserat_weyl import TorusGrid, build_pauli, scaling_covariance_residual
from cosserat_weyl.sampling import random_nonvanishing_spinor, random_spd_metric
from cosserat_weyl.suites import _seeded_cases, verify_scaling


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_cases_keep_the_explicit_draw_order(grid8, seed):
    # the loop each suite used to write out, with a phase drawn by the
    # caller after the spinor, as verify_u1 does
    rng = np.random.default_rng(seed)
    expected = []
    for i in range(4):
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid8, rng, amplitude=0.15, max_mode=1)
        p0 = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)[i]
        expected.append((metric, pauli, eta, p0, rng.uniform(0.0, 2.0 * np.pi)))

    got = []
    for i, metric, pauli, field, p0, case_rng in _seeded_cases(
            grid8, seed, 4, amplitude=0.15, max_mode=1):
        assert field.pauli is pauli and field.grid is grid8
        got.append((metric, pauli, field.eta, p0, case_rng.uniform(0.0, 2.0 * np.pi)))
        assert i == len(got) - 1

    assert len(got) == len(expected)
    for (m0, s0, e0, p0, u0), (m1, s1, e1, p1, u1) in zip(expected, got):
        np.testing.assert_array_equal(m0.g_lower, m1.g_lower)
        np.testing.assert_array_equal(s0.sigma_lower, s1.sigma_lower)
        np.testing.assert_array_equal(s0.sigma_upper, s1.sigma_upper)
        np.testing.assert_array_equal(e0, e1)
        assert (p0, u0) == (p1, u1)


def test_one_spectral_gradient_per_scaled_field(monkeypatch):
    # a scaling case differentiates eta and e^h eta once each, for both
    # Weyl signs, and reports what the public residual gives per sign
    grid = TorusGrid((12, 16, 8), (6.0, 7.0, 5.0))
    calls = []
    original = spinor_module.spinor_gradient
    monkeypatch.setattr(spinor_module, "spinor_gradient",
                        lambda *args: calls.append(1) or original(*args))
    h = 0.1 * np.cos(2.0 * np.pi * grid.coords()[1] / grid.box[1])
    report = verify_scaling(grid, 4, n_cases=3, h_field=h)
    assert len(calls) == 2 * 3
    monkeypatch.undo()
    expected = [{"case": i, "p0": p0, "weyl_sign": sign,
                 "residual": scaling_covariance_residual(field, h, p0, sign, pauli,
                                                         metric, grid)}
                for i, metric, pauli, field, p0, _ in _seeded_cases(grid, 4, 3,
                                                                    max_mode=1)
                for sign in (1, -1)]
    assert report["cases"] == expected
