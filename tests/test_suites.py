"""The seeded case loop shared by the `verify` suites, and the work
the scaling suite does per case."""

import contextlib
import functools
import io
import tracemalloc

import numpy as np
import pytest

import cosserat_weyl.correspondence as correspondence_module
import cosserat_weyl.cosserat as cosserat_module
import cosserat_weyl.sampling as sampling_module
import cosserat_weyl.spinor as spinor_module
import cosserat_weyl.suites as suites_module
import cosserat_weyl.weyl as weyl_module
from cosserat_weyl import (
    ConfigError,
    Metric3,
    TorusGrid,
    VanishingSpinor,
    build_pauli,
    scaling_covariance_residual,
)
from cosserat_weyl.sampling import random_nonvanishing_spinor, random_spd_metric
from cosserat_weyl.cli import main
from cosserat_weyl.suites import (
    VERIFIERS,
    _each_case,
    verify_factorization,
    verify_scaling,
)


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

    def case(i, field, p0, case_rng):
        assert field.grid is grid8
        assert i == len(got)
        got.append((field.pauli.metric, field.pauli, field.eta, p0,
                    case_rng.uniform(0.0, 2.0 * np.pi)))

    _each_case(case, grid8, seed, 4, amplitude=0.15, max_mode=1)

    assert len(got) == len(expected)
    for (m0, s0, e0, p0, u0), (m1, s1, e1, p1, u1) in zip(expected, got):
        np.testing.assert_array_equal(m0.g_lower, m1.g_lower)
        np.testing.assert_array_equal(s0.sigma_lower, s1.sigma_lower)
        np.testing.assert_array_equal(s0.sigma_upper, s1.sigma_upper)
        np.testing.assert_array_equal(e0, e1)
        assert (p0, u0) == (p1, u1)


def test_one_spectral_gradient_per_scaled_field(count_calls):
    # a scaling case applies sigma^a d_a to eta and to e^h eta once each,
    # for both Weyl signs, and reports what the public residual gives per
    # sign
    grid = TorusGrid((12, 16, 8), (6.0, 7.0, 5.0))
    dirac = count_calls("_dirac", spinor_module, weyl_module)
    maps = count_calls("_covector", spinor_module, correspondence_module)
    h = 0.1 * np.cos(2.0 * np.pi * grid.coords()[1] / grid.box[1])
    report = verify_scaling(grid, 4, n_cases=3, h_field=h)
    assert len(dirac) == 2 * 3
    assert maps == []  # nothing reads v
    expected = []

    def case(i, field, p0, _):
        expected.extend({"case": i, "p0": p0, "weyl_sign": sign, "residual": res}
                        for sign, res in zip((1, -1),
                                             scaling_covariance_residual(field, h, p0)))

    _each_case(case, grid, 4, 3, max_mode=1)
    assert report["cases"] == expected


@pytest.mark.parametrize("suite,per_case", [("factorization", 1), ("fierz", 0),
                                            ("u1", 2), ("correspondence", 0)])
def test_seeded_suites_build_no_gradient_stack(count_calls, suite, per_case):
    # sigma^a d_a, the only derivative of a spinor field, is applied once
    # per field that needs A (u1 has the field and its phase-rotated
    # copy; scaling: see above). The covector v is built once per field
    # whose residual reads it: the Fierz identity, the phase check of u1,
    # and in correspondence theta^3 of spinor_to_frame and the handedness
    # check on the spinor frame_to_spinor lifts; factorization reads none
    grid = TorusGrid((12, 16, 8), (6.0, 7.0, 5.0))
    dirac = count_calls("_dirac", spinor_module, weyl_module)
    maps = count_calls("_covector", spinor_module, correspondence_module)
    VERIFIERS[suite](grid, 2, n_cases=3)
    assert len(dirac) == per_case * 3
    v_per_case = {"factorization": 0, "fierz": 1, "u1": 2, "correspondence": 2}[suite]
    assert len(maps) == v_per_case * 3


def test_seeded_case_guard_reads_the_fields_density(count_calls):
    # the 0.05 guard of random_nonvanishing_spinor runs on the case
    # field's own s, so s is computed once per case, not once for the
    # guard and again for the checks
    densities = count_calls("_scalar_density", spinor_module, sampling_module)
    _each_case(lambda i, field, p0, rng: field.s,
               TorusGrid((8, 8, 8), (6.0,) * 3), 3, 4)
    assert len(densities) == 4


def test_correspondence_computes_s_once_per_case(count_calls):
    # spinor_to_frame takes the case field, whose s the seeded guard has
    # already computed
    densities = count_calls("_scalar_density", spinor_module, sampling_module,
                            weyl_module)
    VERIFIERS["correspondence"](TorusGrid((8, 8, 8), (6.0,) * 3), 1, n_cases=3)
    assert len(densities) == 3


def test_correspondence_checks_each_frame_once(count_calls):
    # the report's orthonormality is the residual the inverse map checked
    residual = cosserat_module.orthonormality_residual
    bound = [m for m in (cosserat_module, correspondence_module, suites_module)
             if hasattr(m, "orthonormality_residual")]
    ortho = count_calls("orthonormality_residual", *bound)
    report = VERIFIERS["correspondence"](TorusGrid((8, 8, 8), (6.0,) * 3), 1, n_cases=3)
    assert len(ortho) == 3
    assert [c["orthonormality"] for c in report["cases"]] == [
        float(residual(theta, metric).max()) for (theta, metric), _ in ortho]


def test_seeded_case_guard_rejects_a_vanishing_draw():
    # amplitude 1 perturbs the unit spinor by as much as itself: some
    # draw comes within 0.05 of zero, and the case raises as the public
    # sampler does on the same draw
    grid = TorusGrid((8, 8, 8), (6.0,) * 3)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        random_spd_metric(rng)
        try:
            random_nonvanishing_spinor(grid, rng, amplitude=1.0)
        except VanishingSpinor:
            break
    else:
        pytest.fail("no vanishing draw among the seeds")
    with pytest.raises(VanishingSpinor, match="not safely nonvanishing"):
        _each_case(lambda *case: None, grid, seed, 1, amplitude=1.0)


def test_a_wrong_factorization_sign_fails_the_gate(monkeypatch, capsys):
    # the residual uses the one constant and searches no sign, so with
    # the other sign it is 2|L| and the suite and the command both fail
    grid = TorusGrid((8, 8, 8), (2.0 * np.pi,) * 3)
    assert verify_factorization(grid, 0, n_cases=4)["pass"]
    monkeypatch.setattr(spinor_module, "FACTORIZATION_SIGN", 1)
    report = verify_factorization(grid, 0, n_cases=4)
    assert not report["pass"]
    assert report["max_residual"] == pytest.approx(2.0)
    assert main(["verify", "factorization", "--cases", "4", "--grid", "8,8,8"]) == 1
    assert '"verdict": "fail"' in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["factorization", "fierz", "u1", "scaling", "correspondence"])
def test_no_case_is_held_while_the_next_is_drawn(monkeypatch, suite):
    # memory traced at the start of each draw: a case still held (its
    # field, or arrays its checks made) while the next one is drawn shows
    # as 2.5-15 MiB more at draws 1 and 2 than at draw 0
    grid = TorusGrid((64, 32, 32), (2.0 * np.pi,) * 3)
    draw = suites_module._perturbed_unit_spinor
    live = []

    def traced_draw(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return draw(*args, **kwargs)

    monkeypatch.setattr(suites_module, "_perturbed_unit_spinor", traced_draw)
    argv = ["verify", suite, "--cases", "3", "--grid", "64,32,32"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    finally:
        tracemalloc.stop()
    eta_bytes = grid.num_points * 2 * 16
    assert len(live) == 3
    assert max(live) - live[0] <= 0.05 * eta_bytes


@pytest.mark.parametrize("suite,bound", [("factorization", 4.75), ("fierz", 4.25),
                                         ("u1", 6.0), ("scaling", 6.0)])
def test_traced_peak_of_one_case(suite, bound):
    # the tracemalloc peak of one 32^3 case, in eta's bytes, reads 4.26
    # (factorization), 3.76 (fierz), 5.26 (u1) and 4.70 (scaling). u1 and
    # scaling read 9.01 and 7.07 while both fields' sigma^a d_a eta, and
    # in u1 both v, were alive at once
    grid = TorusGrid((32, 32, 32), (2.0 * np.pi,) * 3)
    VERIFIERS[suite](grid, 0, n_cases=1)  # one-time allocations untraced
    tracemalloc.start()
    try:
        VERIFIERS[suite](grid, 1, n_cases=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * grid.num_points * 2 * 16


@pytest.mark.parametrize("n_cases", [0, -1])
@pytest.mark.parametrize("suite", ["factorization", "fierz", "u1", "scaling", "correspondence",
                                   "theorem"])
def test_a_suite_of_no_cases_is_rejected(grid8, suite, n_cases):
    # an empty cases list would check nothing and pass
    if suite == "theorem":
        run = functools.partial(weyl_module.theorem_witness_suite, 0, grid8, Metric3.identity())
    else:
        run = functools.partial(VERIFIERS[suite], grid8, 0)
    with pytest.raises(ConfigError, match=f"n_cases must be at least 1, got {n_cases}"):
        run(n_cases=n_cases)
