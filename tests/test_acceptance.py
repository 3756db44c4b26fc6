"""Acceptance gate: one test per headline guarantee, each printing a
single PASS/FAIL line with the measured residual before asserting.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as
they are produced.
"""

import time

import numpy as np

from cosserat_weyl import (
    FACTORIZATION_SIGN,
    TorusGrid,
    build_pauli,
    el_gradient_fd_check,
    lagrangian_coframe,
    lagrangian_stationary,
    planewave_solution,
    stationary_frame_path,
    theorem_witness_suite,
)
from cosserat_weyl.sampling import (
    random_nonvanishing_spinor,
    random_spd_metric,
    random_wavevector,
)
import cosserat_weyl.suites as suites_module
from cosserat_weyl.suites import (
    verify_conformal,
    verify_correspondence,
    verify_factorization,
    verify_scaling,
)

TWO_PI = 2.0 * np.pi
SEED = 20260823


def _grid(n):
    return TorusGrid((n, n, n), (TWO_PI, TWO_PI, TWO_PI))


def _report(number, label, ok, detail):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_acceptance_1_factorization():
    """100 random nonvanishing spinors, random SPD metrics,
    p0 in {+-0.5, +-1, +-2} on a 16^3 grid: pointwise relative
    factorisation residual <= 1e-10 with the one global sign
    FACTORIZATION_SIGN."""
    start = time.perf_counter()
    result = verify_factorization(_grid(16), SEED, n_cases=100)
    elapsed = time.perf_counter() - start
    ok = result["pass"] and elapsed <= 30.0
    _report(1, "factorization identity", ok,
            f"max rel residual {result['max_residual']:.3e}, "
            f"sign {FACTORIZATION_SIGN}, {elapsed:.1f}s")


def test_acceptance_2_scaling_covariance(monkeypatch):
    """20 seeded (eta, h) pairs with band-limit safety factor >= 4:
    L_pm(e^h eta) = e^{2h} L_pm(eta) to 1e-10."""
    # max_mode 1 fields on a 24^3 grid keep products of e^h with the
    # spinor far below the Nyquist mode, so h may be larger than the
    # suite draws on the CLI's grids
    monkeypatch.setattr(suites_module, "_SCALING_H_AMPLITUDE", 0.3)
    result = verify_scaling(_grid(24), SEED, n_cases=20)
    _report(2, "scaling covariance", result["pass"],
            f"max residual {result['max_residual']:.3e}")


def test_acceptance_3_conformal_invariance():
    """Rotating coframe, e^h = 1.5 + cos x1: relative change of the
    potential energy <= 1e-8 at 32^3 and not increasing from 16^3."""
    res16 = verify_conformal(_grid(16))["cases"][0]["residual"]
    res32 = verify_conformal(_grid(32))["cases"][0]["residual"]
    # the discrete invariance is exact for pointwise-orthonormal
    # coframes, so "decreasing" can only be checked at the noise floor
    ok = res32 <= 1e-8 and res32 <= max(res16, 5e-15)
    _report(3, "conformal invariance of P", ok,
            f"rel change {res16:.3e} @16^3 -> {res32:.3e} @32^3")


def test_acceptance_4_solution_stationarity_witness():
    """16 plane-wave solutions per equation sign on 16^3: Weyl residual
    <= 1e-12, variational residual <= 1e-8, Lagrangian densities
    <= 1e-12 pointwise; 16 perturbed non-solutions per sign stay
    non-stationary (residual >= 1e-3). Runtime <= 60 s."""
    start = time.perf_counter()
    report = theorem_witness_suite(SEED, _grid(16), random_spd_metric(
        np.random.default_rng(SEED)), n_cases=16)
    elapsed = time.perf_counter() - start
    worst = {
        "weyl": max(c["weyl_residual"] for c in report["cases"]
                    if c["kind"] == "solution"),
        "el": max(max(c["el_residual"], c["el_residual_fd"])
                  for c in report["cases"] if c["kind"] == "solution"),
        "L": max(max(c["L_max"], c["Lpm_max"]) for c in report["cases"]
                 if c["kind"] == "solution"),
        "floor": min(c["el_residual"] for c in report["cases"]
                     if c["kind"] == "perturbed"),
    }
    ok = (report["verdict"] == "pass" and elapsed <= 60.0
          and worst["weyl"] <= 1e-12 and worst["el"] <= 1e-8
          and worst["L"] <= 1e-12 and worst["floor"] >= 1e-3)
    _report(4, "solution <-> stationary point", ok,
            f"weyl {worst['weyl']:.2e}, el {worst['el']:.2e}, "
            f"L {worst['L']:.2e}, non-solution floor {worst['floor']:.2e}, "
            f"{elapsed:.1f}s")


def test_acceptance_5_dispersion_relation():
    """50 seeded (k, metric) plane waves satisfy p0^2 = g^ab k_a k_b
    to 1e-12."""
    rng = np.random.default_rng(SEED)
    grid = _grid(16)
    worst = 0.0
    for i in range(50):
        metric = random_spd_metric(rng)
        k = random_wavevector(rng, max_mode=3)
        branch = 1 if i % 2 == 0 else -1
        spec, _ = planewave_solution(k, branch, metric, grid)
        worst = max(worst, spec.dispersion_residual)
    _report(5, "dispersion relation", worst <= 1e-12,
            f"max |p0^2 - g^ab k_a k_b| = {worst:.3e} over 50 cases")


def test_acceptance_6_correspondence():
    """50 seeded spinors: orthonormality of the frame image <= 1e-12
    and sign-blind round trip <= 1e-10."""
    result = verify_correspondence(_grid(16), SEED, n_cases=50)
    _report(6, "spinor <-> coframe dictionary", result["pass"],
            f"max orthonormality {result['max_orthonormality']:.3e}, "
            f"max round trip {result['max_residual']:.3e}")


def test_acceptance_7_lagrangian_equivalence():
    """20 seeded stationary ansaetze: coframe Lagrangian of the induced
    frame path equals the spinor Lagrangian pointwise to 1e-8."""
    grid = _grid(32)
    rng = np.random.default_rng(SEED)
    p0_cycle = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
    worst = 0.0
    for i in range(20):
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng, amplitude=0.1, max_mode=1)
        p0 = p0_cycle[i % len(p0_cycle)]
        theta, dtheta0, rho = stationary_frame_path(eta, p0, pauli, metric, grid)
        lag_frame = lagrangian_coframe(theta, dtheta0, rho, metric, grid)
        lag_spinor = lagrangian_stationary(eta, p0, pauli, metric, grid)
        scale = float(np.abs(lag_spinor).max())
        worst = max(worst, float(np.abs(lag_frame - lag_spinor).max()) / scale)
    _report(7, "coframe/spinor Lagrangian equivalence", worst <= 1e-8,
            f"max pointwise rel difference {worst:.3e} over 20 cases")


def test_acceptance_8_energy_balance_at_solutions():
    """Frames induced from plane-wave solutions balance potential and
    kinetic densities pointwise: |T|^2 = |theta_dot|^2 to 1e-8."""
    grid = _grid(16)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(10):
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        k = random_wavevector(rng, max_mode=3)
        spec, eta = planewave_solution(k, 1 if i % 2 == 0 else -1, metric, grid)
        p0 = abs(spec.p0)
        theta, dtheta0, rho = stationary_frame_path(eta, p0, pauli, metric, grid)
        lag = lagrangian_coframe(theta, dtheta0, rho, metric, grid)
        # either density alone has scale (16/9) p0^2 s sqrt(det g)
        scale = (16.0 / 9.0) * p0 * p0 * float(np.max(rho))
        worst = max(worst, float(np.abs(lag).max()) / scale)
    _report(8, "energy balance at solutions", worst <= 1e-8,
            f"max rel |potential - kinetic| = {worst:.3e} over 10 solutions")


def test_acceptance_9_gradient_cross_check():
    """Analytic variational gradient agrees with central differences to
    1e-6 relative on 10 seeded random nonvanishing fields."""
    grid = _grid(16)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(10):
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng, max_mode=1)
        p0 = 0.5 if i % 2 == 0 else -1.0
        worst = max(worst, el_gradient_fd_check(
            eta, p0, pauli, metric, grid, probes=64,
            seed=int(rng.integers(2**31))))
    _report(9, "variational gradient cross-check", worst <= 1e-6,
            f"max rel disagreement {worst:.3e} over 10 fields")
