"""Spinor <-> coframe dictionary: frozen examples, orthonormality,
round trips, phase behaviour and the stationary frame path."""

import dataclasses

import numpy as np
import pytest

from cosserat_weyl import (
    NoSpinLift,
    NonPositiveDensity,
    NotOrthonormal,
    PHASE_RATE,
    TorusGrid,
    VanishingSpinor,
    build_pauli,
    frame_to_spinor,
    lagrangian_coframe,
    lagrangian_stationary,
    orthonormality_residual,
    spinor_to_frame,
    stationary_frame_path,
)
from cosserat_weyl.sampling import random_nonvanishing_spinor, random_spd_metric


def _complex_conjugate(pauli):
    # conj(sigma) is another valid Pauli set; its frames are left-handed
    return dataclasses.replace(pauli, sigma_upper=pauli.sigma_upper.conj(),
                               sigma_lower=pauli.sigma_lower.conj())


def _constant_spinor(grid, u=(1.0, 0.0)):
    xi = np.zeros(grid.shape + (2,), dtype=complex)
    xi[..., 0] = u[0]
    xi[..., 1] = u[1]
    return xi


class TestSpinorToFrame:
    def test_spin_up_frozen_frame(self, grid8, pauli_identity, identity_metric):
        # xi = (1, 0): theta^1 = -dx1, theta^2 = -dx2, theta^3 = dx3, rho = 1
        packet = spinor_to_frame(_constant_spinor(grid8), pauli_identity,
                                 identity_metric, grid8)
        expected = np.zeros((3,) + grid8.shape + (3,))
        expected[0, ..., 0] = -1.0
        expected[1, ..., 1] = -1.0
        expected[2, ..., 2] = 1.0
        assert np.abs(packet.theta - expected).max() <= 1e-15
        assert np.abs(packet.rho - 1.0).max() <= 1e-15

    def test_matches_conjugate_spinor_sandwich(self, grid8):
        # oracle: w_a = xihat^dagger sigma_a xi, xihat = (conj xi_2, -conj xi_1)
        rng = np.random.default_rng(53)
        for _ in range(3):
            metric = random_spd_metric(rng)
            pauli = build_pauli(metric)
            xi = random_nonvanishing_spinor(grid8, rng)
            xihat = np.stack([xi[..., 1].conj(), -xi[..., 0].conj()], axis=-1)
            w = np.einsum("...i,aij,...j->...a", xihat.conj(), pauli.sigma_lower, xi)
            s = np.einsum("...i,...i->...", xi.conj(), xi).real[..., np.newaxis]
            theta = spinor_to_frame(xi, pauli, metric, grid8).theta
            assert np.abs(theta[0] + 1j * theta[1] - w / s).max() <= 1e-13

    def test_image_is_orthonormal(self, grid8):
        rng = np.random.default_rng(17)
        for _ in range(5):
            metric = random_spd_metric(rng)
            pauli = build_pauli(metric)
            xi = random_nonvanishing_spinor(grid8, rng)
            packet = spinor_to_frame(xi, pauli, metric, grid8)
            assert orthonormality_residual(packet.theta, metric).max() <= 1e-13
            assert np.min(packet.rho) > 0.0

    def test_phase_rotates_first_two_covectors(self, grid8, pauli_identity,
                                               identity_metric):
        # xi -> e^{i phi} xi multiplies theta^1 + i theta^2 by e^{2 i phi}
        rng = np.random.default_rng(4)
        xi = random_nonvanishing_spinor(grid8, rng)
        phi = 0.37
        base = spinor_to_frame(xi, pauli_identity, identity_metric, grid8)
        rot = spinor_to_frame(np.exp(1j * phi) * xi, pauli_identity,
                              identity_metric, grid8)
        w_base = base.theta[0] + 1j * base.theta[1]
        w_rot = rot.theta[0] + 1j * rot.theta[1]
        assert np.abs(w_rot - np.exp(2j * phi) * w_base).max() <= 1e-13
        assert np.abs(rot.theta[2] - base.theta[2]).max() <= 1e-14
        assert np.abs(rot.rho - base.rho).max() <= 1e-14

    def test_vanishing_spinor_rejected(self, grid8, pauli_identity,
                                       identity_metric):
        x1 = grid8.coords()[0]
        xi = np.zeros(grid8.shape + (2,), dtype=complex)
        xi[..., 0] = np.cos(x1)
        with pytest.raises(VanishingSpinor):
            spinor_to_frame(xi, pauli_identity, identity_metric, grid8)


class TestFrameToSpinor:
    def test_round_trip_up_to_sign(self, grid8):
        rng = np.random.default_rng(23)
        for _ in range(5):
            metric = random_spd_metric(rng)
            pauli = build_pauli(metric)
            xi = random_nonvanishing_spinor(grid8, rng, amplitude=0.15, max_mode=1)
            packet = spinor_to_frame(xi, pauli, metric, grid8)
            rec = frame_to_spinor(packet.theta, packet.rho, pauli, metric)
            err = min(np.abs(rec - xi).max(), np.abs(rec + xi).max())
            assert err / np.abs(xi).max() <= 1e-11

    def test_round_trip_on_su2_conjugated_pauli_sets(self):
        # U sigma U^dagger with U in SU(2) is another valid Pauli set for
        # the same metric; the inverse must use the set it is given
        grid = TorusGrid((12, 16, 8), (2 * np.pi,) * 3)
        rng = np.random.default_rng(41)
        for _ in range(4):
            metric = random_spd_metric(rng)
            pauli = build_pauli(metric)
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            u = np.array([[a, -b.conjugate()], [b, a.conjugate()]]) / norm
            conj = dataclasses.replace(
                pauli, sigma_upper=u @ pauli.sigma_upper @ u.conj().T,
                sigma_lower=u @ pauli.sigma_lower @ u.conj().T)
            xi = random_nonvanishing_spinor(grid, rng, amplitude=0.15, max_mode=1)
            packet = spinor_to_frame(xi, conj, metric, grid)
            rec = frame_to_spinor(packet.theta, packet.rho, conj, metric)
            err = min(np.abs(rec - xi).max(), np.abs(rec + xi).max())
            assert err / np.abs(xi).max() <= 1e-14

    def test_round_trip_on_complex_conjugate_pauli_set(self, grid8):
        rng = np.random.default_rng(43)
        for _ in range(3):
            metric = random_spd_metric(rng)
            conj = _complex_conjugate(build_pauli(metric))
            xi = random_nonvanishing_spinor(grid8, rng, amplitude=0.15, max_mode=1)
            packet = spinor_to_frame(xi, conj, metric, grid8)
            rec = frame_to_spinor(packet.theta, packet.rho, conj, metric)
            err = min(np.abs(rec - xi).max(), np.abs(rec + xi).max())
            assert err / np.abs(xi).max() <= 1e-14

    def test_rejects_other_handedness(self, grid8):
        # an orthonormal frame with theta^3 flipped has no spin lift
        rng = np.random.default_rng(47)
        metric = random_spd_metric(rng)
        for pauli in (build_pauli(metric), _complex_conjugate(build_pauli(metric))):
            xi = random_nonvanishing_spinor(grid8, rng, amplitude=0.15, max_mode=1)
            packet = spinor_to_frame(xi, pauli, metric, grid8)
            flipped = packet.theta.copy()
            flipped[2] *= -1.0
            assert orthonormality_residual(flipped, metric).max() <= 1e-13
            with pytest.raises(NoSpinLift):
                frame_to_spinor(flipped, packet.rho, pauli, metric)

    def test_spin_up_frozen_frame_inverts(self, grid8, pauli_identity,
                                          identity_metric):
        # xi = (1, 0) has xi_2 = 0 everywhere: only the root of xi_1^2 works
        packet = spinor_to_frame(_constant_spinor(grid8), pauli_identity,
                                 identity_metric, grid8)
        rec = frame_to_spinor(packet.theta, packet.rho, pauli_identity, identity_metric)
        assert np.abs(rec - _constant_spinor(grid8)).max() <= 1e-15

    def test_forward_of_inverse_is_identity(self, grid8, pauli_identity,
                                            identity_metric):
        # the frame image is sign-blind, so this direction has no ambiguity
        rng = np.random.default_rng(29)
        xi = random_nonvanishing_spinor(grid8, rng, amplitude=0.15, max_mode=1)
        packet = spinor_to_frame(xi, pauli_identity, identity_metric, grid8)
        rec = frame_to_spinor(packet.theta, packet.rho, pauli_identity, identity_metric)
        packet2 = spinor_to_frame(rec, pauli_identity, identity_metric, grid8)
        assert np.abs(packet2.theta - packet.theta).max() <= 1e-12
        assert np.abs(packet2.rho - packet.rho).max() <= 1e-12

    def test_rejects_non_orthonormal_frame(self, grid8, pauli_identity,
                                           identity_metric):
        theta = np.zeros((3,) + grid8.shape + (3,))
        for j in range(3):
            theta[j, ..., j] = 2.0
        with pytest.raises(NotOrthonormal):
            frame_to_spinor(theta, np.ones(grid8.shape), pauli_identity, identity_metric)

    def test_rejects_nonpositive_density(self, grid8, pauli_identity,
                                         identity_metric):
        theta = np.zeros((3,) + grid8.shape + (3,))
        theta[0, ..., 0] = -1.0
        theta[1, ..., 1] = -1.0
        theta[2, ..., 2] = 1.0
        rho = np.ones(grid8.shape)
        rho[0, 0, 0] = -1.0
        with pytest.raises(NonPositiveDensity):
            frame_to_spinor(theta, rho, pauli_identity, identity_metric)


class TestStationaryFramePath:
    def test_constant_spinor_velocity(self, grid8, pauli_identity,
                                      identity_metric):
        # theta^1 + i theta^2 carries e^{PHASE_RATE i p0 x0}:
        # d0 theta^1 = -rate theta^2, d0 theta^2 = rate theta^1
        p0 = 1.5
        rate = PHASE_RATE * p0
        theta, dtheta0, rho = stationary_frame_path(
            _constant_spinor(grid8), p0, pauli_identity, identity_metric, grid8)
        assert np.abs(dtheta0[0] + rate * theta[1]).max() <= 1e-14
        assert np.abs(dtheta0[1] - rate * theta[0]).max() <= 1e-14
        assert np.abs(dtheta0[2]).max() == 0.0
        assert np.abs(rho - 1.0).max() <= 1e-15

    def test_coframe_lagrangian_matches_spinor_lagrangian(self):
        from cosserat_weyl import TorusGrid

        grid = TorusGrid((32, 32, 32), (2 * np.pi,) * 3)
        rng = np.random.default_rng(31)
        metric = random_spd_metric(rng)
        pauli = build_pauli(metric)
        eta = random_nonvanishing_spinor(grid, rng, amplitude=0.1, max_mode=1)
        p0 = 0.5
        theta, dtheta0, rho = stationary_frame_path(eta, p0, pauli, metric, grid)
        lag_frame = lagrangian_coframe(theta, dtheta0, rho, metric, grid)
        lag_spinor = lagrangian_stationary(eta, p0, pauli, metric, grid)
        scale = np.abs(lag_spinor).max()
        assert np.abs(lag_frame - lag_spinor).max() / scale <= 1e-10
