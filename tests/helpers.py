"""Test helpers shared by more than one test module. Import them as
``from helpers import ...``: pytest puts this directory on the path."""

import dataclasses

import numpy as np


def su2_conjugate(pauli, rng):
    """The set U sigma U^dagger for a random U in SU(2), both placements:
    another valid Pauli set for the same metric, with frames of the built
    set's handedness."""
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    u = np.array([[a, -b.conjugate()], [b, a.conjugate()]]) / np.hypot(abs(a), abs(b))
    return dataclasses.replace(pauli, sigma_upper=u @ pauli.sigma_upper @ u.conj().T,
                               sigma_lower=u @ pauli.sigma_lower @ u.conj().T)


def constant_spinor(grid, u=(1.0, 0.0)):
    """The spinor u at every point of ``grid``."""
    eta = np.zeros(grid.shape + (2,), dtype=complex)
    eta[..., 0] = u[0]
    eta[..., 1] = u[1]
    return eta


def einsum_gram(theta):
    """Oracle of the induced metric delta_jk theta^j_a theta^k_b."""
    return np.einsum("j...a,j...b->...ab", theta, theta)
