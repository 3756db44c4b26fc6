"""Verification toolkit for a rotational-elasticity (Cosserat) model
of the massless neutrino on a flat periodic 3-manifold.

The package checks, to machine precision, the identities tying the
coframe/density picture to its spinor representation: the axial-torsion
Lagrangian, its stationary spinor form, the factorisation through the
two Weyl Lagrangian densities, scaling covariance, and the vanishing of
the variational residual at exact Weyl plane-wave solutions.
"""

__version__ = "0.1.0"

from .correspondence import (
    PHASE_RATE,
    FramePacket,
    frame_to_spinor,
    spinor_to_frame,
    stationary_frame_path,
)
from .cosserat import (
    axial_torsion,
    conformal_rescale,
    kinetic_2form,
    kinetic_energy,
    lagrangian_coframe,
    orthonormality_residual,
    potential_energy,
)
from .cwf import read_field, write_field, write_scalar_csv
from .errors import (
    ConfigError,
    DegenerateDenominator,
    InvalidAxis,
    MetricNotSPD,
    ModelError,
    NonPositiveDensity,
    NoSpinLift,
    NotOrthonormal,
    VanishingSpinor,
    ZeroFrequency,
    ZeroWavevector,
)
from .geometry import (
    Metric3,
    PauliSet,
    TorusGrid,
    build_pauli,
    exterior_derivative,
    integrate,
    spectral_partial,
    wedge_1_1,
    wedge_1_2,
)
from .spinor import (
    FACTORIZATION_SIGN,
    SpinorField,
    bilinears,
    factorization_residual,
    fierz_residual,
    lagrangian_dynamic,
    lagrangian_stationary,
    lagrangian_weyl,
    scaling_covariance_residual,
    stationary_ansatz,
)
from .weyl import (
    PlaneWaveSpec,
    el_gradient,
    el_gradient_fd_check,
    el_residual,
    planewave_solution,
    theorem_witness_suite,
    weyl_residual,
    weyl_residual_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
