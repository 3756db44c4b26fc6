"""Verification toolkit for a rotational-elasticity (Cosserat) model
of the massless neutrino on a flat periodic 3-manifold.

The package checks, to machine precision, the identities tying the
coframe/density picture to its spinor representation: the axial-torsion
Lagrangian, its stationary spinor form, the factorisation through the
two Weyl Lagrangian densities, scaling covariance, and the vanishing of
the variational residual at exact Weyl plane-wave solutions.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .correspondence import (
    PHASE_RATE,
    frame_to_spinor,
    spinor_to_frame,
    stationary_frame_path,
)
from .cosserat import (
    axial_torsion,
    conformal_rescale,
    kinetic_2form,
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
    NotHermitian,
    NotOrthonormal,
    OutOfRange,
    VanishingSpinor,
    ZeroFrequency,
    ZeroWavevector,
)
from .geometry import (
    Metric3,
    PauliSet,
    TorusGrid,
    build_pauli,
    integrate,
    spectral_partial,
)
from .spinor import (
    FACTORIZATION_SIGN,
    SpinorField,
    factorization_residual,
    fierz_residual,
    lagrangian_dynamic,
    lagrangian_stationary,
    lagrangian_weyl,
    scaling_covariance_residual,
)
from .weyl import (
    PlaneWaveSpec,
    el_gradient,
    el_gradient_fd_check,
    el_residual,
    el_residual_fd,
    planewave_solution,
    theorem_witness_suite,
    weyl_residual,
    weyl_residual_norm,
)

# the API names: not the submodules that the imports above bind here
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
