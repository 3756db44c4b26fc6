"""Exception types shared across the package."""


class ModelError(Exception):
    """Base class for all errors raised by this package."""


class MetricNotSPD(ModelError):
    """Metric matrix is not symmetric positive definite."""


class InvalidAxis(ModelError):
    """Differentiation axis must be 1, 2 or 3."""


class NonPositiveDensity(ModelError):
    """Density field must be strictly positive."""


class VanishingSpinor(ModelError):
    """Spinor field vanishes (or nearly vanishes) where a nonvanishing
    spinor is required."""


class ZeroFrequency(ModelError):
    """Temporal frequency p0 must be nonzero."""


class DegenerateDenominator(ModelError):
    """Denominator of the factorisation identity is below threshold."""


class ZeroWavevector(ModelError):
    """Plane-wave generation requires a nonzero wavevector."""


class NotOrthonormal(ModelError):
    """Coframe fails the orthonormality constraint."""


class NoSpinLift(ModelError):
    """Coframe has no spinor preimage (e.g. the wrong handedness)."""


class ConfigError(ModelError):
    """Invalid run configuration (CLI exit code 2)."""
