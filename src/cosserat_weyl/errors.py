"""Exception types shared across the package."""


class ModelError(Exception):
    """Base class for all errors raised by this package."""


class MetricNotSPD(ModelError):
    """Metric matrix is not symmetric positive definite."""


class NotHermitian(ModelError):
    """Pauli set whose sigma_lower is not Hermitian: v would be complex."""


class InvalidAxis(ModelError):
    """Differentiation axis must be 1, 2 or 3."""


class NonPositiveDensity(ModelError):
    """Density field must be finite and strictly positive at every point."""


class VanishingSpinor(ModelError):
    """Spinor field vanishes (or nearly vanishes) where a nonvanishing
    spinor is required."""


class ZeroFrequency(ModelError):
    """Temporal frequency p0 must be nonzero."""


class DegenerateDenominator(ModelError):
    """Denominator of the factorisation identity is below threshold, or
    the determinant of a coframe's induced metric is not a finite normal
    float at every point (a degenerate coframe, or one scaled out of
    range)."""


class OutOfRange(ModelError):
    """A value the model derives from its input is not a finite float in
    the range it needs: a plane wave's squared frequency g^ab k_a k_b
    (finite and normal), a scaling check's e^{2h} (finite), or a report
    value (finite, as strict JSON requires)."""


class ZeroWavevector(ModelError):
    """Plane-wave generation requires a nonzero wavevector."""


class NotOrthonormal(ModelError):
    """Coframe fails the orthonormality constraint."""


class NoSpinLift(ModelError):
    """Coframe has no spinor preimage (e.g. the wrong handedness)."""


class ConfigError(ModelError):
    """Invalid run configuration (CLI exit code 2)."""
