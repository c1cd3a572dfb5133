"""Exception hierarchy, and the check of integer counts and seeds.

ValidationError subclasses signal bad inputs or specs (CLI exit code 2);
ExperimentError subclasses signal runtime/data failures (CLI exit code 3).
"""

import numbers


class ValidationError(ValueError):
    """Invalid configuration, parameter, or domain input."""


class SingularityError(ValidationError):
    """Spectral density evaluated exactly at a singular point."""


class NyquistError(ValidationError):
    """Frequency band or model frequency violates the Nyquist bound."""


class SizeLimitError(ValidationError):
    """Diagram enumeration request exceeds the documented bound."""


class DegenerateTransformError(ValidationError):
    """All Hermite coefficients below tolerance; rank undefined."""


class NonIntegrableError(ValidationError):
    """Power B^k requested where decay_exponent * k <= 1."""


class OverlapError(ValidationError):
    """Spectral-measure atom coincides with a noise singular point."""


def require_count(name: str, value, least: int) -> None:
    """Refuse a count or seed that is a bool, not an integer, or below
    least, before it reaches numpy."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValidationError(f"{name} must be {bound}, got {value}")


class ExperimentError(RuntimeError):
    """A data-dependent computation failed at run time."""


class EmbeddingError(ExperimentError):
    """Circulant embedding stayed indefinite after the padding schedule."""


class QuadratureError(ExperimentError):
    """Numerical quadrature failed to reach the required tolerance."""


class InsufficientPeaksError(ExperimentError):
    """Fewer admissible periodogram peaks than requested harmonics."""


class SingularSystemError(ExperimentError):
    """Amplitude normal equations are numerically singular."""


class InsufficientSamplesError(ExperimentError):
    """Too few replications for the requested diagnostic."""


class DegenerateVarianceError(ExperimentError):
    """Sample variance too small for a meaningful diagnostic."""


class NoiseFloorWarning(UserWarning):
    """A detected peak does not exceed the periodogram noise floor."""
