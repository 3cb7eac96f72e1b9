"""Exception types shared across the package."""


class RuledminError(Exception):
    """Base class for every error this package raises on purpose."""


class UsageError(RuledminError, ValueError):
    """Malformed input: bad dimensions, bad JSON, invalid option values."""


class DimensionMismatchError(UsageError):
    """A vector's length does not match the ambient dimension."""


class PreconditionError(RuledminError):
    """A documented precondition of an operation does not hold."""


class ConventionError(PreconditionError):
    """Input violates a normalization convention (unit direction, constant speed, gauge).

    The message names the failed check so callers can repair the input
    instead of silently rounding it into shape.
    """


class DegenerateMetricError(RuledminError):
    """The induced metric is degenerate at a specific point."""

    def __init__(self, s: float, t: float):
        self.s = float(s)
        self.t = float(t)
        super().__init__(f"degenerate induced metric at (s, t) = ({self.s!r}, {self.t!r})")


class CrossValidationError(RuledminError):
    """A sampled cross-check disagrees with the closed form it checks."""


class EverywhereDegenerateError(RuledminError):
    """Every sampled point has a degenerate tangent metric."""


class NullDirectionError(RuledminError):
    """The direction curve is null and not constant.

    Such a ruled surface is never minimal, unless gamma is a multiple of
    one fixed null vector (a cylinder's rulings, reparametrized along each
    line), so classification stops here with a not-minimal diagnosis
    instead of a case label.
    """


class NoWitnessError(RuledminError):
    """No frame with the requested norm pattern exists in this signature."""


class NonExistenceError(RuledminError):
    """A requested family does not exist in the signature; carries the result."""

    def __init__(self, result, message: str | None = None):
        self.result = result
        super().__init__(message or "no witness exists; see attached certificate")
