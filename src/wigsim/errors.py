"""Exception types raised across the package."""


class PhaseSpaceError(Exception):
    """Base class for all package-specific errors."""


class InvalidGridError(PhaseSpaceError, ValueError):
    """Grid construction with reversed bounds, too few points, or bad axes."""


class GridMismatchError(PhaseSpaceError, ValueError):
    """Two fields that must share a grid do not."""


class NonNormalizableError(PhaseSpaceError, ValueError):
    """A state with negligible norm on the grid cannot be normalized."""


class OutOfDomainError(PhaseSpaceError, ValueError):
    """A transform pushed significant Wigner mass outside the grid."""


class DegenerateConditioningError(PhaseSpaceError, ValueError):
    """Conditioning on a measurement outcome of negligible density."""


class UndefinedStateError(PhaseSpaceError, ValueError):
    """Requested state does not exist (e.g. photon subtraction from vacuum)."""


class TruncationError(PhaseSpaceError, ValueError):
    """Fock cutoff too small: truncated tail population above tolerance."""


class UnnormalizedFieldError(PhaseSpaceError, ValueError):
    """Operation requires a normalized field."""
