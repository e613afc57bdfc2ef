"""Exception types shared across the package."""

__all__ = [
    "GramBoundsError",
    "DimensionError",
    "ShapeError",
    "ExponentError",
    "ExponentRangeError",
    "DomainError",
    "NotOrthonormalError",
]


class GramBoundsError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionError(GramBoundsError):
    """Vectors (or a vector and a family) live in different ambient dimensions."""


class ShapeError(GramBoundsError):
    """An argument has the wrong shape: ragged, the wrong number of axes or length, empty, or not square."""


class ExponentError(GramBoundsError):
    """Exponent outside [1, inf], or not a number at all."""


class DomainError(GramBoundsError, ValueError):
    """Argument value outside the operation's domain; also a ValueError, Python's bad-value error."""


class ExponentRangeError(ExponentError, DomainError):
    """Exponent outside the half-open interval (1, 2] required here.

    Doubles as a DomainError so callers may catch it under either contract.
    """


class NotOrthonormalError(GramBoundsError):
    """The family failed its orthonormality precondition."""
