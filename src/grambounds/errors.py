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
    """A coefficient sequence does not match the family size."""


class ExponentError(GramBoundsError):
    """Exponent outside [1, inf], or not a number at all."""


class DomainError(GramBoundsError):
    """Numeric argument outside the operation's domain."""


class ExponentRangeError(ExponentError, DomainError):
    """Exponent outside the half-open interval (1, 2] required here.

    Doubles as a DomainError so callers may catch it under either contract.
    """


class NotOrthonormalError(GramBoundsError):
    """The family failed its orthonormality precondition."""
