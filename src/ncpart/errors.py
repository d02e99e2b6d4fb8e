"""Exception types raised by the ncpart package."""

from __future__ import annotations

__all__ = [
    "NcpartError",
    "LimitExceeded",
    "InvalidPattern",
    "FamilyViolation",
    "EmptyPartition",
    "PatternLengthMismatch",
    "IndexOutOfRange",
    "NonInvertibleConstantTerm",
    "ConstantTermNotOne",
    "NoSeriesSolution",
    "SingularDerivative",
    "NoConvergence",
    "UnsupportedFamily",
]


class NcpartError(Exception):
    """Base class for all errors raised by this package."""


class LimitExceeded(NcpartError):
    """An enumeration request exceeded the configured size limit."""


class InvalidPattern(NcpartError):
    """A word is not a valid subword pattern (letters must cover 1..max)."""


class FamilyViolation(NcpartError):
    """Parameters do not describe a valid member of the requested pattern family."""


class EmptyPartition(NcpartError):
    """The operation is undefined on the empty partition."""


class PatternLengthMismatch(NcpartError):
    """Two patterns that must have equal length do not."""


class IndexOutOfRange(NcpartError):
    """A recurrence cell index lies outside its defined range."""


class NonInvertibleConstantTerm(NcpartError):
    """A series division needs an inverse that does not exist in the coefficient ring."""


class ConstantTermNotOne(NcpartError):
    """A series square root requires constant term exactly 1."""


class NoSeriesSolution(NcpartError):
    """A functional equation has no power-series solution under the given normalization."""


class SingularDerivative(NcpartError):
    """A series equation's derivative at the seed is not a nonzero rational."""


class NoConvergence(NcpartError):
    """A computed series does not satisfy its equation (a wrong seed)."""


class UnsupportedFamily(NcpartError):
    """No closed form or recurrence covers the requested pattern family."""
