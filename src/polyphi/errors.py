"""Exception hierarchy for the polyphi library."""

from __future__ import annotations

__all__ = [
    "PolyphiError",
    "InvalidLengthError",
    "TooFewSidesError",
    "NotGenericError",
    "OutOfRangeError",
    "EmptySpaceError",
    "NotMonogenicError",
    "RealizationNotFoundError",
    "SizeLimitError",
    "InfeasibleProfileError",
]


class PolyphiError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidLengthError(PolyphiError):
    """A side length is not a positive exact rational."""


class TooFewSidesError(PolyphiError):
    """A length vector needs at least three sides."""


class NotGenericError(PolyphiError):
    """Some subset of side lengths sums to exactly half the perimeter."""


class OutOfRangeError(PolyphiError):
    """An index lies outside the admissible range for the operation."""


class EmptySpaceError(PolyphiError):
    """The singleton of the largest side is long, so the moduli space is empty."""


class NotMonogenicError(PolyphiError):
    """The genetic code has more than one gene."""


class RealizationNotFoundError(PolyphiError):
    """No length vector realizing the requested code was found within the search bound."""


class SizeLimitError(PolyphiError):
    """The requested computation exceeds the configured size guard."""


class InfeasibleProfileError(PolyphiError):
    """A block profile entry exceeds the size of its block."""
