"""Exception taxonomy shared across the package.

Every error raised by library code derives from :class:`HelmonoError` and
carries an ``exit_code`` used by the command-line driver: configuration
problems exit 2, resonant configurations exit 3, ambiguous spectral counts
exit 4, violated preconditions exit 5.
"""

from __future__ import annotations

from contextlib import suppress
from math import inf
from numbers import Integral, Real


class HelmonoError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(HelmonoError):
    """Malformed or inconsistent run configuration."""

    exit_code = 2


class ResonanceError(HelmonoError):
    """The Galerkin matrix is singular (or numerically so) at this wavenumber.

    Carries the smallest pivot magnitude seen during factorization and the
    threshold it was compared against.
    """

    exit_code = 3

    def __init__(self, message: str, smallest_pivot: float = 0.0, threshold: float = 0.0):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot
        self.threshold = threshold


class SpectralAmbiguityError(HelmonoError):
    """An eigenvalue count is undecidable: some eigenvalue sits inside the
    tolerance window around the decision threshold."""

    exit_code = 4

    def __init__(self, message: str, offending: tuple = ()):
        super().__init__(message)
        self.offending = tuple(offending)


class InvalidParameterError(HelmonoError):
    """A documented precondition was violated by the caller."""

    exit_code = 5


def _shown(value) -> str:
    """``repr(value)``, or the size of an int too long for Python to print."""
    with suppress(ValueError):  # more digits than sys.get_int_max_str_digits()
        return repr(value)
    return f"an integer of {value.bit_length()} bits"


def checked_positive(value, what: str) -> float:
    """``value`` as a float, refused unless it is a real number (a bool is
    none) above zero and within the float range."""
    with suppress(OverflowError):  # float() of an int beyond the float range
        if not isinstance(value, bool) and isinstance(value, Real) and 0 < float(value) < inf:
            return float(value)
    raise InvalidParameterError(f"{what} must be positive and finite, got {_shown(value)}")


def checked_count(value, what: str, least: int, most=None) -> int:
    """``value`` as an int, refused unless it is an integer (a numpy one too;
    a bool is none) of at least ``least``, and at most ``most`` if given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidParameterError(f"{what} must be an integer, got {_shown(value)}")
    if not (least <= value and (most is None or value <= most)):
        bound = f"at least {least}" if most is None else f"between {least} and {most}"
        raise InvalidParameterError(f"{what} must be {bound}, got {_shown(value)}")
    return int(value)


class BasisMismatchError(InvalidParameterError):
    """Operators built on different boundary bases cannot be compared."""


class EigenSolverError(HelmonoError):
    """An eigensolver did not converge, broke down, or returned a result
    beyond its documented bound."""

    exit_code = 1


class SolverError(HelmonoError):
    """A direct solve produced a residual beyond the documented bound."""

    exit_code = 1
