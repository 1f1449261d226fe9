"""Exception taxonomy shared across the package.

Every error raised by library code derives from :class:`HelmonoError` and
carries an ``exit_code`` used by the command-line driver: configuration
problems exit 2, resonant configurations exit 3, ambiguous spectral counts
exit 4, violated preconditions exit 5.
"""

from __future__ import annotations


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


class BasisMismatchError(InvalidParameterError):
    """Operators built on different boundary bases cannot be compared."""


class EigenSolverError(HelmonoError):
    """An eigensolver did not converge, broke down, or returned a result
    beyond its documented bound."""

    exit_code = 1


class SolverError(HelmonoError):
    """A direct solve produced a residual beyond the documented bound."""

    exit_code = 1
