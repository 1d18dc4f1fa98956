"""Exception hierarchy shared across the package.

Process exit codes map onto these classes: domain/usage problems exit 1,
a failed validation run exits 2.
"""

from __future__ import annotations


class ParityShieldError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(ParityShieldError):
    """Model parameters outside the supported domain."""


class StateError(ParityShieldError):
    """Amplitude vector violates a normalization constraint."""


class ConfigError(ParityShieldError):
    """Bad run configuration: step sizes, schedules, sweep caps, CLI input."""


class DegeneracyError(ParityShieldError):
    """A closed-form linear solve became numerically singular.

    Nothing in the package raises it: the closed forms propagate the state
    (x, x') directly and solve no linear system.  It stays importable for
    callers that catch it.
    """

    def __init__(self, message: str, interval: int | None = None,
                 determinant: complex | None = None):
        super().__init__(message)
        self.interval = interval
        self.determinant = determinant


class ValidationFailure(ParityShieldError):
    """One or more validation checks missed their tolerance."""
