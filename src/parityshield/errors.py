"""Exception hierarchy shared across the package.

The CLI maps them onto exit codes: ParameterError, StateError and
ConfigError (domain and usage problems) exit 1, ValidationFailure (a failed
check or ordering) exits 2.
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


class ValidationFailure(ParityShieldError):
    """One or more validation checks missed their tolerance."""
