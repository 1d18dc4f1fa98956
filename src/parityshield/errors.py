"""Exception hierarchy shared across the package, refuse and its checks.

The CLI maps them onto exit codes: ParameterError, StateError and
ConfigError (domain and usage problems) exit 1, ValidationFailure (a failed
check or ordering) exits 2.
"""

from __future__ import annotations

import numpy as np


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


def refuse(error: type[ParityShieldError], checks) -> None:
    """Raise error for the first cell, in row order, that fails a check.
    checks are (ok, text, *values) in check order, ok a bool or a boolean
    array over the cells; the cell gets its first failed check's text,
    formatted with the values (numbers or per-cell arrays) there."""
    ok = True
    for check in checks:
        ok = ok & check[0]
    # not ok.all(): that call leaves 52 bytes behind on a numpy bool
    if np.count_nonzero(np.logical_not(ok)):
        def at(value):  # as a Python scalar
            return np.broadcast_to(value, np.shape(ok)).flat[[i]].tolist()[0]
        i = np.argmin(ok)
        _, text, *values = next(check for check in checks if not at(check[0]))
        raise error(text.format(*map(at, values)))


def positive(what: str, value):
    """The check, for refuse, that value (a number or per-cell array) is
    finite and positive; its text names what."""
    return ((0.0 < value) & (value < np.inf),
            f"{what} must be finite and positive, got {{}}", value)


def broadcast(error: type[ParityShieldError], **columns) -> None:
    """Raise error naming the per-cell arrays' shapes unless they broadcast."""
    shapes = {key: np.shape(v) for key, v in columns.items() if np.ndim(v)}
    try:
        np.broadcast_shapes(*shapes.values())
    except ValueError:
        raise error("per-cell columns do not broadcast together: " + ", ".join(
            f"{key} of shape {s}" for key, s in shapes.items())) from None
