"""Exception hierarchy shared across the package, refuse and its checks.

The CLI maps them onto exit codes: ParameterError, StateError and
ConfigError (domain and usage problems) exit 1, ValidationFailure (a failed
check or ordering) exits 2.
"""

from __future__ import annotations

import numbers

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


def number(value, kinds="iuf", types=(numbers.Number, np.ndarray)) -> bool:
    """value one of types, of a dtype kind in kinds: by default a real number
    or an array of them.  A bool is not a number."""
    return isinstance(value, types) and np.asarray(value).dtype.kind in kinds


def positive(what: str, value):
    """The check, for refuse, that value (a number or per-cell array) is
    finite and positive; its text names what."""
    return ((0.0 < value) & (value < np.inf),
            f"{what} must be finite and positive, got {{}}", value)


def broadcast(error: type[ParityShieldError], /, *, counts=(),
              **columns) -> None:
    """The gate of every per-cell constructor, before any arithmetic: raise
    error naming the first column that is not a real number or an array of
    them, or is a Python int past numpy's integers (so past the float range
    too) unless counts names it, as a duty parameter may be one; else the
    per-cell arrays' shapes unless they broadcast."""
    for key, value in columns.items():
        if number(value):
            continue
        if type(value) is not int:
            raise error(f"{key} must be a real number or an array of them; "
                        f"got {type(value).__name__}")
        if key not in counts:
            raise error(f"{key} is an int of {value.bit_length()} bits, past "
                        "numpy's integers")
    shapes = {key: np.shape(v) for key, v in columns.items() if np.ndim(v)}
    try:
        np.broadcast_shapes(*shapes.values())
    except ValueError:
        raise error("per-cell columns do not broadcast together: " + ", ".join(
            f"{key} of shape {s}" for key, s in shapes.items())) from None
