"""Instantaneous double-pi-phase pulse protocol.

A pulse at every multiple of tau flips the sign of the ground-plus-photon
amplitude relative to the single-excitation sector, which negates the
accumulated reservoir back-action.  Between pulses the superradiant factor
obeys the same damped-oscillator equation as in free decay; at each pulse
the value is continuous while the slope reverses sign, so the cycle is free
decay over tau followed by (x, x') -> (x, -x').
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelParams, OddParityState
from .transfer import Cycle, cycle_start, evaluate, overlap


@dataclass(frozen=True)
class DdSchedule:
    """One instantaneous double-pi-phase pulse at every multiple of tau."""

    tau: float

    def __post_init__(self):
        if not (0.0 < self.tau < math.inf):
            raise ConfigError(
                f"pulse interval must be finite and positive, got {self.tau}")

    @property
    def cycle(self) -> Cycle:
        return Cycle(self.tau, ((self.tau, 0.0),), -1.0)


@dataclass(frozen=True)
class RecursionCoeffs:
    """Interval-solution coefficients for the interval [m tau, (m+1) tau].

    On the interval x = e^{-lam s/2} (a cosh(omega s/2) + b sinh(omega s/2))
    (cos/sin on the underdamped branch), so a = x and
    b = (2 x' + lam x) / omega at the interval start.  Real for
    instantaneous pulses, complex for finite-duration ones.  On the critical
    branch `b` stores the finite product (split root * b), i.e. omega is
    taken as 1.
    """

    a: complex
    b: complex
    m: int

    @classmethod
    def from_state(cls, x: complex, xd: complex, m: int,
                   params: ModelParams) -> "RecursionCoeffs":
        omega = params.omega or 1.0
        return cls(x, (2.0 * xd + params.lam * x) / omega, m)


def dd_coefficients(m: int, sched: DdSchedule,
                    params: ModelParams) -> RecursionCoeffs:
    """Coefficients of the damped-oscillator solution on interval m.

    Interval 0 reproduces free decay; each later pair follows from
    continuity of the value and reversal of the slope at the pulse instant.
    """
    x, xd = cycle_start(m, params, sched.cycle)
    return RecursionCoeffs.from_state(x.real, xd.real, m, params)


def dd_survival(t, sched: DdSchedule, params: ModelParams):
    """Piecewise superradiant survival factor under the pulse train.

    t is a float or a sequence of times (giving a list).
    """
    return evaluate(t, params, sched.cycle, lambda x, *_: x.real)


def dd_fidelity(state0: OddParityState, t, sched: DdSchedule,
                params: ModelParams):
    """Modulus of overlap with the initial state under instantaneous pulses."""
    return evaluate(t, params, sched.cycle, overlap(state0))
