"""Pulse protocol with finite pulse duration.

Each cycle of length tau is free for the first (1 - 1/N) tau and driven for
the final tau/N, during which both qubits are phase-rotated at rate
N pi / tau.  Over one window the single-excitation sector gains exactly a
pi phase relative to the ground sector, so N -> infinity recovers the
instantaneous protocol.

In the frame co-rotating with the drive the superradiant factor obeys the
same second-order interval equation as in free decay but with the damping
constant shifted to lam - i N pi / tau inside windows.  A cycle is
therefore two segments of the shared propagator, on every damping branch;
the window's pi phase is common to the single-excitation sector and is
absorbed at the cycle end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoupling import RecursionCoeffs
from .errors import ConfigError
from .model import ModelParams, OddParityState
from .transfer import (_GRID_FUZZ, Cycle, _mul, cycle_position,
                       cycle_start, evaluate, overlap)

FREE_SEGMENT = "free"
IN_PULSE_SEGMENT = "in_pulse"

# segment index within a cycle -> tag; an object array hands out the two
# tag strings themselves, not a copy per time
_TAGS = np.array([FREE_SEGMENT, IN_PULSE_SEGMENT], dtype=object)


@dataclass(frozen=True)
class FinitePulseSchedule:
    """Cycle interval tau with the final tau/N of each cycle driven."""

    tau: float
    n_duty: int

    def __post_init__(self):
        if not (0.0 < self.tau < math.inf):
            raise ConfigError(
                f"cycle interval must be finite and positive, got {self.tau}")
        if not isinstance(self.n_duty, int) or self.n_duty < 2:
            raise ConfigError(
                f"duty parameter must be an integer >= 2, got {self.n_duty!r}")

    @property
    def gamma(self) -> float:
        """Phase-rate parameter N pi / (2 tau)."""
        return self.n_duty * math.pi / (2.0 * self.tau)

    @property
    def free_length(self) -> float:
        return (1.0 - 1.0 / self.n_duty) * self.tau

    @property
    def window_length(self) -> float:
        return self.tau / self.n_duty

    @property
    def phase_rate(self) -> float:
        """Drive rotation rate inside windows, N pi / tau (twice gamma)."""
        return self.n_duty * math.pi / self.tau

    @property
    def cycle(self) -> Cycle:
        return Cycle(self.tau, ((self.free_length, 0.0),
                                (self.window_length, self.phase_rate)), 1.0)

    def segment_of(self, t: float) -> tuple[str, int, float]:
        """Classify t as ("free" | "in_pulse", cycle index, offset into cycle)."""
        m, theta = cycle_position(t, self.tau)
        if theta <= self.free_length + _GRID_FUZZ * self.tau:
            return FREE_SEGMENT, m, theta
        return IN_PULSE_SEGMENT, m, theta


def finite_dd_coefficients(m: int, sched: FinitePulseSchedule,
                           params: ModelParams) -> RecursionCoeffs:
    """Complex interval coefficients for cycle m of the finite-duration protocol."""
    x, xd = cycle_start(m, params, sched.cycle)
    return RecursionCoeffs.from_state(complex(x), complex(xd), m, params)


def finite_dd_survival(t, sched: FinitePulseSchedule, params: ModelParams):
    """Superradiant amplitude at time t, tagged free or in_pulse.

    Completed windows each contribute an exact pi phase that is common to
    the whole single-excitation sector; those are absorbed, so free-segment
    values line up cycle to cycle.  Within a window the partial drive phase
    is included in the returned amplitude.  t is a float, giving one
    (amplitude, tag) pair, or a sequence of times, giving a list of them.
    """
    rate = sched.phase_rate

    def value(x, xd, k, into):
        phase = np.exp(-1j * rate * into)
        return np.where(k == 1, _mul(x, phase), x), _TAGS[k]
    return evaluate(t, params, sched.cycle, value)


def finite_dd_fidelity(state0: OddParityState, t,
                       sched: FinitePulseSchedule, params: ModelParams):
    """Modulus of overlap with the initial state, tagged free or in_pulse.

    Inside windows both the dark and the superradiant amplitude carry the
    same drive phase, which therefore cancels in the modulus; the reported
    value stays continuous across window edges.  Scalar and sequence t as
    in finite_dd_survival.
    """
    fidelity = overlap(state0)
    return evaluate(t, params, sched.cycle,
                    lambda x, xd, k, into: (fidelity(x), _TAGS[k]))
