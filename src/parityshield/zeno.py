"""Measurement-based freezing: project the reservoir onto vacuum every delta_t.

Each projection that finds no photon restarts the free decay from the
(unrenormalized) surviving amplitude: the cycle is free decay over delta_t
followed by (x, x') -> (x, 0), so after n = floor(t / delta_t)
measurements the superradiant factor is survival(delta_t)^n *
survival(t - n delta_t).  No renormalization is applied: the curve tracks
the conditional no-click branch with its shrunken norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelParams, OddParityState
from .transfer import Cycle, evaluate, overlap


@dataclass(frozen=True)
class ZenoSchedule:
    """Repeated vacuum projection every delta_t time units."""

    delta_t: float

    def __post_init__(self):
        if not (0.0 < self.delta_t < math.inf):
            raise ConfigError("measurement interval must be finite and "
                              f"positive, got {self.delta_t}")

    @property
    def cycle(self) -> Cycle:
        return Cycle(self.delta_t, ((self.delta_t, 0.0),), 0.0)


def zeno_amplitude(t, sched: ZenoSchedule, params: ModelParams):
    """Superradiant survival factor under repeated vacuum projection.

    t is a float or a sequence of times (giving a list).
    """
    return evaluate(t, params, sched.cycle, lambda x, *_: x.real)


def zeno_fidelity(state0: OddParityState, t, sched: ZenoSchedule,
                  params: ModelParams):
    """Modulus of overlap with the initial state under the measurement protocol."""
    return evaluate(t, params, sched.cycle, overlap(state0))
