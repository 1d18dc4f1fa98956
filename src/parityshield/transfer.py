"""Transfer-matrix core shared by every protocol.

Between interventions the superradiant survival factor x obeys

    x'' + lam_c x' + R^2 x = 0,

with lam_c = lam in free evolution and lam_c = lam - i N pi / tau inside a
finite drive window, in the frame co-rotating with the drive.  The state
(x, x') is carried over a time s by the closed-form propagator E(s, lam_c).

Every protocol is free decay cut into cycles of one period.  A cycle runs a
fixed list of segments, each a duration with the drive rate shifting the
damping constant, and ends in the map (x, x') -> (x, k x'):

* k = 0 projects onto the reservoir vacuum (repeated measurement),
* k = -1 is an instantaneous double-pi pulse (slope reversal),
* k = 1 closes a drive window, whose exact pi phase is common to the
  single-excitation sector and therefore absorbed.

Free decay has no cycle.  One evaluator walks the requested times in
sorted order, advances the cycle-start state once per cycle by the cycle
matrix and applies E inside the current cycle; nothing outlives the call.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass

from .errors import ParameterError
from .model import ModelParams, OddParityState

# beyond this value of Re(lam_c) * s the hyperbolic factors overflow before
# the damping factor can tame them; switch to the split exponentials
_SPLIT_THRESHOLD = 600.0

# below this |h| a series in h^2 avoids 0/0 at a degenerate split root
_SERIES_LIMIT = 1e-4

# tolerates t / period landing a few ulps below an integer, and assigns a
# segment boundary instant to the earlier segment
_GRID_FUZZ = 1e-12


@dataclass(frozen=True)
class Cycle:
    """One period of a protocol.

    segments: (duration, drive rate) pairs run in order; a drive rate phi
    shifts the damping constant to lam - i phi.  slope_factor is k in the
    end-of-cycle map (x, x') -> (x, k x').
    """

    period: float
    segments: tuple[tuple[float, float], ...]
    slope_factor: float


def propagator(lam_c: complex, r_sq: float):
    """E(., lam_c): the map (x, x', s) -> (x(s), x'(s)) on every branch.

    Closed form of x'' + lam_c x' + r_sq x = 0 with split root
    omega = sqrt(lam_c^2 - 4 r_sq): a series in (omega s / 2)^2 near a
    degenerate root, pure exponentials once Re(lam_c) s passes the
    overflow threshold, cosh/sinh in between.
    """
    lam_c = complex(lam_c)
    omega = cmath.sqrt(lam_c * lam_c - 4.0 * r_sq)

    def step(x: complex, xd: complex, s: float) -> tuple[complex, complex]:
        h = omega * s / 2.0
        if abs(h) <= _SERIES_LIMIT:
            u = h * h
            damp = cmath.exp(-lam_c * s / 2.0)
            ch = damp * (1.0 + u / 2.0 * (1.0 + u / 12.0))
            sn = damp * s / 2.0 * (1.0 + u / 6.0 * (1.0 + u / 20.0))
        elif lam_c.real * s > _SPLIT_THRESHOLD:
            em = cmath.exp(-(lam_c - omega) * s / 2.0)
            ep = cmath.exp(-(lam_c + omega) * s / 2.0)
            ch = (em + ep) / 2.0
            sn = (em - ep) / (2.0 * omega)
        else:
            damp = cmath.exp(-lam_c * s / 2.0)
            ch = damp * cmath.cosh(h)
            sn = damp * cmath.sinh(h) / omega
        # ch = e^{-lam_c s/2} cosh h, sn = e^{-lam_c s/2} sinh(h) / omega
        return (ch * x + (2.0 * xd + lam_c * x) * sn,
                ch * xd - (lam_c * xd + 2.0 * r_sq * x) * sn)
    return step


def cycle_position(t: float, period: float | None) -> tuple[int, float]:
    """(completed cycles, time into the current cycle) at time t.

    The single time check of the package: t must be finite and
    nonnegative.  A period of None (free decay) never completes a cycle.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ParameterError(f"time must be finite and nonnegative, got {t}")
    if period is None:
        return 0, t
    m = int(math.floor(t / period + _GRID_FUZZ))
    theta = t - m * period
    return m, (theta if theta > 0.0 else 0.0)


def _steps(params: ModelParams, cycle: Cycle | None):
    r_sq = params.r_rate * params.r_rate
    segments = ((math.inf, 0.0),) if cycle is None else cycle.segments
    return [(length, propagator(complex(params.lam, -rate), r_sq))
            for length, rate in segments]


def _cycle_matrix(steps, slope_factor: float):
    # images of (1, 0) and (0, 1) under one full cycle
    columns = []
    for x, xd in ((1.0, 0.0), (0.0, 1.0)):
        for length, step in steps:
            x, xd = step(x, xd, length)
        columns.append((x, slope_factor * xd))
    (c00, c10), (c01, c11) = columns
    return c00, c01, c10, c11


def cycle_start(m: int, params: ModelParams,
                cycle: Cycle) -> tuple[complex, complex]:
    """State (x, x') at the start of cycle m, after the end-of-cycle map."""
    if m < 0:
        raise ParameterError(f"cycle index must be >= 0, got {m}")
    c00, c01, c10, c11 = _cycle_matrix(_steps(params, cycle),
                                       cycle.slope_factor)
    x, xd = 1.0, 0.0
    for _ in range(m):
        x, xd = c00 * x + c01 * xd, c10 * x + c11 * xd
    return x, xd


def evaluate(t, params: ModelParams, cycle: Cycle | None, value):
    """value(x, x', segment index, time into segment) at each requested time.

    t is a float or a sequence of times in any order.  A float gives one
    value; a sequence gives a list in the order of t, and each entry is
    bit-identical to the value the same time gives alone.  The cycle
    (None for free decay) starts from x = 1, x' = 0.
    """
    scalar = isinstance(t, numbers.Real)
    ts = [t] if scalar else t
    order = range(len(ts))
    if any(b < a for a, b in itertools.pairwise(ts)):
        order = sorted(order, key=ts.__getitem__)
    steps = _steps(params, cycle)
    if cycle is None:
        period = None
    else:
        period = cycle.period
        c00, c01, c10, c11 = _cycle_matrix(steps, cycle.slope_factor)
    last = len(steps) - 1
    out = [None] * len(ts)
    done, x0, xd0 = 0, 1.0, 0.0
    for i in order:
        m, theta = cycle_position(float(ts[i]), period)
        while done < m:
            x0, xd0 = c00 * x0 + c01 * xd0, c10 * x0 + c11 * xd0
            done += 1
        x, xd, k = x0, xd0, 0
        while k < last and theta > steps[k][0] + _GRID_FUZZ * period:
            x, xd = steps[k][1](x, xd, steps[k][0])
            theta -= steps[k][0]
            k += 1
        x, xd = steps[k][1](x, xd, theta)
        out[i] = value(x, xd, k, theta)
    return out[0] if scalar else out


def overlap(state: OddParityState):
    """x -> |<psi(0)|psi(t)>| = | |beta1|^2 + |beta2|^2 x |.

    x is the survival factor in the drive frame: inside a window the dark
    and the superradiant amplitude carry the same drive phase, which
    cancels in the modulus.  Extra positional arguments are ignored, so
    the result can be passed to evaluate as its value function.
    """
    w1 = abs(state.beta1) ** 2
    w2 = abs(state.beta2) ** 2
    return lambda x, *_: abs(w1 + w2 * x)
