"""Closed forms of every protocol on one transfer-matrix core.

Between interventions the superradiant survival factor x obeys

    x'' + lam_c x' + R^2 x = 0,

with lam_c = lam in free evolution and lam_c = lam - i N pi / tau inside a
finite drive window, in the frame co-rotating with the drive.  The state
(x, x') is carried over a time s by the closed-form propagator E(s, lam_c).

Every protocol is free decay cut into cycles of one period.  A cycle runs a
fixed list of segments, each a duration with the drive rate shifting the
damping constant, and each ends in its own map (x, x') -> (x, k x'):

* k = 0 projects onto the reservoir vacuum (repeated measurement),
* k = -1 is an instantaneous double-pi pulse (slope reversal),
* k = 1 ends a free segment or a drive window, whose exact pi phase is
  common to the single-excitation sector and therefore absorbed.

Free decay has no cycle.  One evaluator works on all requested times at
once as numpy arrays: the state at the start of cycle m comes from binary
powers of the cycle matrix, O(log m) and independent of the other times,
and E is applied inside the current cycle; nothing outlives the call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError
from .model import ModelParams, OddParityState

# beyond this value of Re(lam_c) * s the hyperbolic factors overflow before
# the damping factor can tame them; switch to the split exponentials
_SPLIT_THRESHOLD = 600.0

# below this |h| a series in h^2 avoids 0/0 at a degenerate split root
_SERIES_LIMIT = 1e-4

# tolerates t / period landing a few ulps below an integer, and assigns a
# segment boundary instant to the earlier segment; in cycle counting it
# grows by a few ulps of t / period, since m * period / period is off by
# about m ulps
_GRID_FUZZ = 1e-12
_EPS = np.finfo(float).eps

# past this many cycles m * period no longer resolves the time into the cycle
_MAX_CYCLES = 2.0 ** 53

# Every product of two complex factors goes through the ufunc: numpy's
# scalar arithmetic rounds a complex product without the fused multiply-add
# of its array loops, and a single time is evaluated on 0-d arrays, whose
# results are numpy scalars.  With the ufunc a time gives the same bits
# alone as inside a sequence.
_mul = np.multiply


@dataclass(frozen=True)
class Cycle:
    """One period of a protocol.

    segments: (duration, drive rate, k) triples run in order; a drive rate
    phi shifts the damping constant to lam - i phi, and the segment ends in
    the map (x, x') -> (x, k x').
    """

    period: float
    segments: tuple[tuple[float, float, float], ...]


def _on(own, f, z):
    """f(z) where own is true and 0 elsewhere; f never sees the rest."""
    return f(z, out=np.zeros(np.shape(z), complex), where=own)


def propagator(lam_c: complex, r_sq: float):
    """E(., lam_c) as a 2x2 matrix function of the duration, on every branch.

    Closed form of x'' + lam_c x' + r_sq x = 0 with split root
    omega = sqrt(lam_c^2 - 4 r_sq): a series in (omega s / 2)^2 near a
    degenerate root, pure exponentials once Re(lam_c) s passes the
    overflow threshold, cosh/sinh in between.  The returned function maps
    durations s and a mask own (arrays of one shape, 0-d for a single
    time) to the entries (e00, e01, e10, e11) that carry (x, x') over s.
    Each branch sees only the durations it owns, 0 elsewhere, so none can
    overflow on another branch's duration; entries off own are meaningless.
    """
    lam_c = complex(lam_c)
    omega = cmath.sqrt(lam_c * lam_c - 4.0 * r_sq)

    def series(s, h, own):
        u = _mul(h, h)
        damp = _on(own, np.exp, -lam_c / 2.0 * s)
        return (_mul(damp, 1.0 + _mul(u / 2.0, 1.0 + u / 12.0)),
                _mul(damp * (s / 2.0), 1.0 + _mul(u / 6.0, 1.0 + u / 20.0)))

    def split(s, h, own):
        em = _on(own, np.exp, -(lam_c - omega) / 2.0 * s)
        ep = _on(own, np.exp, -(lam_c + omega) / 2.0 * s)
        return (em + ep) / 2.0, (em - ep) / (2.0 * omega)

    def middle(s, h, own):
        damp = _on(own, np.exp, -lam_c / 2.0 * s)
        return (_mul(damp, _on(own, np.cosh, h)),
                _mul(damp, _on(own, np.sinh, h)) / omega)

    def matrix(s, own):
        s = np.where(own, s, 0.0)
        h = omega / 2.0 * s
        near = own & (np.abs(h) <= _SERIES_LIMIT)
        far = own & ~near & (lam_c.real * s > _SPLIT_THRESHOLD)
        # ch = e^{-lam_c s/2} cosh h, sn = e^{-lam_c s/2} sinh(h) / omega
        ch = sn = 0.0
        for branch, terms in ((near, series), (far, split),
                              (own & ~(near | far), middle)):
            if np.count_nonzero(branch):
                c, n = terms(np.where(branch, s, 0.0),
                             np.where(branch, h, 0.0), branch)
                ch, sn = np.where(branch, c, ch), np.where(branch, n, sn)
        lam_sn = _mul(lam_c, sn)
        return ch + lam_sn, 2.0 * sn, -2.0 * r_sq * sn, ch - lam_sn
    return matrix


def _apply(e, x, xd, own):
    """(x, x') -> (e00 x + e01 x', e10 x + e11 x') where own; the rest kept."""
    e00, e01, e10, e11 = e
    return (np.where(own, _mul(e00, x) + _mul(e01, xd), x),
            np.where(own, _mul(e10, x) + _mul(e11, xd), xd))


def _positions(ts: np.ndarray, period: float | None):
    """(completed cycles, time into the current cycle) for an array of times.

    The single time check of the package: every time must be finite and
    nonnegative, and span at most 2**53 cycles.  A period of None (free
    decay) never completes a cycle.
    """
    bad = ~(np.isfinite(ts) & (ts >= 0.0))
    if np.count_nonzero(bad):
        raise ParameterError(
            f"time must be finite and nonnegative, got {ts[bad][0]}")
    if period is None:
        return np.zeros(ts.shape), ts
    if np.count_nonzero(ts > period * _MAX_CYCLES):
        raise ParameterError(
            f"time spans more than 2**53 cycles of {period}, got {np.max(ts)}")
    q = ts / period
    m = np.floor(q + (_GRID_FUZZ + 4.0 * _EPS * q))
    theta = ts - m * period
    return m, np.where(theta > 0.0, theta, 0.0)


def _segments(params: ModelParams, cycle: Cycle | None):
    r_sq = params.r_rate * params.r_rate
    segments = ((math.inf, 0.0, 1.0),) if cycle is None else cycle.segments
    return [(length, propagator(complex(params.lam, -rate), r_sq), k)
            for length, rate, k in segments]


def _cycle_matrix(segments):
    # the map over each whole segment, its end map (x, x') -> (x, k x')
    # included, and the product of those maps over the cycle
    whole, c = [], (1.0, 0.0, 0.0, 1.0)
    for length, matrix, k in segments:
        e00, e01, e10, e11 = matrix(length, True)
        whole.append((e00, e01, k * e10, k * e11))
        e00, e01, e10, e11 = (complex(v) for v in whole[-1])
        c = (e00 * c[0] + e01 * c[2], e00 * c[1] + e01 * c[3],
             e10 * c[0] + e11 * c[2], e10 * c[1] + e11 * c[3])
    return whole, c


def _powers(m, c):
    """c**m applied to (1, 0), for an array m of whole numbers.

    Binary powers: O(log m).  The squarings are the same for every entry,
    so each state depends on its own m only.
    """
    x, xd = np.ones(np.shape(m), complex), np.zeros(np.shape(m), complex)
    while np.count_nonzero(m):
        x, xd = _apply(c, x, xd, m % 2.0 == 1.0)
        c00, c01, c10, c11 = c
        c = (c00 * c00 + c01 * c10, c00 * c01 + c01 * c11,
             c10 * c00 + c11 * c10, c10 * c01 + c11 * c11)
        m = m // 2.0
    return x, xd


def _cycle_starts(m, c):
    """States (x, x') after m cycles from (1, 0), one power per distinct m."""
    if not np.ndim(m):
        return _powers(m, c)
    distinct, which = np.unique(m, return_inverse=True)
    x, xd = _powers(distinct, c)
    return x[which], xd[which]


def cycle_start(m: int, params: ModelParams,
                cycle: Cycle) -> tuple[complex, complex]:
    """State (x, x') at the start of cycle m, after the last segment's map."""
    if m < 0:
        raise ParameterError(f"cycle index must be >= 0, got {m}")
    _, c = _cycle_matrix(_segments(params, cycle))
    x, xd = _cycle_starts(np.array(float(m)), c)
    return complex(x), complex(xd)


def evaluate(t, params: ModelParams, cycle: Cycle | None, value):
    """value(x, x', segment index, time into segment) at each requested time.

    t is a float or a sequence (or array) of times in any order.  value
    takes arrays and returns an array or a tuple of arrays.  A float gives
    one Python value (or tuple); a sequence gives a list of them in the
    order of t, and each entry is bit-identical to the value the same time
    gives alone.  The cycle (None for free decay) starts from x = 1, x' = 0.
    """
    # a float becomes a 0-d array: it has no shape buffer, so a single-time
    # call leaves nothing behind in numpy's small-buffer cache
    ts = np.array(t, dtype=float)
    segments = _segments(params, cycle)
    period = None if cycle is None else cycle.period
    m, theta = _positions(ts, period)
    if cycle is None:
        x, xd = np.ones(ts.shape, complex), np.zeros(ts.shape, complex)
    else:
        # the map over each whole segment, shared by every time
        whole, c = _cycle_matrix(segments)
        x, xd = _cycle_starts(m, c)
    k = np.zeros(ts.shape, int)
    for j, (length, _, _) in enumerate(segments[:-1]):
        later = (k == j) & (theta > length + _GRID_FUZZ * period)
        x, xd = _apply(whole[j], x, xd, later)
        theta = np.where(later, theta - length, theta)
        k = np.where(later, j + 1, k)
    for j, (_, matrix, _) in enumerate(segments):
        own = k == j
        x, xd = _apply(matrix(theta, own), x, xd, own)
    out = value(x, xd, k, theta)
    if not isinstance(out, tuple):
        return np.asarray(out).tolist()
    columns = [np.asarray(column).tolist() for column in out]
    return tuple(columns) if ts.ndim == 0 else list(zip(*columns))


def overlap(state: OddParityState):
    """x -> |<psi(0)|psi(t)>| = | |beta1|^2 + |beta2|^2 x |, at most 1.

    x is the survival factor in the drive frame: inside a window the dark
    and the superradiant amplitude carry the same drive phase, which
    cancels in the modulus.  The overlap of two unit vectors has modulus
    at most 1; the cap removes the rounding excess where the propagated x
    stays within an ulp of 1, and lets NaN through.  x is an array; extra
    positional arguments are ignored, so the result can be passed to
    evaluate as its value function.
    """
    w1 = abs(state.beta1) ** 2
    w2 = abs(state.beta2) ** 2

    def value(x, *_):
        v = np.abs(w1 + w2 * x)
        return np.where(v > 1.0, 1.0, v)
    return value


# protocols: schedules, linked to the core by their cycle, and closed forms

def _require_interval(what: str, value: float) -> None:
    if not (0.0 < value < math.inf):
        raise ConfigError(
            f"{what} interval must be finite and positive, got {value}")


def _real(x, *_):
    return x.real


def free_survival(t, params: ModelParams):
    """Survival factor of the superradiant amplitude after time t.

    Free decay has no cycle; its envelopes on the three damping branches
    join continuously.  Real on every branch; equals 1 at t = 0, stays in
    [-1, 1], and is strictly positive in the overdamped and critical
    regimes.  t is a float or a sequence of times (giving a list).
    """
    return evaluate(t, params, None, _real)


def free_survival_slope(t, params: ModelParams):
    """Time derivative of free_survival.  Zero at t = 0 on every branch."""
    return evaluate(t, params, None, lambda x, xd, *_: xd.real)


def free_fidelity(state0: OddParityState, t, params: ModelParams):
    """Modulus of the overlap between the initial and the evolved state."""
    return evaluate(t, params, None, overlap(state0))


@dataclass(frozen=True)
class ZenoSchedule:
    """Repeated vacuum projection every delta_t time units.

    Each projection that finds no photon restarts the free decay from the
    (unrenormalized) surviving amplitude: the cycle is free decay over
    delta_t followed by (x, x') -> (x, 0), so after n = floor(t / delta_t)
    measurements the superradiant factor is survival(delta_t)^n *
    survival(t - n delta_t).  No renormalization is applied: the curve
    tracks the conditional no-click branch with its shrunken norm.
    """

    delta_t: float

    def __post_init__(self):
        _require_interval("measurement", self.delta_t)

    @property
    def cycle(self) -> Cycle:
        return Cycle(self.delta_t, ((self.delta_t, 0.0, 0.0),))


def zeno_amplitude(t, sched: ZenoSchedule, params: ModelParams):
    """Superradiant survival factor under repeated vacuum projection.

    t is a float or a sequence of times (giving a list).
    """
    return evaluate(t, params, sched.cycle, _real)


def zeno_fidelity(state0: OddParityState, t, sched: ZenoSchedule,
                  params: ModelParams):
    """Modulus of overlap with the initial state under the measurement protocol."""
    return evaluate(t, params, sched.cycle, overlap(state0))


@dataclass(frozen=True)
class DdSchedule:
    """One instantaneous double-pi-phase pulse at every multiple of tau.

    A pulse flips the sign of the ground-plus-photon amplitude relative to
    the single-excitation sector, which negates the accumulated reservoir
    back-action.  Between pulses the superradiant factor obeys the same
    damped-oscillator equation as in free decay; at each pulse the value is
    continuous while the slope reverses sign, so the cycle is free decay
    over tau followed by (x, x') -> (x, -x').
    """

    tau: float

    def __post_init__(self):
        _require_interval("pulse", self.tau)

    @property
    def cycle(self) -> Cycle:
        return Cycle(self.tau, ((self.tau, 0.0, -1.0),))


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
    return evaluate(t, params, sched.cycle, _real)


def dd_fidelity(state0: OddParityState, t, sched: DdSchedule,
                params: ModelParams):
    """Modulus of overlap with the initial state under instantaneous pulses."""
    return evaluate(t, params, sched.cycle, overlap(state0))


FREE_SEGMENT = "free"
IN_PULSE_SEGMENT = "in_pulse"

# segment index within a cycle -> tag; an object array hands out the two
# tag strings themselves, not a copy per time
_TAGS = np.array([FREE_SEGMENT, IN_PULSE_SEGMENT], dtype=object)


@dataclass(frozen=True)
class FinitePulseSchedule:
    """Cycle interval tau with the final tau/N of each cycle driven.

    Each cycle of length tau is free for the first (1 - 1/N) tau and driven
    for the final tau/N, during which both qubits are phase-rotated at rate
    N pi / tau.  Over one window the single-excitation sector gains exactly
    a pi phase relative to the ground sector, so N -> infinity recovers the
    instantaneous protocol.

    In the frame co-rotating with the drive the superradiant factor obeys
    the same second-order interval equation as in free decay but with the
    damping constant shifted to lam - i N pi / tau inside windows.  A cycle
    is therefore two segments of the shared propagator, on every damping
    branch; the window's pi phase is common to the single-excitation sector
    and is absorbed at the cycle end.
    """

    tau: float
    n_duty: int

    def __post_init__(self):
        _require_interval("cycle", self.tau)
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
        return Cycle(self.tau, ((self.free_length, 0.0, 1.0),
                                (self.window_length, self.phase_rate, 1.0)))

    def segment_of(self, t: float) -> tuple[str, int, float]:
        """Classify t as ("free" | "in_pulse", cycle index, offset into cycle)."""
        m, theta = _positions(np.array(t, dtype=float), self.tau)
        free = theta <= self.free_length + _GRID_FUZZ * self.tau
        return FREE_SEGMENT if free else IN_PULSE_SEGMENT, int(m), float(theta)


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
