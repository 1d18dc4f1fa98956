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

Free decay has no cycle.  One evaluator works on cells x times: a batch
of cells is one record and one schedule of per-cell arrays, one time each.
Cycle m starts from binary powers of the cycle matrix, O(log m) and
independent of other times and cells; nothing outlives the call.  One
cell's E and powers run once per distinct time into a segment and m.
"""

from __future__ import annotations

import contextlib
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ParameterError, broadcast, positive, refuse
from .model import Cycle, ModelParams, OddParityState, schedule_cycle

# beyond this value of Re(lam_c) * s the hyperbolic factors overflow before
# the damping factor can tame them; switch to the split exponentials
_SPLIT_THRESHOLD = 600.0

# below this |h| a series in h^2 avoids 0/0 at a degenerate split root
_SERIES_LIMIT = 1e-4

# relative to the period: a time this close below a cycle start m * period
# (as time_grid writes it) is in cycle m, and a segment boundary instant is
# in the earlier segment.  t / period of a start may round an ulp or two
# below m, so cycles are counted against the starts themselves
_GRID_FUZZ = 1e-12

# past this many cycles m * period no longer resolves the time into the cycle
_MAX_CYCLES = 2.0 ** 53
# from this period on every finite time lies within _MAX_CYCLES cycles
_MAX_PERIOD = np.finfo(float).max / _MAX_CYCLES
# below this magnitude a product of two floats stays in the float range
_HALF_RANGE = 2.0 ** 511
# e^x is 0.0 for every float x below this
_EXP_FLOOR = -746.0

# Every complex product goes through the ufunc, whose array loops fuse a
# multiply-add alike in every broadcast and stride (operand order matters),
# so one time or cell gives the same bits alone as in a batch; omega^2 and
# the cycle-matrix products keep Python's unfused rounding (_parts).
_mul = np.multiply


def _parts(ar, ai, br, bi):
    """(re, im) of (ar + i ai)(br + i bi), rounded as Python's complex
    product."""
    return ar * br - ai * bi, ar * bi + ai * br


def _complex(re, im):
    """re + i im, each part's bits as given."""
    out = np.asarray(re, complex)
    out.imag = im
    return out


def _cmul(a, b):
    """a * b rounded as Python's complex product, on scalars and arrays."""
    return _complex(*_parts(a.real, a.imag, b.real, b.imag))


def _overflow_to_inf(loud):
    """Let products overflow to inf, as meant, if any loud; else a no-op, as
    entering np.errstate leaves a new context-variable mapping behind."""
    return (np.errstate(over="ignore") if np.count_nonzero(loud)
            else contextlib.nullcontext())


def _product(a, b):
    """The 2x2 product a b of entries (e00, e01, e10, e11), each rounded as
    _cmul(a[i], b[j]) + _cmul(a[i + 1], b[j + 2]) from the entries' parts,
    read once.  A squaring (b is a) forms a01 a10 once: products and sums
    commute, so it rounds as a10 a01."""
    ap = [(e.real, e.imag) for e in a]
    bp = ap if b is a else [(e.real, e.imag) for e in b]
    cross = _parts(*ap[1], *bp[2])
    out = []
    for i in (0, 2):
        for j in (0, 1):
            r0, i0 = (cross if b is a and i + j == 3
                      else _parts(*ap[i], *bp[j]))
            r1, i1 = cross if i + j == 0 else _parts(*ap[i + 1], *bp[j + 2])
            out.append(_complex(r0 + r1, i0 + i1))
    return out


def _owned(mask):
    """Where mask is set: ... if everywhere (so a 0-d mask never gathers),
    the index tuple if somewhere, None if nowhere."""
    count = np.count_nonzero(mask)
    return None if not count else ... if count == np.size(mask) else (
        np.nonzero(mask))


def _take(a, at):
    """a at the entries at (see _owned): a per-cell or per-time array is
    gathered, a constant of one cell (or any 0-d value) kept as it is."""
    return a[at] if np.ndim(a) else a


def _decay(z):
    """e^z, and 0 where z is not finite but its real part underflows e^z:
    an overflowed phase would give NaN for a modulus of 0."""
    return np.exp(z, out=np.zeros(np.shape(z), complex),
                  where=np.isfinite(z) | ~(z.real < _EXP_FLOOR))


def propagator(lam_c, r_sq):
    """E(., lam_c) as a 2x2 matrix function of the duration, on every branch.

    Closed form of x'' + lam_c x' + r_sq x = 0 with split root
    omega = sqrt(lam_c^2 - 4 r_sq): a series in (omega s / 2)^2 near a
    degenerate root, pure exponentials once Re(lam_c) s passes the
    overflow threshold, cosh/sinh in between.  The returned function maps
    durations s of the cells at (see _owned; every cell by default), whose
    per-cell lam_c and r_sq it takes there, to the entries (e00, e01, e10,
    e11) that carry (x, x') over s.  Each branch is evaluated on the
    entries it owns only, gathered by index, so none overflows or divides
    0 by 0 on another's; elementwise ufuncs give the same bits at any
    length.
    """
    # a drive rate past about 1e154 overflows the split to inf: refused
    with _overflow_to_inf(np.maximum(np.abs(lam_c), r_sq) >= _HALF_RANGE):
        sq = _cmul(lam_c, lam_c) - 4.0 * r_sq
    refuse(ParameterError, [(np.isfinite(sq), "drive rate {} overflows the "
                             "damping split", -np.imag(lam_c))])
    omega = np.sqrt(sq)

    def series(s, h, lam, om):
        u = _mul(h, h)
        damp = np.exp(-lam / 2.0 * s)
        return (_mul(damp, 1.0 + _mul(u / 2.0, 1.0 + u / 12.0)),
                _mul(_mul(damp, s / 2.0),
                     1.0 + _mul(u / 6.0, 1.0 + u / 20.0)))

    def split(s, h, lam, om):
        em = _decay(-(lam - om) / 2.0 * s)
        ep = _decay(-(lam + om) / 2.0 * s)
        return (em + ep) / 2.0, np.divide(em - ep, 2.0 * om)

    def middle(s, h, lam, om):
        damp = np.exp(-lam / 2.0 * s)
        return (_mul(damp, np.cosh(h)),
                np.divide(_mul(damp, np.sinh(h)), om))

    def matrix(s, at=...):
        # as an array, a one-cell length rounds through the same ufuncs as
        # a batch
        s = np.asarray(s, float)
        lam, r2, om = (_take(a, at) for a in (lam_c, r_sq, omega))
        # past the float range: h, lam_c s inf (not near, far), exponents -inf
        with _overflow_to_inf(s >= _HALF_RANGE):
            h = om / 2.0 * s
            near = np.abs(h) <= _SERIES_LIMIT
            far = ~near & (lam.real * s > _SPLIT_THRESHOLD)
            # ch = e^{-lam_c s/2} cosh h, sn = e^{-lam_c s/2} sinh(h) / omega
            ch = np.zeros(np.shape(h), complex)
            sn = np.zeros_like(ch)
            for branch, terms in ((near, series), (far, split),
                                  (~(near | far), middle)):
                if (own := _owned(branch)) is not None:
                    # a list: a tuple resized from a generator stays on
                    # the free list
                    ch[own], sn[own] = terms(
                        *[_take(a, own) for a in (s, h, lam, om)])
        lam_sn = _mul(lam, sn)
        return ch + lam_sn, 2.0 * sn, -2.0 * r2 * sn, ch - lam_sn
    return matrix


def _apply(e, x, xd):
    """(x, x') -> (e00 x + e01 x', e10 x + e11 x')."""
    e00, e01, e10, e11 = e
    return _mul(e00, x) + _mul(e01, xd), _mul(e10, x) + _mul(e11, xd)


def _times(t) -> np.ndarray:
    """t as an array of floats; ParameterError if numpy cannot read it as
    one, as text or a ragged sequence, or reads it as complex, which a cast
    to float would take the real part of."""
    try:
        # a float becomes a 0-d array: it has no shape buffer, so a
        # single-time call leaves nothing behind in numpy's small-buffer
        # cache
        if (ts := np.asarray(t)).dtype.kind != "c":
            return ts.astype(float)
    except (TypeError, ValueError):
        pass
    raise ParameterError("time must be a real number or a sequence or array "
                         f"of them, of one shape; got {type(t).__name__}")


def _positions(ts: np.ndarray, period):
    """(completed cycles, time into the current cycle) for an array of times.

    The single time check of the package: every time must be finite and
    nonnegative, and span at most 2**53 cycles.  A batch (per-cell periods)
    names its first cell in error, one cell its first bad time, else its
    latest.  A period of None (free decay) never completes a cycle.
    """
    bad = ~(np.isfinite(ts) & (ts >= 0.0))
    fail = bad | (ts > (math.inf if period is None else
                        np.minimum(period, _MAX_PERIOD) * _MAX_CYCLES))
    if np.count_nonzero(fail):
        i = np.argmax(fail if np.ndim(period) else
                      bad if np.count_nonzero(bad) else ts)
        raise ParameterError(
            f"time must be finite and nonnegative, got {ts.flat[i]}"
            if bad.flat[i] else f"time spans more than 2**53 cycles of "
            f"{np.broadcast_to(period, ts.shape).flat[i]}, got {ts.flat[i]}")
    if period is None:
        return np.zeros(ts.shape), ts
    # a start past the float range is inf, which no time reaches
    m, fuzz = np.floor(ts / period), _GRID_FUZZ * period
    with _overflow_to_inf(period >= _HALF_RANGE):
        m = m - (ts < m * period - fuzz) + (ts >= (m + 1.0) * period - fuzz)
    theta = ts - m * period
    return m, np.where(theta > 0.0, theta, 0.0)


def _past(theta, length, period):
    """Past a segment of this length; its end instant is still in it."""
    return theta > length + _GRID_FUZZ * period


def _segments(params, cycle, shape=()):
    """(period, [(length, propagator, k)]) of params under cycle (None:
    free decay, one endless segment): numbers or per-cell arrays of the
    times' shape, a batch's period per cell (see _distinct), k numbers.
    A cycle that is not None or a Cycle is refused with ParameterError."""
    if not isinstance(params, ModelParams):
        raise ParameterError("params must be a ModelParams, a batch one of "
                             f"per-cell arrays; got {type(params).__name__}")
    if cycle is not None and not isinstance(cycle, Cycle):
        raise ParameterError("a cycle must be None or a Cycle; got "
                             f"{type(cycle).__name__}")
    period, segments = ((None, ((math.inf, 0.0, 1.0),)) if cycle is None
                        else (cycle.period, cycle.segments))
    shapes = {np.shape(f) for f in (params.lam, params.r_rate, period, *(
        f for length, rate, _ in segments for f in (length, rate)))} - {()}
    if shapes - {shape}:
        raise ParameterError(f"per-cell fields take the times' shape {shape}"
                             f", one time per cell; got {sorted(shapes)}")
    if shapes and period is not None:
        period = np.broadcast_to(period, shape)
    # lam - i rate, with the imaginary part -0.0 where undriven
    return period, [(length, propagator(-(1j * rate - params.lam),
                                        params.r_rate * params.r_rate), k)
                    for length, rate, k in segments]


def _cycle_matrix(segments):
    # the map over each whole segment, its end map (x, x') -> (x, k x')
    # included, and the product of those maps over the cycle
    whole, c = [], (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
    for length, matrix, k in segments:
        e00, e01, e10, e11 = matrix(length)
        whole.append((e00, e01, k * e10, k * e11))
        c = _product(whole[-1], c)
    return whole, c


def _distinct(a, cell):
    """(values, back), values[back] == a, for an array a one cell's cycle
    folds (cell 0-d); a batch, 0-d a or free decay (cell None) stays whole."""
    if np.ndim(a) and cell is not None and not np.ndim(cell):
        return np.unique(a, return_inverse=True)
    return a, ...


def _powers(m, c):
    """c**m applied to (1, 0), for an array m of whole numbers.

    Binary powers: O(log m), once per distinct m of one cell.  Each state
    depends on its own m and cell only; a finished cell squares zeros, and
    nothing is squared after the last bit.
    """
    m, which = _distinct(m, c and c[0])
    x, xd = np.ones(np.shape(m), complex), np.zeros(np.shape(m), complex)
    # cells whose entries are not zeros yet, and cells with bits left
    kept, live = np.size(m), np.count_nonzero(m)
    while live:
        m, bit = np.divmod(m, 2.0)
        odd = bit == 1.0
        x_odd, xd_odd = _apply(c, x, xd)
        x, xd = np.where(odd, x_odd, x), np.where(odd, xd_odd, xd)
        if not (live := np.count_nonzero(m)):
            break
        if live < kept and np.ndim(c[0]):
            c, kept = [np.where(m > 0.0, e, 0.0) for e in c], live
        c = _product(c, c)
    return x[which], xd[which]


def cycle_start(m: int, params: ModelParams,
                cycle: Cycle) -> tuple[complex, complex]:
    """State (x, x') at the start of cycle m, after the last segment's map.

    Free decay (cycle None) has the one cycle m = 0."""
    try:
        whole = not isinstance(m, bool) and (
            0 <= operator.index(m) <= (_MAX_CYCLES if cycle else 0))
    except TypeError:
        whole = False
    if not whole:
        raise ParameterError("cycle index must be a whole number in "
                             f"[0, 2**53] (0 for free decay), got {m!r}")
    period, segments = _segments(params, cycle)
    c = None if period is None else _cycle_matrix(segments)[1]
    x, xd = _powers(np.array(float(m)), c)
    return complex(x), complex(xd)


def evaluate(t, params, cycle, value):
    """value(x, x', segment index, time into segment) at each requested time.

    params and cycle are one cell or a batch (see _segments); t is a float,
    sequence or ndarray of times in any order, one per cell in a batch.
    value maps arrays to an array or a tuple of arrays: given as they are
    for an ndarray t, as a Python value (or tuple) for a float, else a list
    (of tuples), each bit-identical alone.  Cycles start at x = 1, x' = 0.
    One cell's E and powers run once per distinct time into a segment and m.
    """
    ts = _times(t)
    period, segments = _segments(params, cycle, shape := ts.shape)
    m, theta = _positions(ts, period)
    # each whole segment's map, shared by every time of a cell; none if free
    whole, c = ([], None) if period is None else _cycle_matrix(segments)
    x, xd = _powers(m, c)
    # each segment maps only the times it owns, gathered by index
    k = np.zeros(shape, int)
    for j, (length, _, _) in enumerate(segments[:-1]):
        if (at := _owned((k == j) & _past(theta, length, period))) is None:
            continue
        x[at], xd[at] = _apply([_take(e, at) for e in whole[j]], x[at],
                               xd[at])
        theta[at] -= _take(length, at)
        k[at] = j + 1
    for j, (length, matrix, end) in enumerate(segments):
        if (at := _owned(k == j)) is None:
            continue
        s, back = _distinct(into := theta[at], period)
        # each product overwrites a fresh entry already read, not its input
        e00, e01, e10, e11 = [e[back] for e in matrix(s, at)]
        p = _mul(e01, xd[at])
        y = np.add(_mul(e00, x[at], out=e01), p, out=e01)
        p = _mul(e11, xd[at], out=e00)
        x[at], xd[at] = y, np.add(_mul(e10, x[at], out=e11), p, out=e11)
        if j < len(segments) - 1 and end != 1.0:
            # x' on an inner segment end is after its map, as on a cycle end
            edge = into >= _take(length, at) - _GRID_FUZZ * _take(period, at)
            xd[at] = np.where(edge, end * xd[at], xd[at])
    out = value(x, xd, k, theta)
    if isinstance(t, np.ndarray):
        return out
    if not isinstance(out, tuple):
        return np.asarray(out).tolist()
    columns = [np.asarray(column).tolist() for column in out]
    return list(zip(*columns)) if shape else tuple(columns)


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
        broadcast(ConfigError, delta_t=self.delta_t)
        refuse(ConfigError, [positive("measurement interval", self.delta_t)])

    @cached_property
    def cycle(self) -> Cycle:
        return Cycle(self.delta_t, ((self.delta_t, 0.0, 0.0),))


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
        broadcast(ConfigError, tau=self.tau)
        refuse(ConfigError, [positive("pulse interval", self.tau)])

    @cached_property
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


FREE_SEGMENT = "free"
IN_PULSE_SEGMENT = "in_pulse"
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

    A tau and N whose window tau/N rounds to 0 (N past the float range
    included) or whose drive rate N pi / tau overflows are refused with
    ConfigError when built, naming a batch's first bad cell, as is an
    interval that is not finite and positive.
    """

    tau: float
    n_duty: int

    # past the float range a numpy drive rate is inf (and refused), not a
    # warning
    @np.errstate(over="ignore")
    def __post_init__(self):
        n = self.n_duty
        broadcast(ConfigError, counts=("n_duty",), tau=self.tau, n_duty=n)
        whole = isinstance(n, int) or np.asarray(n).dtype.kind in "iu"
        refuse(ConfigError, [positive("cycle interval", self.tau), (
            whole and n >= 2, "duty parameter must be an integer >= 2, got "
            "{!r}", n)])
        if not np.ndim(n):  # a numpy integer is kept as a Python int
            object.__setattr__(self, "n_duty", int(n))
        # the free part is at least the window, so both have a length if
        # the window has; a Python int N past the float range leaves none
        # (and cannot be divided by)
        big = not np.ndim(n) and n > sys.float_info.max
        refuse(ConfigError, [
            (not big and self.window_length > 0.0, "cycle interval {} leaves "
             "the window tau/N of duty parameter {} no length", self.tau, n),
            (big or self.phase_rate < math.inf, "cycle interval {} with duty "
             "parameter {} gives a drive rate N pi / tau past the float "
             "range", self.tau, n)])

    @property
    def free_length(self) -> float:
        return (1.0 - 1.0 / self.n_duty) * self.tau

    @property
    def window_length(self) -> float:
        return self.tau / self.n_duty

    @property
    def phase_rate(self) -> float:
        """Drive rotation rate inside windows, N pi / tau."""
        return self.n_duty * math.pi / self.tau

    @cached_property
    def cycle(self) -> Cycle:
        return Cycle(self.tau, ((self.free_length, 0.0, 1.0),
                                (self.window_length, self.phase_rate, 1.0)))

    def segment_of(self, t: float) -> tuple[str, int, float]:
        """Classify t as ("free" | "in_pulse", cycle index, offset into cycle);
        ParameterError for times or cells but one of each."""
        cells = np.shape(self.free_length)
        if np.ndim(ts := _times(t)) or cells:
            raise ParameterError(
                "segment_of classifies one time of one cell; got times of "
                f"shape {ts.shape} and cells of shape {cells}")
        m, theta = _positions(ts, self.tau)
        tag = _TAGS[int(_past(theta, self.free_length, self.tau))]
        return tag, int(m), float(theta)


def _drive(sched, real=False):
    """(the cycle of sched; k -> (drive rate, tag) per cell at segment
    indices k, or None if undriven).  real refuses an undriven cycle with a
    non-real end map k: its x is taken real, and Im x would be dropped."""
    cycle = schedule_cycle(sched, "a batch one of per-cell arrays")
    rates = [rate for _, rate, _ in cycle.segments] if cycle else []
    if not any(map(np.count_nonzero, rates)):
        if real and cycle and any(complex(k).imag for *_, k in cycle.segments):
            raise ConfigError("an undriven cycle takes real segment ends k "
                              "only")
        return cycle, None

    def at(k):
        rate = np.select([k == j for j in range(len(rates))], rates)
        return rate, _TAGS[np.where(rate != 0.0, 1, 0)]
    return cycle, at


def survival(t, sched, params):
    """Superradiant survival factor after time t under sched (None: free).

    t is a float, a sequence (giving a list) or an ndarray (an array); sched
    and params may be one batch of cells (see evaluate).  Values are
    real unless a segment is driven; then they are (amplitude, tag) pairs,
    or one (amplitudes, tags) pair of arrays, tagged "in_pulse" on a driven
    segment and "free" elsewhere.  The exact pi phase of each completed
    window is common to the whole single-excitation sector and absorbed, so
    free-segment values line up cycle to cycle; inside a window the
    amplitude carries its segment's partial drive phase exp(-i rate into),
    which the oracle's co-rotating beta2 leaves out.  An undriven cycle
    whose end map k is not real is refused with ConfigError.
    """
    cycle, drive = _drive(sched, real=True)
    if drive is None:
        return evaluate(t, params, cycle, lambda x, *_: x.real)

    def value(x, xd, k, into):
        rate, tag = drive(k)
        phase = np.exp(-1j * rate * into)
        return np.where(rate != 0.0, _mul(x, phase), x), tag
    return evaluate(t, params, cycle, value)


def fidelity(state0: OddParityState, t, sched, params):
    """Modulus of the overlap with the initial state; t, sched, params and
    tags as in survival.  The drive phase cancels in the modulus (see
    overlap), so the value stays continuous across window edges.  A state0
    that is not an OddParityState is refused with ParameterError."""
    if not isinstance(state0, OddParityState):
        raise ParameterError("state0 must be an OddParityState; got "
                             f"{type(state0).__name__}")
    (cycle, drive), value = _drive(sched), overlap(state0)
    return evaluate(t, params, cycle, value if drive is None else
                    lambda x, xd, k, _: (value(x), drive(k)[1]))


def coefficients(m: int, sched, params: ModelParams) -> RecursionCoeffs:
    """Coefficients of the damped-oscillator solution on interval m.

    Interval 0 reproduces free decay (sched None has no other); each
    segment's end map keeps the value and multiplies the slope by its k, so
    a pulse reverses it.  Real unless the cycle is driven.
    """
    cycle, drive = _drive(sched, real=True)
    x, xd = cycle_start(m, params, cycle)
    if drive is None:
        x, xd = x.real, xd.real
    return RecursionCoeffs.from_state(x, xd, m, params)


def free_survival(t, params: ModelParams):
    """survival with no schedule: real, 1 at t = 0, in [-1, 1], and strictly
    positive in the overdamped and critical regimes."""
    return survival(t, None, params)


def free_survival_slope(t, params: ModelParams):
    """Time derivative of free_survival.  Zero at t = 0 on every branch."""
    return evaluate(t, params, None, lambda x, xd, *_: xd.real)


def free_fidelity(state0: OddParityState, t, params: ModelParams):
    """fidelity with no schedule."""
    return fidelity(state0, t, None, params)


# the per-protocol names: each is the general entry under its schedule
zeno_amplitude = dd_survival = finite_dd_survival = survival
zeno_fidelity = dd_fidelity = finite_dd_fidelity = fidelity
dd_coefficients = finite_dd_coefficients = coefficients
