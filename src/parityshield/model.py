"""Model parameters and the odd-parity state of two qubits in a shared reservoir.

Two qubits coupled to a common zero-temperature reservoir with a Lorentzian
spectral line admit, within the single-excitation (odd-parity) sector, a
decoupled "dark" superposition and a maximally coupled "superradiant" one.
Everything downstream works in that two-dimensional basis, so this module
holds the parameter bookkeeping and the basis change from the physical
{|10>, |01>} amplitudes, and the protocol cycle that the closed forms and
the oracle both read.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (ParameterError, StateError, broadcast, number, positive,
                     refuse)

BRANCH_OVERDAMPED = "overdamped"
BRANCH_CRITICAL = "critical"
BRANCH_UNDERDAMPED = "underdamped"

# relative width of the window around lam^2 == 4 R^2 tagged as critical
_CRITICAL_RTOL = 1e-12

# below this (the smallest normal float) a square has lost digits or is 0
_TINY = sys.float_info.min

# norm may only shrink during evolution; allow this much float slack above 1
_NORM_SLACK = 1e-12

# equal coupling weights whose hypot is exactly 1.0, so that W = R
_SYMMETRIC = math.sqrt(0.5)

# relative slack of a cycle's durations against its period: every cycle
# the package builds fills it to a few ulps
_FILL_RTOL = 1e-12


def _scalar(a):
    """0-d as a Python scalar, so one cell's record keeps Python fields."""
    return a.item() if np.ndim(a) == 0 else a


def _weight(a: complex, b: complex) -> float:
    """|a|^2 + |b|^2, inf past the float range (a power raises instead)."""
    return abs(a) * abs(a) + abs(b) * abs(b)


# past the float range the squares are inf (and refused): no warning
@np.errstate(over="ignore", invalid="ignore")
def _derive(lam, w_coupling, alpha1, alpha2):
    """((alpha, r_rate, omega, branch), checks for refuse) of one cell's or
    per-cell couplings.  The interval dynamics x'' + lam x' + R^2 x = 0
    split by the root of lam^2 - 4 R^2: omega is its magnitude, 0.0 on the
    critical branch, and the branch tags its sign.  Squares are taken in
    float64, where a numpy int's would wrap."""
    broadcast(ParameterError, lam=lam, w_coupling=w_coupling, alpha1=alpha1,
              alpha2=alpha2)
    if cells := [f"{key} of shape {np.shape(a)}" for key, a in
                 (("alpha1", alpha1), ("alpha2", alpha2)) if np.ndim(a)]:
        raise ParameterError("the coupling weights are one pair for every "
                             "cell; got " + ", ".join(cells))
    alpha = math.hypot(alpha1, alpha2)
    r_rate = _scalar(np.multiply(alpha, w_coupling))
    lam_sq, r4_sq = np.square(lam, dtype=float), 4.0 * r_rate * r_rate
    disc, scale = lam_sq - r4_sq, np.maximum(lam_sq, r4_sq)
    critical = abs(disc) <= _CRITICAL_RTOL * scale
    omega = np.where(critical, 0.0, np.sqrt(abs(disc)))
    branch = np.where(~critical & (disc > 0.0), BRANCH_OVERDAMPED, np.where(
        critical, BRANCH_CRITICAL, BRANCH_UNDERDAMPED))
    split = "the damping split lam^2 - 4 R^2: lam={}, R={}"
    return (alpha, r_rate, _scalar(omega), _scalar(branch)), [
        positive("decay rate", lam),
        positive("coupling strength", w_coupling),
        (alpha1 > 0.0 and alpha2 > 0.0, "coupling weights must be "
         f"positive reals, got ({alpha1}, {alpha2})"),
        # the split squares both rates; past the float range the squares
        # are inf and the branch tag is meaningless
        (np.isfinite(lam_sq) & np.isfinite(r4_sq), "rates overflow " + split,
         lam, r_rate),
        # with both squares that small every pair reads as critical, omega 0
        (scale >= _TINY, "rates underflow " + split, lam, r_rate),
        # a subnormal 4 R^2 has lost digits of R^2
        ((r4_sq <= 0.0) | (r4_sq >= _TINY), "collective rate R={} gives a "
         "subnormal 4 R^2, which keeps only a few digits", r_rate)]


@dataclass(frozen=True)
class ModelParams:
    """Reservoir and coupling constants plus derived damping-split data.

    Fields
    ------
    lam:        reservoir memory decay rate (> 0)
    w_coupling: reservoir coupling strength (> 0)
    alpha1, alpha2: per-qubit coupling weights (positive reals)
    alpha:      sqrt(alpha1^2 + alpha2^2)
    r_rate:     collective coupling rate, alpha * w_coupling
    omega:      magnitude of the damping-split root sqrt(|lam^2 - 4 r_rate^2|);
                0.0 on the critical branch
    branch:     "overdamped" | "critical" | "underdamped"

    The caller gives the first four; __post_init__ derives the rest, and
    derives them again under dataclasses.replace.  The classmethods build
    the record from whichever input pair the caller has.  A batch of cells
    is one record with per-cell arrays for lam and w_coupling, each cell
    bit for bit its own record.
    """

    lam: float
    w_coupling: float
    alpha1: float
    alpha2: float
    alpha: float = field(init=False)
    r_rate: float = field(init=False)
    omega: float = field(init=False)
    branch: str = field(init=False)

    def __post_init__(self):
        derived, checks = _derive(self.lam, self.w_coupling, self.alpha1,
                                  self.alpha2)
        refuse(ParameterError, checks)
        for name, value in zip(("alpha", "r_rate", "omega", "branch"),
                               derived):
            object.__setattr__(self, name, value)

    @property
    def basis_weights(self) -> tuple[float, float]:
        """(alpha1, alpha2) / alpha: the superradiant state on |10>, |01>."""
        return self.alpha1 / self.alpha, self.alpha2 / self.alpha

    @classmethod
    def from_effective_rate(cls, lam: float, r_rate: float) -> "ModelParams":
        """Build from (lam, R).

        The two-level dark/superradiant dynamics depend only on lam and R,
        so the weight split defaults to the symmetric alpha1 = alpha2 =
        1/sqrt(2) with W = R.
        """
        broadcast(ParameterError, lam=lam, r_rate=r_rate)
        refuse(ParameterError, [
            positive("collective rate", r_rate),
            *_derive(lam, r_rate, _SYMMETRIC, _SYMMETRIC)[1]])
        return cls(lam, r_rate, _SYMMETRIC, _SYMMETRIC)

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")
    def from_mode_splitting(cls, lam: float, omega: float) -> "ModelParams":
        """Build from (lam, omega) with omega the real damping-split root.

        Only meaningful when the split is real (omega <= lam); the
        underdamped regime must be entered through an explicit rate.  The
        record keeps the caller's omega bit for bit on overdamped cells.
        """
        broadcast(ParameterError, lam=lam, omega=omega)
        # in float64, where a numpy int's products would wrap
        lam_f, omega_f = np.asarray(lam, float), np.asarray(omega, float)
        r_rate = _scalar(np.sqrt((lam_f - omega_f) * (lam_f + omega_f)) / 2.0)
        split = "the damping split lam^2 - 4 R^2: lam={}, omega={}"
        refuse(ParameterError, [
            # inf - inf would reach the split as NaN
            (np.isfinite(lam), "decay rate must be finite, got {}", lam),
            (np.isfinite(omega), "mode splitting must be finite, got {}",
             omega),
            (lam > 0.0, "decay rate must be positive, got {}", lam),
            ((0.0 <= omega) & (omega <= lam), "real damping split requires "
             "0 <= omega <= lam, got omega={}, lam={}; use from_effective_rate"
             " for the oscillatory regime", omega, lam),
            # 4 R^2 <= lam^2: an overflow or underflow shows in lam^2
            (lam_f * lam_f < math.inf, "rates overflow " + split, lam, omega),
            (lam_f * lam_f >= _TINY, "rates underflow " + split, lam, omega),
            (r_rate > 0.0, "omega == lam gives zero coupling rate"),
            # R is derived from omega, so lam^2 - 4 R^2 is omega^2 to a few
            # ulps of lam^2, far inside the critical window: omega is the
            # root on every overdamped cell
            *_derive(lam, r_rate, _SYMMETRIC, _SYMMETRIC)[1]])
        params = cls(lam, r_rate, _SYMMETRIC, _SYMMETRIC)
        object.__setattr__(params, "omega", _scalar(np.where(
            params.branch == BRANCH_OVERDAMPED, omega, params.omega)))
        return params


@dataclass(frozen=True)
class Cycle:
    """One period of a protocol, read alike by the closed forms and the
    oracle, and checked once, when built.

    segments: (duration, drive rate, k) triples run in order; a drive rate
    phi shifts the damping constant to lam - i phi, and the segment ends in
    the map (x, x') -> (x, k x').  The period and durations are finite and
    positive, the durations fill the period to a relative 1e-12, and rates
    and k are finite.  k is one real or complex number for every cell, the
    other fields real numbers or a batch's per-cell arrays.  Anything else
    is refused with ParameterError, naming a batch's first bad cell, as is
    a cycle of no segment.
    """

    period: float
    segments: tuple[tuple[float, float, float], ...]

    # past the float range the sum of durations is inf (and refused)
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        period, segments = self.period, self.segments
        if not (number(period) and isinstance(segments, tuple) and all(
                isinstance(s, tuple) and len(s) == 3 and number(s[0])
                and number(s[1]) and number(s[2], "iufc", numbers.Number)
                for s in segments)):
            raise ParameterError(
                "a cycle is a real period and a tuple of (duration, drive "
                "rate, k) triples, real numbers or arrays of them and one "
                f"number k; got {period!r}, {segments!r}")
        broadcast(ParameterError, period=period, **{
            f"segment {j} {name}": value for j, segment in enumerate(segments)
            for name, value in zip(("duration", "drive rate"), segment)})
        total = sum(duration for duration, _, _ in segments)
        refuse(ParameterError, [
            positive("cycle period", period),
            (bool(segments), "a cycle needs at least one segment"),
            *(positive("segment duration", d) for d, _, _ in segments),
            *((np.isfinite(v), f"{what} must be finite, got {{}}", v)
              for _, rate, k in segments
              for what, v in [("drive rate", rate), ("segment end k", k)]),
            (abs(total - period) <= _FILL_RTOL * period,
             "segment durations sum to {}, which does not fill the cycle "
             "period {}", total, period)])


def schedule_cycle(sched, cells: str) -> Cycle | None:
    """The cycle of sched, None for free decay (sched None).  Anything but
    None or an object whose .cycle is a Cycle is refused with
    ParameterError; cells says which cells the caller takes."""
    if sched is None:
        return None
    if (cycle := getattr(sched, "cycle", None)) is None:
        raise ParameterError(f"sched must be None or a schedule, {cells}; "
                             f"got {type(sched).__name__}")
    if not isinstance(cycle, Cycle):
        raise ParameterError("a schedule's cycle must be a Cycle; got "
                             f"{type(cycle).__name__}")
    return cycle


class _AmplitudePair:
    """The norm check and the normalized constructor of both amplitude
    pairs, frozen dataclasses of two complex fields."""

    def __post_init__(self):
        # written so that a NaN norm fails it too
        if not self.norm_sq <= 1.0 + _NORM_SLACK:
            raise StateError(self._NORM_ERROR.format(self.norm_sq))

    @property
    def norm_sq(self) -> float:
        return _weight(*(getattr(self, f.name) for f in fields(self)))

    @classmethod
    def _normalized(cls, a: complex, b: complex):
        if not abs((n := _weight(a, b)) - 1.0) <= 1e-12:
            raise StateError(f"initial state must be normalized, |.|^2 = {n}")
        return cls(complex(a), complex(b))


@dataclass(frozen=True)
class OddParityState(_AmplitudePair):
    """Amplitudes (beta1, beta2) on the dark and superradiant states."""

    beta1: complex
    beta2: complex

    _NORM_ERROR = ("odd-parity norm {} is not at most 1; "
                   "leakage can only remove weight")

    @classmethod
    def initial(cls, beta1: complex, beta2: complex) -> "OddParityState":
        """Strictly normalized constructor for t = 0 states."""
        return cls._normalized(beta1, beta2)

    @classmethod
    def dark(cls) -> "OddParityState":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def superradiant(cls) -> "OddParityState":
        return cls(0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class PhysicalAmplitudes(_AmplitudePair):
    """Amplitudes (c10, c01) on |1>_1|0>_2 and |0>_1|1>_2."""

    c10: complex
    c01: complex

    _NORM_ERROR = "physical norm {} is not at most 1"

    @classmethod
    def initial(cls, c10: complex, c01: complex) -> "PhysicalAmplitudes":
        return cls._normalized(c10, c01)


def decompose(phys: PhysicalAmplitudes, params: ModelParams) -> OddParityState:
    """Physical {|10>, |01>} amplitudes -> dark/superradiant amplitudes.

    The dark state is (alpha2 |10> - alpha1 |01>)/alpha and the superradiant
    one (alpha1 |10> + alpha2 |01>)/alpha; both rows are real and orthonormal,
    so the transform is its own transpose-inverse and preserves the 2-norm
    exactly.
    """
    a1, a2 = params.basis_weights
    beta1 = a2 * phys.c10 - a1 * phys.c01
    beta2 = a1 * phys.c10 + a2 * phys.c01
    return OddParityState(beta1, beta2)


def recompose(state: OddParityState, params: ModelParams) -> PhysicalAmplitudes:
    """Inverse of decompose (exact, orthonormal change of basis)."""
    a1, a2 = params.basis_weights
    c10 = a2 * state.beta1 + a1 * state.beta2
    c01 = -a1 * state.beta1 + a2 * state.beta2
    return PhysicalAmplitudes(c10, c01)
