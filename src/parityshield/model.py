"""Model parameters and the odd-parity state of two qubits in a shared reservoir.

Two qubits coupled to a common zero-temperature reservoir with a Lorentzian
spectral line admit, within the single-excitation (odd-parity) sector, a
decoupled "dark" superposition and a maximally coupled "superradiant" one.
Everything downstream works in that two-dimensional basis, so this module
holds the parameter bookkeeping and the basis change from the physical
{|10>, |01>} amplitudes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ParameterError, StateError

BRANCH_OVERDAMPED = "overdamped"
BRANCH_CRITICAL = "critical"
BRANCH_UNDERDAMPED = "underdamped"

# relative width of the window around lam^2 == 4 R^2 tagged as critical
_CRITICAL_RTOL = 1e-12

# below this (the smallest normal float) a square has lost digits or is 0
_TINY = sys.float_info.min

# norm may only shrink during evolution; allow this much float slack above 1
_NORM_SLACK = 1e-12


def _classify(lam: float, r_rate: float) -> tuple[float, str]:
    """Return (|discriminant root|, branch tag) for the damping split.

    The interval dynamics are governed by x'' + lam x' + R^2 x = 0, whose
    exponents split by the root of lam^2 - 4 R^2.  The magnitude of that
    root is stored; the tag records its sign.
    """
    disc = lam * lam - 4.0 * r_rate * r_rate
    scale = max(lam * lam, 4.0 * r_rate * r_rate)
    if abs(disc) <= _CRITICAL_RTOL * scale:
        return 0.0, BRANCH_CRITICAL
    if disc > 0.0:
        return math.sqrt(disc), BRANCH_OVERDAMPED
    return math.sqrt(-disc), BRANCH_UNDERDAMPED


def _weight(a: complex, b: complex) -> float:
    """|a|^2 + |b|^2, inf past the float range (a power raises instead)."""
    return abs(a) * abs(a) + abs(b) * abs(b)


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

    Use the classmethod constructors; they normalize whichever input pair
    the caller has into the full field set.
    """

    lam: float
    w_coupling: float
    alpha1: float
    alpha2: float
    alpha: float
    r_rate: float
    omega: float
    branch: str

    def __post_init__(self):
        if not (0.0 < self.lam < math.inf):
            raise ParameterError(
                f"decay rate must be finite and positive, got {self.lam}")
        if not (0.0 < self.w_coupling < math.inf):
            raise ParameterError("coupling strength must be finite and "
                                 f"positive, got {self.w_coupling}")
        if not (self.alpha1 > 0.0 and self.alpha2 > 0.0):
            raise ParameterError(
                "coupling weights must be positive reals, got "
                f"({self.alpha1}, {self.alpha2})")
        # the damping split squares both rates; past the float range the
        # squares are inf and the branch tag is meaningless
        if not (math.isfinite(self.lam * self.lam)
                and math.isfinite(4.0 * self.r_rate * self.r_rate)):
            raise ParameterError(
                "rates overflow the damping split lam^2 - 4 R^2: "
                f"lam={self.lam}, R={self.r_rate}")
        # with both squares that small every pair reads as critical, omega 0
        if max(self.lam * self.lam, 4.0 * self.r_rate * self.r_rate) < _TINY:
            raise ParameterError(
                "rates underflow the damping split lam^2 - 4 R^2: "
                f"lam={self.lam}, R={self.r_rate}")
        # a subnormal 4 R^2 has lost digits of R^2
        if 0.0 < 4.0 * self.r_rate * self.r_rate < _TINY:
            raise ParameterError(
                f"collective rate R={self.r_rate} gives a subnormal 4 R^2, "
                "which keeps only a few digits")

    @classmethod
    def from_couplings(cls, lam: float, w_coupling: float,
                       alpha1: float, alpha2: float) -> "ModelParams":
        """Build from the full microscopic set (lam, W, alpha1, alpha2)."""
        alpha = math.hypot(alpha1, alpha2)
        r_rate = alpha * w_coupling
        omega, branch = _classify(lam, r_rate)
        return cls(lam, w_coupling, alpha1, alpha2, alpha, r_rate, omega, branch)

    @classmethod
    def from_effective_rate(cls, lam: float, r_rate: float) -> "ModelParams":
        """Build from (lam, R).

        The two-level dark/superradiant dynamics depend only on lam and R,
        so the weight split defaults to the symmetric alpha1 = alpha2 =
        1/sqrt(2) with W = R.
        """
        if not (r_rate > 0.0):
            raise ParameterError(f"collective rate must be positive, got {r_rate}")
        s = math.sqrt(0.5)
        omega, branch = _classify(lam, r_rate)
        return cls(lam, r_rate, s, s, 1.0, r_rate, omega, branch)

    @classmethod
    def from_mode_splitting(cls, lam: float, omega: float) -> "ModelParams":
        """Build from (lam, omega) with omega the real damping-split root.

        Only meaningful when the split is real (omega <= lam); the
        underdamped regime must be entered through an explicit rate.
        """
        # inf - inf would reach the split below as NaN
        for name, value in (("decay rate", lam), ("mode splitting", omega)):
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not (lam > 0.0):
            raise ParameterError(f"decay rate must be positive, got {lam}")
        if not (0.0 <= omega <= lam):
            raise ParameterError(
                f"real damping split requires 0 <= omega <= lam, got "
                f"omega={omega}, lam={lam}; use from_effective_rate for the "
                "oscillatory regime")
        if lam * lam < _TINY:  # and so is 4 R^2, at most lam^2
            raise ParameterError(
                "rates underflow the damping split lam^2 - 4 R^2: "
                f"lam={lam}, omega={omega}")
        r_rate = math.sqrt((lam - omega) * (lam + omega)) / 2.0
        if not (r_rate > 0.0):
            raise ParameterError("omega == lam gives zero coupling rate")
        s = math.sqrt(0.5)
        omega_mag, branch = _classify(lam, r_rate)
        if branch == BRANCH_OVERDAMPED:
            omega_mag = omega      # keep caller's value bit-exact
        return cls(lam, r_rate, s, s, 1.0, r_rate, omega_mag, branch)


@dataclass(frozen=True)
class OddParityState:
    """Amplitudes (beta1, beta2) on the dark and superradiant states."""

    beta1: complex
    beta2: complex

    def __post_init__(self):
        # written so that a NaN norm fails it too
        if not self.norm_sq <= 1.0 + _NORM_SLACK:
            raise StateError(
                f"odd-parity norm {self.norm_sq} is not at most 1; "
                "leakage can only remove weight")

    @property
    def norm_sq(self) -> float:
        return _weight(self.beta1, self.beta2)

    @classmethod
    def initial(cls, beta1: complex, beta2: complex) -> "OddParityState":
        """Strictly normalized constructor for t = 0 states."""
        n = _weight(beta1, beta2)
        if not abs(n - 1.0) <= 1e-12:
            raise StateError(f"initial state must be normalized, |.|^2 = {n}")
        return cls(complex(beta1), complex(beta2))

    @classmethod
    def dark(cls) -> "OddParityState":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def superradiant(cls) -> "OddParityState":
        return cls(0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class PhysicalAmplitudes:
    """Amplitudes (c10, c01) on |1>_1|0>_2 and |0>_1|1>_2."""

    c10: complex
    c01: complex

    def __post_init__(self):
        if not self.norm_sq <= 1.0 + _NORM_SLACK:
            raise StateError(
                f"physical norm {self.norm_sq} is not at most 1")

    @property
    def norm_sq(self) -> float:
        return _weight(self.c10, self.c01)

    @classmethod
    def initial(cls, c10: complex, c01: complex) -> "PhysicalAmplitudes":
        n = _weight(c10, c01)
        if not abs(n - 1.0) <= 1e-12:
            raise StateError(f"initial state must be normalized, |.|^2 = {n}")
        return cls(complex(c10), complex(c01))


def decompose(phys: PhysicalAmplitudes, params: ModelParams) -> OddParityState:
    """Physical {|10>, |01>} amplitudes -> dark/superradiant amplitudes.

    The dark state is (alpha2 |10> - alpha1 |01>)/alpha and the superradiant
    one (alpha1 |10> + alpha2 |01>)/alpha; both rows are real and orthonormal,
    so the transform is its own transpose-inverse and preserves the 2-norm
    exactly.
    """
    a1 = params.alpha1 / params.alpha
    a2 = params.alpha2 / params.alpha
    beta1 = a2 * phys.c10 - a1 * phys.c01
    beta2 = a1 * phys.c10 + a2 * phys.c01
    return OddParityState(beta1, beta2)


def recompose(state: OddParityState, params: ModelParams) -> PhysicalAmplitudes:
    """Inverse of decompose (exact, orthonormal change of basis)."""
    a1 = params.alpha1 / params.alpha
    a2 = params.alpha2 / params.alpha
    c10 = a2 * state.beta1 + a1 * state.beta2
    c01 = -a1 * state.beta1 + a2 * state.beta2
    return PhysicalAmplitudes(c10, c01)
