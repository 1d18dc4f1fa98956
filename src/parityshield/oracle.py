"""Independent brute-force integration of the memory-kernel dynamics.

This module never touches the closed forms it is meant to validate: it
imports only ``model`` and ``errors`` from the package.  It integrates the
coupled physical amplitudes (r1, r2) on |10> and |01> under

    dr_i/dt = -alpha_i * integral_0^t f(t - k) S(k) dk,
    S = alpha1 r1 + alpha2 r2,   f(s) = W^2 e^{-lam s},

plus the schedule: a pulse flips the sign of the past history, a drive
window rotates the amplitudes at its drive rate.  One entry point,
`integrate`, reads only the timing of the schedule's cycle (period,
(duration, drive rate) segments, whether it ends in a pulse) into two
per-step lists that both backends share: whether the history changes sign
at step k, and the drive rate during step k.  Free decay is the schedule
None.

Two backends with no shared numerics:

* exact-augmented: the exponential kernel admits an exact state-space
  embedding via history accumulators h_i with dh_i/dt = W^2 alpha_i S -
  (pole) h_i, turning the system into a small ODE solved by a fixed-step
  classical stepper; a drive rate phi shifts the pole to lam - i phi.
  Fast default.
* direct-quadrature: the history integral is re-evaluated every step by
  trapezoidal quadrature over the stored past, as one dot product of the
  sampled kernel with S weighted by fixed signed trapezoid weights (the
  sign of each node's pulse segment; zero at interior pulse instants,
  where the neighbouring trapezoids cancel), plus the endpoint half
  weight; a drive enters as an explicit rotation term.  O(n^2) in the
  step count, maximally independent (no recurrence over the kernel);
  second-order by construction.

A leak accumulator integrates the outflow 2 Re(h1 conj(r1) + h2 conj(r2))
(equivalently 2 Re(I conj(S)) for the quadrature backend) so the trace can
report how well total probability is conserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import ModelParams, OddParityState, recompose

EXACT_AUGMENTED = "exact-augmented"
DIRECT_QUADRATURE = "direct-quadrature"

# absolute slack for "dt divides a schedule segment"
_DIV_TOL = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Fixed-step integration settings; the trace keeps every step."""

    dt_num: float = 1e-4
    method_order: int = 4
    history_mode: str = EXACT_AUGMENTED

    def __post_init__(self):
        if not (self.dt_num > 0.0):
            raise ConfigError(f"step must be positive, got {self.dt_num}")
        if self.method_order not in (2, 4):
            raise ConfigError(
                f"method order must be 2 or 4, got {self.method_order}")
        if self.history_mode not in (EXACT_AUGMENTED, DIRECT_QUADRATURE):
            raise ConfigError(f"unknown history mode {self.history_mode!r}")
        if self.history_mode == DIRECT_QUADRATURE and self.method_order != 2:
            raise ConfigError(
                "direct-quadrature history is trapezoidal and therefore "
                "second order; method_order must be 2")


@dataclass(frozen=True)
class OracleTrace:
    """Sampled integration result in both bases.

    times are strictly increasing; all series share their length.
    norm_defect is 1 - (|r1|^2 + |r2|^2 + integrated leak), i.e. the
    probability-conservation error of the integration itself.
    """

    times: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    norm_defect: np.ndarray


def _steps_for(t_max: float, dt: float) -> int:
    if not (t_max > 0.0):
        raise ConfigError(f"horizon must be positive, got {t_max}")
    n = round(t_max / dt)
    if n < 1 or abs(n * dt - t_max) > 1e-9:
        raise ConfigError(
            f"horizon {t_max} is not a multiple of the step {dt}")
    return n


def _step_timing(sched, n: int,
                 dt: float) -> tuple[list[bool], list[float]]:
    """Per-step history sign flips and drive rates from the schedule's cycle.

    flips[k] is true when step k starts at a pulse instant; rates[k] is the
    drive rate during step k.  Every segment must span a whole number of at
    least 50 steps.
    """
    if sched is None:
        return [False] * n, [0.0] * n
    cycle = sched.cycle
    if cycle.slope_factor not in (1.0, -1.0):
        raise ConfigError(
            "the oracle integrates pulses and drive windows only, not a "
            f"cycle ending in (x, x') -> (x, {cycle.slope_factor} x')")
    pattern, cycle_steps = [], 0
    for duration, rate in cycle.segments:
        k = round(duration / dt)
        if abs(k * dt - duration) > _DIV_TOL:
            raise ConfigError(
                f"step {dt} does not divide the schedule segment {duration}")
        if k < 50:
            raise ConfigError(
                f"need at least 50 steps per schedule segment, got {k}")
        cycle_steps += k
        # a cycle longer than the run is only spelled out up to step n
        pattern += [rate] * min(k, n - len(pattern))
    rates = (pattern * (n // cycle_steps + 1))[:n]
    flips = [False] * n
    if cycle.slope_factor == -1.0:
        for k in range(cycle_steps, n, cycle_steps):
            flips[k] = True
    return flips, rates


def _check_resolution(dt: float, params: ModelParams):
    if dt * params.lam > 0.1:
        raise ConfigError(
            f"step {dt} too coarse for decay rate {params.lam}: "
            "dt * lam must not exceed 0.1")


def _initial_physical(params: ModelParams,
                      state0: OddParityState | None) -> tuple[complex, complex]:
    if state0 is None:
        state0 = OddParityState.superradiant()
    phys = recompose(state0, params)
    return complex(phys.c10), complex(phys.c01)


def _make_trace(params: ModelParams, dt: float,
                r1s: list[complex] | np.ndarray,
                r2s: list[complex] | np.ndarray,
                leaks: list[float] | np.ndarray) -> OracleTrace:
    times = np.array([k * dt for k in range(len(r1s))])
    r1 = np.array(r1s)
    r2 = np.array(r2s)
    a1 = params.alpha1 / params.alpha
    a2 = params.alpha2 / params.alpha
    beta1 = a2 * r1 - a1 * r2
    beta2 = a1 * r1 + a2 * r2
    leak = np.array(leaks)
    defect = 1.0 - (np.abs(r1) ** 2 + np.abs(r2) ** 2 + leak)
    return OracleTrace(times, r1, r2, beta1, beta2, defect)


# ---------------------------------------------------------------------------
# exact-augmented backend

def _run_augmented(params: ModelParams, n: int, cfg: OracleConfig,
                   r1: complex, r2: complex, flips: list[bool],
                   rates: list[float]) -> OracleTrace:
    dt = cfg.dt_num
    lam = params.lam
    w_sq = params.w_coupling * params.w_coupling
    al1, al2 = params.alpha1, params.alpha2
    c1, c2 = w_sq * al1, w_sq * al2
    h1 = 0.0j
    h2 = 0.0j
    leak = 0.0
    r1s, r2s, leaks = [r1], [r2], [0.0]
    rk4 = cfg.method_order == 4
    # a drive window shifts the kernel pole to lam - i phi
    pole_of = {phi: complex(lam, -phi) if phi else complex(lam)
               for phi in set(rates)}
    poles = [pole_of[phi] for phi in rates]

    def rhs(v1, v2, g1, g2, pole):
        s = al1 * v1 + al2 * v2
        return (-g1, -g2,
                c1 * s - pole * g1,
                c2 * s - pole * g2,
                2.0 * (g1 * v1.conjugate() + g2 * v2.conjugate()).real)

    for k in range(n):
        if flips[k]:
            # pulse instant: history accumulators change sign, amplitudes
            # stay continuous
            h1 = -h1
            h2 = -h2
        pole = poles[k]

        if rk4:
            a = rhs(r1, r2, h1, h2, pole)
            b = rhs(r1 + dt / 2 * a[0], r2 + dt / 2 * a[1],
                    h1 + dt / 2 * a[2], h2 + dt / 2 * a[3], pole)
            c = rhs(r1 + dt / 2 * b[0], r2 + dt / 2 * b[1],
                    h1 + dt / 2 * b[2], h2 + dt / 2 * b[3], pole)
            d = rhs(r1 + dt * c[0], r2 + dt * c[1],
                    h1 + dt * c[2], h2 + dt * c[3], pole)
            r1 += dt / 6 * (a[0] + 2 * b[0] + 2 * c[0] + d[0])
            r2 += dt / 6 * (a[1] + 2 * b[1] + 2 * c[1] + d[1])
            h1 += dt / 6 * (a[2] + 2 * b[2] + 2 * c[2] + d[2])
            h2 += dt / 6 * (a[3] + 2 * b[3] + 2 * c[3] + d[3])
            leak += dt / 6 * (a[4] + 2 * b[4] + 2 * c[4] + d[4])
        else:
            a = rhs(r1, r2, h1, h2, pole)
            b = rhs(r1 + dt * a[0], r2 + dt * a[1],
                    h1 + dt * a[2], h2 + dt * a[3], pole)
            r1 += dt / 2 * (a[0] + b[0])
            r2 += dt / 2 * (a[1] + b[1])
            h1 += dt / 2 * (a[2] + b[2])
            h2 += dt / 2 * (a[3] + b[3])
            leak += dt / 2 * (a[4] + b[4])
        r1s.append(r1)
        r2s.append(r2)
        leaks.append(leak)
    return _make_trace(params, dt, r1s, r2s, leaks)


# ---------------------------------------------------------------------------
# direct-quadrature backend

def _run_quadrature(params: ModelParams, n: int, cfg: OracleConfig,
                    r1_0: complex, r2_0: complex, flips: list[bool],
                    rates: list[float]) -> OracleTrace:
    dt = cfg.dt_num
    lam = params.lam
    w_sq = params.w_coupling * params.w_coupling
    al1, al2 = params.alpha1, params.alpha2
    r1 = np.zeros(n + 1, dtype=complex)
    r2 = np.zeros(n + 1, dtype=complex)
    leak = np.zeros(n + 1)
    r1[0], r2[0] = r1_0, r2_0
    s_hist = np.zeros(n + 1, dtype=complex)
    s_hist[0] = al1 * r1_0 + al2 * r2_0
    nodes = np.arange(n + 1)
    # ker_rev[n - m] = W^2 e^{-lam m dt}, so ker_rev[n - j:n] lines up with
    # the past nodes 0..j-1 of an evaluation at node j
    ker_rev = (w_sq * np.exp(-lam * dt * nodes[::-1])).astype(complex)
    end_w = w_sq * dt / 2.0
    # trapezoid weight of each past node with the sign of its history
    # segment; at an interior pulse instant the neighbouring trapezoids
    # cancel.  ws[k] = u[k] S_k is written once S_k is final.
    pulse = np.array(flips + [False])
    u = np.where(np.cumsum(pulse) % 2 == 1, -dt, dt)
    u[pulse] = 0.0
    u[0] = dt / 2.0
    ws = np.zeros(n + 1, dtype=complex)
    ws[0] = u[0] * s_hist[0]

    def history(j: int, rel: float, end_sign: float, s_end: complex) -> complex:
        # trapezoidal quadrature of W^2 e^{-lam(t_j - k)} S(k) over [0, t_j]
        # as one dot product over the past plus the endpoint half weight;
        # rel makes the current interval positive, end_sign is the sign of
        # the segment that ends at j relative to it
        if j == 0:
            return 0.0j
        return complex(rel * (ker_rev[n - j:n] @ ws[:j])
                       + end_sign * end_w * s_end)

    rel = 1.0
    for k in range(n):
        end_sign = 1.0
        if flips[k]:
            # k is a pulse instant: the history at k ends on the previous,
            # opposite-signed segment
            rel = -rel
            end_sign = -1.0
        phi = rates[k]
        # Heun: predictor with left-endpoint history, corrector re-evaluates
        # the integral including the predicted endpoint
        hist0 = history(k, rel, end_sign, s_hist[k])
        d1_0 = -1j * phi * r1[k] - al1 * hist0
        d2_0 = -1j * phi * r2[k] - al2 * hist0
        r1p = r1[k] + dt * d1_0
        r2p = r2[k] + dt * d2_0
        hist1 = history(k + 1, rel, 1.0, al1 * r1p + al2 * r2p)
        d1_1 = -1j * phi * r1p - al1 * hist1
        d2_1 = -1j * phi * r2p - al2 * hist1
        r1[k + 1] = r1[k] + dt / 2 * (d1_0 + d1_1)
        r2[k + 1] = r2[k] + dt / 2 * (d2_0 + d2_1)
        s_hist[k + 1] = al1 * r1[k + 1] + al2 * r2[k + 1]
        ws[k + 1] = u[k + 1] * s_hist[k + 1]
        out0 = 2.0 * (hist0 * s_hist[k].conjugate()).real
        out1 = 2.0 * (hist1 * s_hist[k + 1].conjugate()).real
        leak[k + 1] = leak[k] + dt / 2 * (out0 + out1)

    if any(rates):
        # reported amplitudes absorb the drive phase accumulated so far so
        # free-segment samples follow the cycle-to-cycle convention; each
        # rate times its whole number of driven steps avoids the rounding
        # a running float sum would accumulate
        driven = np.array([0.0] + rates)
        turn = 0.0
        for phi in set(rates) - {0.0}:
            turn = turn + 1j * phi * dt * np.cumsum(driven == phi)
        phase = np.exp(turn)
        r1 = r1 * phase
        r2 = r2 * phase

    return _make_trace(params, dt, r1, r2, leak)


# ---------------------------------------------------------------------------
# public entry points

def integrate(params: ModelParams, sched, t_max: float, cfg: OracleConfig,
              state0: OddParityState | None = None) -> OracleTrace:
    """Integrate on [0, t_max] under a schedule (None for free decay).

    Only the timing of ``sched.cycle`` is read.  A pulse flips the sign of
    the past history; the test suite cross-checks the augmented backend's
    negated accumulators against the quadrature backend's signed weights.
    """
    _check_resolution(cfg.dt_num, params)
    n = _steps_for(t_max, cfg.dt_num)
    flips, rates = _step_timing(sched, n, cfg.dt_num)
    r1, r2 = _initial_physical(params, state0)
    run = (_run_augmented if cfg.history_mode == EXACT_AUGMENTED
           else _run_quadrature)
    return run(params, n, cfg, r1, r2, flips, rates)


def integrate_free(params: ModelParams, t_max: float, cfg: OracleConfig,
                   state0: OddParityState | None = None) -> OracleTrace:
    """Free memory-kernel dynamics: ``integrate`` with no schedule."""
    return integrate(params, None, t_max, cfg, state0)


def integrate_dd(params: ModelParams, sched, t_max: float, cfg: OracleConfig,
                 state0: OddParityState | None = None) -> OracleTrace:
    """Instantaneous pulses at every multiple of tau: ``integrate``."""
    return integrate(params, sched, t_max, cfg, state0)


def integrate_finite(params: ModelParams, sched, t_max: float,
                     cfg: OracleConfig,
                     state0: OddParityState | None = None) -> OracleTrace:
    """Drive windows over the final tau/N of each cycle: ``integrate``."""
    return integrate(params, sched, t_max, cfg, state0)
