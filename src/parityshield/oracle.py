"""Independent brute-force integration of the memory-kernel dynamics.

This module never touches the closed forms it is meant to validate.  It
integrates the coupled physical amplitudes (r1, r2) on |10> and |01> under

    dr_i/dt = -alpha_i * integral_0^t f(t - k) S(k) dk,
    S = alpha1 r1 + alpha2 r2,   f(s) = W^2 e^{-lam s},

plus the protocol-specific modifications: sign-flipped history segments for
instantaneous pulses, and an explicit drive rotation during finite-duration
pulse windows.

Two backends with no shared numerics:

* exact-augmented: the exponential kernel admits an exact state-space
  embedding via history accumulators h_i with dh_i/dt = W^2 alpha_i S -
  (pole) h_i, turning the system into a small ODE solved by a fixed-step
  classical stepper.  Fast default.
* direct-quadrature: the history integral is re-evaluated every step by
  trapezoidal quadrature over the stored past.  Slow, maximally
  independent; second-order by construction.

A leak accumulator integrates the outflow 2 Re(h1 conj(r1) + h2 conj(r2))
(equivalently 2 Re(I conj(S)) for the quadrature backend) so the trace can
report how well total probability is conserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoupling import DdSchedule
from .errors import ConfigError
from .finite_pulse import FinitePulseSchedule
from .model import ModelParams, OddParityState, recompose

EXACT_AUGMENTED = "exact-augmented"
DIRECT_QUADRATURE = "direct-quadrature"

try:
    _trapezoid = np.trapezoid
except AttributeError:      # numpy < 2.0
    _trapezoid = np.trapz

# absolute slack for "dt divides the schedule interval"
_DIV_TOL = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Fixed-step integration settings.

    sample_every thins the stored trace (every k-th grid point plus the
    final one); it does not change the integration grid.
    """

    dt_num: float = 1e-4
    method_order: int = 4
    history_mode: str = EXACT_AUGMENTED
    sample_every: int = 1

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
        if not (isinstance(self.sample_every, int) and self.sample_every >= 1):
            raise ConfigError(
                f"sample_every must be a positive integer, got {self.sample_every!r}")


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


def _grid_multiple(interval: float, dt: float, what: str) -> int:
    k = round(interval / dt)
    if k < 1 or abs(k * dt - interval) > _DIV_TOL:
        raise ConfigError(
            f"step {dt} does not divide the {what} {interval}")
    return k


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


def _make_trace(params: ModelParams, dt: float, ks: list[int],
                r1s: list[complex], r2s: list[complex],
                leaks: list[float]) -> OracleTrace:
    times = np.array([k * dt for k in ks])
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
                   r1: complex, r2: complex,
                   flip_every: int | None,
                   window: tuple[int, int, float] | None) -> OracleTrace:
    dt = cfg.dt_num
    lam = params.lam
    w_sq = params.w_coupling * params.w_coupling
    al1, al2 = params.alpha1, params.alpha2
    c1, c2 = w_sq * al1, w_sq * al2
    h1 = 0.0j
    h2 = 0.0j
    leak = 0.0
    every = cfg.sample_every
    ks = [0]
    r1s, r2s, leaks = [r1], [r2], [0.0]
    rk4 = cfg.method_order == 4
    if window is not None:
        cycle_steps, free_steps, phi_w = window
        pole_window = complex(lam, -phi_w)
    pole_free = complex(lam)

    def rhs(v1, v2, g1, g2, pole):
        s = al1 * v1 + al2 * v2
        return (-g1, -g2,
                c1 * s - pole * g1,
                c2 * s - pole * g2,
                2.0 * (g1 * v1.conjugate() + g2 * v2.conjugate()).real)

    for k in range(n):
        if flip_every is not None and k and k % flip_every == 0:
            # pulse instant: history accumulators change sign, amplitudes
            # stay continuous
            h1 = -h1
            h2 = -h2
        if window is not None:
            pole = pole_window if (k % cycle_steps) >= free_steps else pole_free
        else:
            pole = pole_free

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
        kk = k + 1
        if kk % every == 0 or kk == n:
            ks.append(kk)
            r1s.append(r1)
            r2s.append(r2)
            leaks.append(leak)
    return _make_trace(params, dt, ks, r1s, r2s, leaks)


# ---------------------------------------------------------------------------
# direct-quadrature backend

def _run_quadrature(params: ModelParams, n: int, cfg: OracleConfig,
                    r1_0: complex, r2_0: complex,
                    flip_every: int | None,
                    window: tuple[int, int, float] | None) -> OracleTrace:
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
    dec = np.exp(-lam * dt * np.arange(n + 1))
    if window is not None:
        cycle_steps, free_steps, phi_w = window

    def history(j: int, interval: int) -> complex:
        # trapezoidal quadrature of W^2 e^{-lam(t_j - k)} S(k) over [0, t_j],
        # split at pulse instants with alternating signs when flipping
        if j == 0:
            return 0.0j
        ker = w_sq * dec[j::-1]
        if flip_every is None:
            return complex(_trapezoid(ker * s_hist[:j + 1], dx=dt))
        tot = 0.0j
        for seg in range(interval):
            lo, hi = seg * flip_every, min((seg + 1) * flip_every, j)
            if hi > lo:
                sign = -1.0 if ((interval - seg) % 2) else 1.0
                tot += sign * _trapezoid(ker[lo:hi + 1] * s_hist[lo:hi + 1],
                                         dx=dt)
        lo = interval * flip_every
        if j > lo:
            tot += _trapezoid(ker[lo:j + 1] * s_hist[lo:j + 1], dx=dt)
        return complex(tot)

    for k in range(n):
        interval = k // flip_every if flip_every is not None else 0
        if window is not None:
            phi = phi_w if (k % cycle_steps) >= free_steps else 0.0
        else:
            phi = 0.0
        # Heun: predictor with left-endpoint history, corrector re-evaluates
        # the integral including the predicted endpoint
        hist0 = history(k, interval)
        d1_0 = -1j * phi * r1[k] - al1 * hist0
        d2_0 = -1j * phi * r2[k] - al2 * hist0
        r1p = r1[k] + dt * d1_0
        r2p = r2[k] + dt * d2_0
        r1[k + 1], r2[k + 1] = r1p, r2p
        s_hist[k + 1] = al1 * r1p + al2 * r2p
        hist1 = history(k + 1, interval)
        d1_1 = -1j * phi * r1p - al1 * hist1
        d2_1 = -1j * phi * r2p - al2 * hist1
        r1[k + 1] = r1[k] + dt / 2 * (d1_0 + d1_1)
        r2[k + 1] = r2[k] + dt / 2 * (d2_0 + d2_1)
        s_hist[k + 1] = al1 * r1[k + 1] + al2 * r2[k + 1]
        out0 = 2.0 * (hist0 * s_hist[k].conjugate()).real
        out1 = 2.0 * (hist1 * s_hist[k + 1].conjugate()).real
        leak[k + 1] = leak[k] + dt / 2 * (out0 + out1)

    if window is not None:
        # reported amplitudes absorb each completed window's drive phase so
        # free-segment samples follow the cycle-to-cycle convention
        phase = np.empty(n + 1, dtype=complex)
        for j in range(n + 1):
            cyc, pos = divmod(j, cycle_steps)
            in_window = max(0, pos - free_steps)
            phase[j] = np.exp(1j * phi_w * dt *
                              (cyc * (cycle_steps - free_steps) + in_window))
        r1 = r1 * phase
        r2 = r2 * phase

    ks = list(range(0, n + 1, cfg.sample_every))
    if ks[-1] != n:
        ks.append(n)
    return _make_trace(params, dt, ks,
                       [complex(r1[k]) for k in ks],
                       [complex(r2[k]) for k in ks],
                       [float(leak[k]) for k in ks])


# ---------------------------------------------------------------------------
# public entry points

def integrate_free(params: ModelParams, t_max: float, cfg: OracleConfig,
                   state0: OddParityState | None = None) -> OracleTrace:
    """Integrate the free memory-kernel dynamics on [0, t_max]."""
    _check_resolution(cfg.dt_num, params)
    n = _steps_for(t_max, cfg.dt_num)
    r1, r2 = _initial_physical(params, state0)
    if cfg.history_mode == EXACT_AUGMENTED:
        return _run_augmented(params, n, cfg, r1, r2, None, None)
    return _run_quadrature(params, n, cfg, r1, r2, None, None)


def integrate_dd(params: ModelParams, sched: DdSchedule, t_max: float,
                 cfg: OracleConfig,
                 state0: OddParityState | None = None) -> OracleTrace:
    """Integrate with instantaneous pulses at every multiple of tau.

    The pulses enter as alternating signs on past history segments; in the
    augmented backend that is realized by negating the history accumulators
    at each pulse instant, an equivalence the test suite cross-checks
    against the quadrature backend.
    """
    _check_resolution(cfg.dt_num, params)
    n = _steps_for(t_max, cfg.dt_num)
    cycle_steps = _grid_multiple(sched.tau, cfg.dt_num, "pulse interval")
    if cycle_steps < 50:
        raise ConfigError(
            f"need at least 50 steps per pulse interval, got {cycle_steps}")
    r1, r2 = _initial_physical(params, state0)
    if cfg.history_mode == EXACT_AUGMENTED:
        return _run_augmented(params, n, cfg, r1, r2, cycle_steps, None)
    return _run_quadrature(params, n, cfg, r1, r2, cycle_steps, None)


def integrate_finite(params: ModelParams, sched: FinitePulseSchedule,
                     t_max: float, cfg: OracleConfig,
                     state0: OddParityState | None = None) -> OracleTrace:
    """Integrate with finite-duration pulse windows.

    During the final tau/N of each cycle the amplitudes rotate at rate
    N pi / tau; the augmented backend shifts the kernel pole accordingly,
    the quadrature backend keeps the plain kernel and applies the rotation
    term explicitly, then transforms to the same reported convention.
    """
    _check_resolution(cfg.dt_num, params)
    n = _steps_for(t_max, cfg.dt_num)
    window_steps = _grid_multiple(sched.window_length, cfg.dt_num,
                                  "pulse window")
    cycle_steps = _grid_multiple(sched.tau, cfg.dt_num, "pulse interval")
    if window_steps < 50:
        raise ConfigError(
            f"need at least 50 steps per pulse window, got {window_steps}")
    free_steps = cycle_steps - window_steps
    window = (cycle_steps, free_steps, sched.phase_rate)
    r1, r2 = _initial_physical(params, state0)
    if cfg.history_mode == EXACT_AUGMENTED:
        return _run_augmented(params, n, cfg, r1, r2, None, window)
    return _run_quadrature(params, n, cfg, r1, r2, None, window)
