"""Independent brute-force integration of the memory-kernel dynamics.

This module never touches the closed forms it is meant to validate: it
imports only ``model`` and ``errors`` from the package.  It integrates the
coupled physical amplitudes (r1, r2) on |10> and |01> under

    dr_i/dt = -alpha_i * integral_0^t f(t - k) S(k) dk,
    S = alpha1 r1 + alpha2 r2,   f(s) = W^2 e^{-lam s},

plus the schedule: each segment end multiplies the past history by the
segment's k (-1 a pulse, 0 a projection onto the reservoir vacuum), a
drive window rotates the amplitudes at its drive rate.  One entry point,
`integrate`, reads only the timing of the schedule's cycle (period,
(duration, drive rate, k) segments) into two per-step lists that both
backends share: the history factor as step k starts, and the drive rate
during step k.  Free decay is the schedule None.

Two backends with no shared numerics:

* exact-augmented: the exponential kernel admits an exact state-space
  embedding via history accumulators h_i with dh_i/dt = W^2 alpha_i S -
  (pole) h_i, turning the system into a linear ODE y' = A y; a drive
  rate phi shifts the pole to lam - i phi.  One RK4 or Heun step (the
  RK polynomial, not exp(A dt): a stepper of known order) is y -> y + D y,
  built once per drive rate; a run of equal steps is advanced by doubling
  on T^h - I, never on T = I + D, whose rounding would drop the low bits
  of D and grow with the step count.  Fast default.
* direct-quadrature: the history integral is re-evaluated every step by
  trapezoidal quadrature over the stored past, as one dot product of the
  sampled kernel with S weighted by fixed signed trapezoid weights (the
  sign of each node's pulse segment; zero at interior pulse instants,
  where the neighbouring trapezoids cancel), plus the endpoint half
  weight, from the last projection on, where the history restarts as at
  t = 0; a drive enters as an explicit rotation term.  Second order and
  maximally independent (no recurrence over the kernel); O(n^2): a step is
  one BLAS dot product over the stored history plus Python complex math.

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

# most steps in one run: at 208 B a step (peak RSS of the augmented backend,
# measured from 10^5 to 10^6 steps), 1.9 GiB
_MAX_STEPS = 1e7


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
    count = t_max / dt
    if not count <= _MAX_STEPS:
        raise ConfigError(f"an oracle run of {count:.3g} steps is over "
                          f"{_MAX_STEPS:.0e}; raise the step or shorten "
                          "the horizon")
    n = round(count)
    if n < 1 or abs(n * dt - t_max) > 1e-9:
        raise ConfigError(
            f"horizon {t_max} is not a multiple of the step {dt}")
    return n


def _step_timing(sched, n: int,
                 dt: float) -> tuple[list[float], list[float]]:
    """Per-step history factors and drive rates from the schedule's cycle.

    factors[k] is the k of the segment that ends where step k starts, and 1
    where none ends; rates[k] is the drive rate during step k.  Every
    segment must span a whole number of at least 50 steps.
    """
    if sched is None:
        return [1.0] * n, [0.0] * n
    pattern, ends, cycle_steps = [], [], 0
    for duration, rate, factor in sched.cycle.segments:
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
        ends += [1.0] * min(k - 1, n - len(ends)) + [factor]
    rates = (pattern * (n // cycle_steps + 1))[:n]
    # no segment ends at step 0
    factors = ([1.0] + ends * (n // cycle_steps + 1))[:n]
    return factors, rates


def _check_resolution(dt: float, params: ModelParams):
    if dt * params.lam > 0.1:
        raise ConfigError(
            f"step {dt} too coarse for decay rate {params.lam}: "
            "dt * lam must not exceed 0.1")


def _make_trace(params: ModelParams, dt: float, r1: np.ndarray,
                r2: np.ndarray, leak: np.ndarray) -> OracleTrace:
    times = np.arange(len(r1)) * dt
    a1, a2 = params.basis_weights
    beta1 = a2 * r1 - a1 * r2
    beta2 = a1 * r1 + a2 * r2
    defect = 1.0 - (np.abs(r1) ** 2 + np.abs(r2) ** 2 + leak)
    return OracleTrace(times, r1, r2, beta1, beta2, defect)


# ---------------------------------------------------------------------------
# exact-augmented backend

def _step_map(params: ModelParams, dt: float, order: int,
              phi: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK step of y' = A y, y = (r1, r2, h1, h2), at drive rate phi.

    The step is y -> y + D y with leak increment Re(y^H Q y): D and Q are
    the stage formulas applied to the identity.
    """
    w_sq = params.w_coupling * params.w_coupling
    al1, al2 = params.alpha1, params.alpha2
    c1, c2 = w_sq * al1, w_sq * al2
    # a drive window shifts the kernel pole to lam - i phi
    pole = complex(params.lam, -phi) if phi else complex(params.lam)
    a = np.array([[0, 0, -1, 0], [0, 0, 0, -1],
                  [c1 * al1, c1 * al2, -pole, 0],
                  [c2 * al1, c2 * al2, 0, -pole]])
    # (node, weight) of each stage: classical RK4, or Heun
    stages = (((0.0, 1 / 6), (0.5, 1 / 3), (0.5, 1 / 3), (1.0, 1 / 6))
              if order == 4 else ((0.0, 0.5), (1.0, 0.5)))
    d = q = slope = 0.0
    for node, weight in stages:
        z = np.eye(4) + node * dt * slope
        slope = a @ z
        # the leak rate 2 Re(h1 conj(r1) + h2 conj(r2)) at the stage point
        m = z[:2].conj().T @ z[2:]
        d = d + weight * dt * slope
        q = q + weight * dt * (m + m.conj().T)
    return d, q


def _run_augmented(params: ModelParams, n: int, cfg: OracleConfig,
                   r1: complex, r2: complex, factors: list[float],
                   rates: list[float]) -> OracleTrace:
    maps = {phi: _step_map(params, cfg.dt_num, cfg.method_order, phi)
            for phi in set(rates)}
    # a run of equal steps ends where a segment ends or the rate changes
    fac, rate = np.array(factors), np.array(rates)
    cuts = np.flatnonzero((fac[1:] != 1.0) | (rate[1:] != rate[:-1])) + 1
    starts = [0, *cuts.tolist()]
    ys = np.empty((n + 1, 4), dtype=complex)
    ys[0] = r1, r2, 0.0, 0.0
    leak = np.zeros(n + 1)
    for lo, hi in zip(starts, starts[1:] + [n]):
        # a segment end maps the history; the amplitudes stay continuous
        ys[lo, 2:] *= factors[lo]
        d, q = maps[rates[lo]]
        run = ys[lo:hi + 1]
        # doubling: with e = T^h - I, rows [h, 2h) are rows [0, h) advanced
        # h steps, and T^2h - I = 2e + e e
        h, e = 1, d
        while h < len(run):
            m = min(h, len(run) - h)
            np.matmul(run[:m], e.T, out=run[h:h + m])
            run[h:h + m] += run[:m]
            e = 2.0 * e + e @ e
            h *= 2
        leak[lo + 1:hi + 1] = np.einsum("ij,jk,ik->i", run[:-1].conj(), q,
                                        run[:-1]).real
    # copies: views would keep all four columns of ys alive in the trace
    r1s, r2s = ys[:, :2].T.copy()
    return _make_trace(params, cfg.dt_num, r1s, r2s, np.cumsum(leak))


# ---------------------------------------------------------------------------
# direct-quadrature backend

def _run_quadrature(params: ModelParams, n: int, cfg: OracleConfig,
                    x1: complex, x2: complex, factors: list[float],
                    rates: list[float]) -> OracleTrace:
    dt = cfg.dt_num
    lam = params.lam
    w_sq = params.w_coupling * params.w_coupling
    al1, al2 = params.alpha1, params.alpha2
    r1 = np.zeros(n + 1, dtype=complex)
    r2 = np.zeros(n + 1, dtype=complex)
    leak = np.zeros(n + 1)
    # ker_rev[n - m] = W^2 e^{-lam m dt}, so ker_rev[n - j:n] lines up with
    # the past nodes 0..j-1 of an evaluation at node j
    ker_rev = (w_sq * np.exp(-lam * dt * np.arange(n, -1, -1))).astype(complex)
    end_w = w_sq * dt / 2.0
    # fac[j] is the k of the segment that ends at node j; the run starts
    # from an empty history, as after a projection.  signs[j] is the sign
    # of the segment that starts at j.  u[j] is the trapezoid weight of
    # node j in that segment plus fac[j] times its half weight in the one
    # before: zero at a pulse instant, where the neighbouring trapezoids
    # cancel, dt/2 at a projection.  ws[k] = u[k] S_k is written once S_k
    # is final.
    fac = np.array(factors + [1.0])
    fac[0] = 0.0
    signs = np.cumprod(np.where(fac < 0.0, -1.0, 1.0))
    u = dt / 2.0 * signs * (1.0 + fac)
    fac, signs, u = fac.tolist(), signs.tolist(), u.tolist()
    ws = np.zeros(n + 1, dtype=complex)
    # a step runs on Python scalars, as numpy's cost more for the same bits:
    # x1, x2, s, out are r1, r2, S and the leak at node k, each written once
    s = al1 * x1 + al2 * x2
    r1[0], r2[0], ws[0] = x1, x2, u[0] * s

    # trapezoidal quadrature of W^2 e^{-lam(t_j - k)} S(k) from the last
    # projection to t_j is one dot product over the past plus the endpoint
    # half weight; rel makes the current segment positive.  past is the
    # dot product at node k: the corrector of step k computes it for node
    # k + 1, and the predictor of step k + 1 reuses it
    past, out, half = 0.0j, 0.0, dt / 2
    for k in range(n):
        rel = signs[k]
        if not fac[k]:
            start, past = k, 0.0j
        rot = -1j * rates[k]
        # Heun: predictor with left-endpoint history, corrector re-evaluates
        # the integral including the predicted endpoint
        hist0 = rel * past + fac[k] * end_w * s
        d1_0 = rot * x1 - al1 * hist0
        d2_0 = rot * x2 - al2 * hist0
        r1p = x1 + dt * d1_0
        r2p = x2 + dt * d2_0
        past = complex(ker_rev[n - k - 1 + start:n] @ ws[start:k + 1])
        hist1 = rel * past + end_w * (al1 * r1p + al2 * r2p)
        d1_1 = rot * r1p - al1 * hist1
        d2_1 = rot * r2p - al2 * hist1
        x1 = x1 + half * (d1_0 + d1_1)
        x2 = x2 + half * (d2_0 + d2_1)
        out0 = 2.0 * (hist0 * s.conjugate()).real
        s = al1 * x1 + al2 * x2
        out1 = 2.0 * (hist1 * s.conjugate()).real
        out = out + half * (out0 + out1)
        r1[k + 1], r2[k + 1], leak[k + 1] = x1, x2, out
        ws[k + 1] = u[k + 1] * s

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

    Only the timing of ``sched.cycle`` is read.  Each segment end multiplies
    the past history by its k; the test suite cross-checks the augmented
    backend's scaled accumulators against the quadrature backend's signed
    weights and restarts.  Those weights carry only the sign and the zero
    of k, so the quadrature backend refuses any k but -1, 0 and 1 with
    ConfigError.
    """
    _check_resolution(cfg.dt_num, params)
    n = _steps_for(t_max, cfg.dt_num)
    run = (_run_augmented if cfg.history_mode == EXACT_AUGMENTED
           else _run_quadrature)
    # the quadrature weights read only the sign and the zero of each k
    if run is _run_quadrature and sched is not None and not {
            k for *_, k in sched.cycle.segments} <= {-1.0, 0.0, 1.0}:
        raise ConfigError("the direct-quadrature backend takes segment ends "
                          "k of -1, 0 or 1 only")
    factors, rates = _step_timing(sched, n, cfg.dt_num)
    phys = recompose(state0 or OddParityState.superradiant(), params)
    return run(params, n, cfg, complex(phys.c10), complex(phys.c01),
               factors, rates)


def integrate_free(params: ModelParams, t_max: float, cfg: OracleConfig,
                   state0: OddParityState | None = None) -> OracleTrace:
    """Free memory-kernel dynamics: ``integrate`` with no schedule."""
    return integrate(params, None, t_max, cfg, state0)


# the per-protocol names: each is integrate under its schedule
integrate_dd = integrate_finite = integrate
