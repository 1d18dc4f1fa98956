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
(duration, drive rate, k) segments) into segment runs that both backends
share: each run is a stretch of equal steps, given by its first step, its
step count, its drive rate and the k of the segment end where it starts.
Free decay is the schedule None, one run.

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
  trapezoidal quadrature over the stored past, as the sum of the sampled
  kernel times S weighted by fixed signed trapezoid weights (the sign of
  each node's pulse segment; zero at interior pulse instants, where the
  neighbouring trapezoids cancel), plus the endpoint half weight, from
  the last projection on, where the history restarts as at t = 0; a
  drive enters as an explicit rotation term.  Second order and maximally
  independent (no recurrence over the kernel, only its samples).  The
  sum is taken by online convolution (fast convolution quadrature:
  Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 532, 1985):
  a step is one dot product over at most 255 nodes of its own leaf plus
  Python complex math, and FFT blocks, each only as long as what it
  writes, bring in the earlier leaves, so a run is O(n log^2 n) rather
  than O(n^2).

A leak accumulator integrates the outflow 2 Re(h1 conj(r1) + h2 conj(r2))
(equivalently 2 Re(I conj(S)) for the quadrature backend) so the trace can
report how well total probability is conserved.  A trace holds r1, r2 and
the integrated leak; its times, dark and superradiant amplitudes and norm
defect are derived from them on each read.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError
from .model import ModelParams, OddParityState, recompose

EXACT_AUGMENTED = "exact-augmented"
DIRECT_QUADRATURE = "direct-quadrature"

# absolute slack for "dt divides a schedule segment"
_DIV_TOL = 1e-12

# nodes of one leaf of the quadrature history: the sum over a node's own
# leaf is a direct dot product, the earlier leaves arrive by FFT.  A dot
# costs about the same up to here; a 64-node leaf made a run about 6%
# slower, and 512 or 1024 nodes no faster
_LEAF = 256

# rows of the augmented backend's leak taken in one einsum: its conjugate
# copy of the rows is 64 KiB
_LEAK_ROWS = 4096

# most steps in one run: at 104 B a step (peak RSS of the augmented backend,
# measured from 10^5 to 10^6 steps), 1.0 GiB; the quadrature backend peaks
# at 153 B a step at 10^5 steps and 141 B at 10^6, 1.4 GiB
_MAX_STEPS = 1e7


@dataclass(frozen=True)
class OracleConfig:
    """Fixed-step integration settings; the trace keeps every step."""

    dt_num: float = 1e-4
    method_order: int = 4
    history_mode: str = EXACT_AUGMENTED

    def __post_init__(self):
        if (not isinstance(self.dt_num, numbers.Real)
                or isinstance(self.dt_num, bool)):
            raise ConfigError(f"step must be a number, got {self.dt_num!r}")
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

    Holds the physical amplitudes r1, r2 on |10>, |01> and the integrated
    leak at every step, the step dt and the basis weights (alpha1, alpha2)
    / alpha.  times, the dark and superradiant amplitudes beta1, beta2 and
    norm_defect are derived from them on each read, not cached: times are
    strictly increasing and all series share their length.  norm_defect is
    1 - (|r1|^2 + |r2|^2 + integrated leak), i.e. the probability-
    conservation error of the integration itself.
    """

    r1: np.ndarray
    r2: np.ndarray
    leak: np.ndarray
    dt: float
    basis_weights: tuple[float, float]

    # each in place where the expression allows, so a read makes one
    # temporary fewer; the operations and their order are those of the
    # expression in the comment

    @property
    def times(self) -> np.ndarray:
        # np.arange(len(r1)) * dt
        times = np.arange(len(self.r1), dtype=float)
        times *= self.dt
        return times

    @property
    def beta1(self) -> np.ndarray:
        # a2 * r1 - a1 * r2
        a1, a2 = self.basis_weights
        beta1 = a2 * self.r1
        beta1 -= a1 * self.r2
        return beta1

    @property
    def beta2(self) -> np.ndarray:
        # a1 * r1 + a2 * r2
        a1, a2 = self.basis_weights
        beta2 = a1 * self.r1
        beta2 += a2 * self.r2
        return beta2

    @property
    def norm_defect(self) -> np.ndarray:
        # 1 - (|r1|^2 + |r2|^2 + leak)
        defect = np.abs(self.r1) ** 2
        defect += np.abs(self.r2) ** 2
        defect += self.leak
        return np.subtract(1.0, defect, out=defect)


def _steps_for(t_max: float, dt: float) -> int:
    if not isinstance(t_max, numbers.Real):
        raise ConfigError(f"horizon must be a number, got {t_max!r}")
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


def _segment_runs(sched, n: int,
                  dt: float) -> list[tuple[int, int, float, float]]:
    """The steps [0, n) as runs (first step, step count, drive rate, k).

    k is the k of the segment that ends where the run starts, and 1 at step
    0.  The cycle's segments repeat, and the last run is cut at n.  Two
    neighbouring segments are one run where the end between them has k = 1
    and both have the same rate.  Every segment must span a whole number of
    at least 50 steps.
    """
    if sched is None:
        return [(0, n, 0.0, 1.0)]
    pattern = []
    for duration, rate, factor in sched.cycle.segments:
        steps = round(duration / dt)
        if abs(steps * dt - duration) > _DIV_TOL:
            raise ConfigError(
                f"step {dt} does not divide the schedule segment {duration}")
        if steps < 50:
            raise ConfigError(
                f"need at least 50 steps per schedule segment, got {steps}")
        pattern.append((steps, rate, factor))
    # no segment ends at step 0
    runs, lo, ends = [], 0, 1.0
    for steps, rate, factor in itertools.cycle(pattern):
        if lo >= n:
            return runs
        first, k = lo, ends
        if runs and ends == 1.0 and rate == runs[-1][2]:
            first, _, rate, k = runs.pop()
        lo = min(lo + steps, n)
        runs.append((first, lo - first, rate, k))
        ends = factor


def _check_resolution(dt: float, params: ModelParams):
    if dt * params.lam > 0.1:
        raise ConfigError(
            f"step {dt} too coarse for decay rate {params.lam}: "
            "dt * lam must not exceed 0.1")


def _make_trace(params: ModelParams, dt: float, r1: np.ndarray,
                r2: np.ndarray, leak: np.ndarray) -> OracleTrace:
    return OracleTrace(r1, r2, leak, dt, params.basis_weights)


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


def _advance(run: np.ndarray, d: np.ndarray, q: np.ndarray,
             leak: np.ndarray):
    """Fill rows 1.. of run from row 0 by the step y -> y + D y, and leak[k]
    with the leak increment of the step from row k."""
    # doubling: with e = T^h - I, rows [h, 2h) are rows [0, h) advanced h
    # steps, and T^2h - I = 2e + e e
    h, e = 1, d
    while h < len(run):
        m = min(h, len(run) - h)
        np.matmul(run[:m], e.T, out=run[h:h + m])
        run[h:h + m] += run[:m]
        e = 2.0 * e + e @ e
        h *= 2
    # in blocks of rows, so the conjugate copy stays small; a row's sum
    # does not depend on the block it is in
    for lo in range(0, len(leak), _LEAK_ROWS):
        rows = run[lo:min(lo + _LEAK_ROWS, len(leak))]
        leak[lo:lo + len(rows)] = np.einsum("ij,jk,ik->i", rows.conj(), q,
                                            rows).real


def _run_augmented(params: ModelParams, n: int, cfg: OracleConfig,
                   r1: complex, r2: complex,
                   runs: list[tuple[int, int, float, float]]) -> OracleTrace:
    maps = {phi: _step_map(params, cfg.dt_num, cfg.method_order, phi)
            for phi in {rate for _, _, rate, _ in runs}}
    ys = np.empty((n + 1, 4), dtype=complex)
    ys[0] = r1, r2, 0.0, 0.0
    leak = np.zeros(n + 1)
    for lo, count, rate, k in runs:
        # a segment end maps the history; the amplitudes stay continuous
        ys[lo, 2:] *= k
        _advance(ys[lo:lo + count + 1], *maps[rate],
                 leak[lo + 1:lo + count + 1])
    # copies: views would keep all four columns of ys alive in the trace
    r1s, r2s = ys[:, :2].T.copy()
    del ys
    return _make_trace(params, cfg.dt_num, r1s, r2s,
                       np.cumsum(leak, out=leak))


# ---------------------------------------------------------------------------
# direct-quadrature backend

def _fast_length(m: int) -> int:
    """The least 2^a 3^b 5^c at or above m, a length numpy's FFT takes
    fast; a length with a large prime factor can take 8 times as long."""
    best, odd5 = 1 << (m - 1).bit_length(), 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << ((m - 1) // odd).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _spread(far: np.ndarray, ws: np.ndarray, j: int, h: int,
            spectra: dict, kernel) -> int:
    """Add the history sums of the h nodes before node j to far[j:j + h].

    The entries written stop at the end of far.  One circular convolution
    of a fast length at or above h plus their count gives the sums at lags
    1..h + count - 1 with no wrap-around.  spectra caches the real
    transform of the kernel at lags 0..length-1 by length; kernel(length)
    samples it.  The kernel is real, so the real and imaginary parts of the
    history are convolved apart and a real history stays real.  Returns the
    end of the entries written.
    """
    into = far[j:j + h]
    length = _fast_length(h + len(into))
    if length not in spectra:
        spectra[length] = np.fft.rfft(kernel(length))
    block = ws[j - h:j]
    sums = np.fft.rfft(np.stack((block.real, block.imag)), length)
    sums *= spectra[length]
    sums = np.fft.irfft(sums, length)[:, h:]
    into.real += sums[0, :len(into)]
    into.imag += sums[1, :len(into)]
    return j + len(into)


def _run_quadrature(params: ModelParams, n: int, cfg: OracleConfig,
                    x1: complex, x2: complex,
                    runs: list[tuple[int, int, float, float]]) -> OracleTrace:
    dt = cfg.dt_num
    lam = params.lam
    w_sq = params.w_coupling * params.w_coupling
    al1, al2 = params.alpha1, params.alpha2
    r1 = np.zeros(n + 1, dtype=complex)
    r2 = np.zeros(n + 1, dtype=complex)
    leak = np.zeros(n + 1)

    def kernel(count):
        # the kernel samples W^2 e^{-lam m dt}, m = 0..count-1
        return w_sq * np.exp(-lam * dt * np.arange(count))

    # near[_LEAF - p:] is the kernel at lags p..1, lined up with the last
    # p past nodes of an evaluation p nodes into its leaf
    near = kernel(_LEAF + 1)[:0:-1].astype(complex)
    # far[j] holds the sum over all leaves before node j's own; spectra
    # holds the kernel's transforms by length, built once a run
    far = np.zeros(n + 1, dtype=complex)
    spectra, top = {}, 0
    end_w = w_sq * dt / 2.0
    # ws[j] = u_j S_j is written once S_j is final.  A run's k is fac at
    # its first node; the run starts from an empty history, as after a
    # projection (fac 0), and fac is 1 at every other node.  sign is the
    # sign of the segment that starts at a node.  u_j is the trapezoid
    # weight of node j in that segment plus fac times its half weight in
    # the one before: zero at a pulse instant, where the neighbouring
    # trapezoids cancel, dt/2 at a projection.
    ws = np.zeros(n + 1, dtype=complex)
    # a step runs on Python scalars, as numpy's cost more for the same bits:
    # x1, x2, s, out are r1, r2, S and the leak at node k, each written once
    s = al1 * x1 + al2 * x2
    half = dt / 2
    r1[0], r2[0], ws[0] = x1, x2, half * s

    # trapezoidal quadrature of W^2 e^{-lam(t_j - k)} S(k) from the last
    # projection to t_j is the history sum over the past plus the endpoint
    # half weight; sign makes the current segment positive.  past is the
    # history sum at node k: the corrector of step k computes it for node
    # k + 1, and the predictor of step k + 1 reuses it.  The sum at node
    # start + i is far plus one dot over the nodes of i's own leaf of
    # _LEAF nodes.  Once i reaches a multiple of _LEAF, with h its lowest
    # set bit, the block of h nodes before i adds its part to the h nodes
    # from i on by one circular convolution: each pair of a past node and
    # a later leaf falls in exactly one such block, so every term of the
    # sum is added once, in another order than node by node.
    past, out, sign = 0.0j, 0.0, 1.0
    ends = [k for *_, k in runs[1:]] + [1.0]
    for (lo, count, rate, fac), after in zip(runs, ends):
        fac = fac if lo else 0.0
        if fac == -1.0:
            sign = -sign
        if not fac:
            # clear only what the old origin wrote past here, so a restart
            # costs what was written, not the rest of the run
            far[lo + 1:top] = 0.0
            start, past = lo, 0.0j
        rot = -1j * rate
        fac_w = fac * end_w
        # u_j at the run's later nodes, where fac is 1
        u = dt / 2.0 * sign * (1.0 + 1.0)
        for k in range(lo, lo + count):
            i = k + 1 - start
            p = i % _LEAF
            if not p:
                top = max(top, _spread(far, ws, k + 1, i & -i, spectra,
                                       kernel))
            # Heun: predictor with left-endpoint history, corrector
            # re-evaluates the integral including the predicted endpoint
            hist0 = sign * past + fac_w * s
            d1_0 = rot * x1 - al1 * hist0
            d2_0 = rot * x2 - al2 * hist0
            r1p = x1 + dt * d1_0
            r2p = x2 + dt * d2_0
            # ndarray.dot: on a short array it costs less than @
            past = complex(near[_LEAF - p:].dot(ws[k + 1 - p:k + 1])
                           + far[k + 1])
            hist1 = sign * past + end_w * (al1 * r1p + al2 * r2p)
            d1_1 = rot * r1p - al1 * hist1
            d2_1 = rot * r2p - al2 * hist1
            x1 = x1 + half * (d1_0 + d1_1)
            x2 = x2 + half * (d2_0 + d2_1)
            out0 = 2.0 * (hist0 * s.conjugate()).real
            s = al1 * x1 + al2 * x2
            out1 = 2.0 * (hist1 * s.conjugate()).real
            out = out + half * (out0 + out1)
            r1[k + 1], r2[k + 1], leak[k + 1] = x1, x2, out
            ws[k + 1] = u * s
            fac_w = end_w
        # the run's last node starts the next run: its weight has that
        # run's fac, and is zero if that run starts with a pulse
        ws[lo + count] = dt / 2.0 * sign * (1.0 + after) * s
    del far, ws, spectra

    rates = [rate for _, _, rate, _ in runs]
    if any(rates):
        # reported amplitudes absorb the drive phase accumulated so far so
        # free-segment samples follow the cycle-to-cycle convention; each
        # rate times its whole number of driven steps avoids the rounding
        # a running float sum would accumulate
        driven = np.repeat([0.0] + rates,
                           [1] + [count for _, count, _, _ in runs])
        turn = 0.0
        for phi in set(rates) - {0.0}:
            turn = turn + 1j * phi * dt * np.cumsum(driven == phi)
        phase = np.exp(turn)
        r1 *= phase
        r2 *= phase

    return _make_trace(params, dt, r1, r2, leak)


# ---------------------------------------------------------------------------
# public entry points

def _one_cell(params, sched, state0):
    """Refuse with ParameterError what integrate cannot integrate: it runs
    one cell, from one state."""
    if not isinstance(params, ModelParams):
        raise ParameterError("params must be a ModelParams, of one cell; got "
                             f"{type(params).__name__}")
    if (cycle := getattr(sched, "cycle", None)) is None and sched is not None:
        raise ParameterError("sched must be None or a schedule, of one cell;"
                             f" got {type(sched).__name__}")
    segments = cycle.segments if cycle else ()
    if cycle and not segments:
        raise ParameterError("a schedule's cycle needs at least one segment")
    shapes = {np.shape(f) for f in (params.lam, params.w_coupling,
                                    params.alpha1, params.alpha2, *(
                                        f for seg in segments for f in seg))}
    if shapes - {()}:
        raise ParameterError("the oracle integrates one cell; got per-cell "
                             f"fields of shape {sorted(shapes - {()})}")
    if state0 is not None and not isinstance(state0, OddParityState):
        raise ParameterError("state0 must be None or an OddParityState; got "
                             f"{type(state0).__name__}")


def integrate(params: ModelParams, sched, t_max: float, cfg: OracleConfig,
              state0: OddParityState | None = None) -> OracleTrace:
    """Integrate on [0, t_max] under a schedule (None for free decay).

    Only the timing of ``sched.cycle`` is read.  Each segment end multiplies
    the past history by its k; the test suite cross-checks the augmented
    backend's scaled accumulators against the quadrature backend's signed
    weights and restarts.  Those weights carry only the sign and the zero
    of k, so the quadrature backend refuses any k but -1, 0 and 1 with
    ConfigError.  A batch of cells, or anything but a ModelParams, a
    schedule or None and an OddParityState or None, is refused with
    ParameterError, and a cfg that is not an OracleConfig with ConfigError.
    """
    if not isinstance(cfg, OracleConfig):
        raise ConfigError(
            f"cfg must be an OracleConfig; got {type(cfg).__name__}")
    _one_cell(params, sched, state0)
    _check_resolution(cfg.dt_num, params)
    n = _steps_for(t_max, cfg.dt_num)
    run = (_run_augmented if cfg.history_mode == EXACT_AUGMENTED
           else _run_quadrature)
    # the quadrature weights read only the sign and the zero of each k
    if run is _run_quadrature and sched is not None and not {
            k for *_, k in sched.cycle.segments} <= {-1.0, 0.0, 1.0}:
        raise ConfigError("the direct-quadrature backend takes segment ends "
                          "k of -1, 0 or 1 only")
    runs = _segment_runs(sched, n, cfg.dt_num)
    phys = recompose(state0 or OddParityState.superradiant(), params)
    return run(params, n, cfg, complex(phys.c10), complex(phys.c01), runs)


def integrate_free(params: ModelParams, t_max: float, cfg: OracleConfig,
                   state0: OddParityState | None = None) -> OracleTrace:
    """Free memory-kernel dynamics: ``integrate`` with no schedule."""
    return integrate(params, None, t_max, cfg, state0)


# the per-protocol names: each is integrate under its schedule
integrate_dd = integrate_finite = integrate
