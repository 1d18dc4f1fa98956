"""Independent brute-force integration of the memory-kernel dynamics.

This module never touches the closed forms it is meant to validate: it
imports only ``model`` and ``errors`` from the package.  It integrates the
coupled physical amplitudes (r1, r2) on |10> and |01> under

    dr_i/dt = -alpha_i * integral_0^t f(t - k) S(k) dk,
    S = alpha1 r1 + alpha2 r2,   f(s) = W^2 e^{-lam s},

plus the schedule: each segment end multiplies the past history by the
segment's k (-1 a pulse, 0 a projection onto the reservoir vacuum), a
drive window rotates the amplitudes at its drive rate.  One entry point,
`integrate`, reads only the timing of the schedule's cycle (a model.Cycle,
checked when built) into segment runs that both backends
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
* direct-quadrature: Heun steps whose history integral is trapezoidal
  quadrature of the sampled kernel times S over the stored past, with
  signed weights (zero at interior pulse instants, where the neighbouring
  trapezoids cancel) from the last projection on, where the history
  restarts; a drive enters as an explicit rotation term.  Second order and
  maximally independent: no recurrence over the kernel, only its samples.
  FFT blocks bring in the earlier leaves of 256 nodes (fast convolution
  quadrature: Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6,
  532, 1985), so a run is O(n log^2 n); within a leaf, a run's steps are
  one Toeplitz system in the increments of S, solved by its discrete
  resolvent (Brunner, Volterra Integral Equations, CUP 2017, ch. 2).
  A run decides the dtype of its history once: float64 if no segment
  drives it and it starts from real amplitudes, as the history is then
  real, and complex128 otherwise; each FFT block transforms a complex
  history's real and imaginary parts as two rows of one real transform.

A leak accumulator integrates the outflow 2 Re(h1 conj(r1) + h2 conj(r2))
(equivalently 2 Re(I conj(S)) for the quadrature backend; the augmented
backend takes each step's increment as a real dot of y and Q y) so the
trace can report how well total probability is conserved.  A trace holds
r1, r2 and the integrated leak; its times, dark and superradiant
amplitudes and norm defect are derived from them on each read.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError, expect, number
from .model import ModelParams, OddParityState, recompose, schedule_cycle

EXACT_AUGMENTED = "exact-augmented"
DIRECT_QUADRATURE = "direct-quadrature"

# absolute slack for "dt divides a schedule segment"
_DIV_TOL = 1e-12

# nodes of one leaf of the quadrature history: its own sums are direct
# convolutions, earlier leaves arrive by FFT.  A free 10^4-step run took 9.5
# ms on a 2-vCPU Xeon, and 10.7 at 512 nodes, 11.6 at 128 and 16 at 64
_LEAF = 256

# rows of the augmented backend's leak taken at once: their product with Q
# is 4096 x 4 complex, 256 KiB
_LEAK_ROWS = 4096

# most steps in one run: at 104 B a step (peak RSS of the augmented backend,
# measured from 10^5 to 10^6 steps), 1.0 GiB; the quadrature backend peaks
# at 153 B a step at 10^5 steps and 141 B at 10^6, 1.4 GiB.  A float64, as a
# Python float would take a float16 step count's type and overflow
_MAX_STEPS = np.float64(1e7)


@dataclass(frozen=True)
class OracleConfig:
    """Fixed-step integration settings; the trace keeps every step."""

    dt_num: float = 1e-4
    method_order: int = 4
    history_mode: str = EXACT_AUGMENTED

    def __post_init__(self):
        if not number(self.dt_num, types=numbers.Number):
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

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.r1)) * self.dt

    @property
    def beta1(self) -> np.ndarray:
        a1, a2 = self.basis_weights
        return a2 * self.r1 - a1 * self.r2

    @property
    def beta2(self) -> np.ndarray:
        a1, a2 = self.basis_weights
        return a1 * self.r1 + a2 * self.r2

    @property
    def norm_defect(self) -> np.ndarray:
        return 1.0 - (np.abs(self.r1) ** 2 + np.abs(self.r2) ** 2 + self.leak)


def _steps_for(t_max: float, dt: float) -> int:
    if not number(t_max, types=numbers.Number):
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


def _segment_runs(cycle, n: int,
                  dt: float) -> list[tuple[int, int, float, float]]:
    """The steps [0, n) as runs (first step, step count, drive rate, k).

    k is the k of the segment that ends where the run starts, and 1 at step
    0.  The cycle's segments repeat, and the last run is cut at n.  Two
    neighbouring segments are one run where the end between them has k = 1
    and both have the same rate.  Every segment must span a whole number of
    at least 50 steps.
    """
    if cycle is None:
        return [(0, n, 0.0, 1.0)]
    pattern = []
    for duration, rate, factor in cycle.segments:
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


# ---------------------------------------------------------------------------
# exact-augmented backend

def _step_map(params: ModelParams, dt: float, order: int,
              phi: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK step of y' = A y, y = (r1, r2, h1, h2), at drive rate phi.

    The step is y -> y + D y with leak increment Re(y^H Q y): D and Q are
    the stage formulas applied to the identity.
    """
    # squared as a float: a numpy int's square would wrap
    w_sq = float(params.w_coupling) * float(params.w_coupling)
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
    # Re(y^H Q y) is the real dot of y and Q y as pairs of floats; in
    # blocks of rows, so Q y stays small, and a row's sum does not depend
    # on the block it is in
    for lo in range(0, len(leak), _LEAK_ROWS):
        rows = run[lo:min(lo + _LEAK_ROWS, len(leak))]
        leak[lo:lo + len(rows)] = np.einsum(
            "ij,ij->i", rows.view(float), (rows @ q.T).view(float))


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
    return OracleTrace(r1s, r2s, np.cumsum(leak, out=leak), cfg.dt_num,
                       params.basis_weights)


# ---------------------------------------------------------------------------
# direct-quadrature backend

@functools.lru_cache(maxsize=128)
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
    """Add the history sums of the h nodes before node j to far[j:j + h],
    up to the end of far, and return the end of the entries written.

    One circular convolution of a fast length at or above h plus their
    count has no wrap-around.  spectra caches the kernel's real transforms
    by length; kernel(length) samples it.  A real history is one row of
    one real transform, a complex one its real and imaginary parts as two
    rows, read in place.
    """
    into = far[j:j + h]
    length = _fast_length(h + len(into))
    if length not in spectra:
        spectra[length] = np.fft.rfft(kernel(length))
    sums = np.fft.rfft(ws[j - h:j].view(float).reshape(h, -1).T, length)
    sums *= spectra[length]
    sums = np.fft.irfft(sums, length)[:, h:h + len(into)]
    into.view(float).reshape(len(into), -1)[...] += sums.T
    return j + len(into)


def _piece_map(rate: float, dt: float, a: float, e: float, kz: np.ndarray,
               dtype: type):
    """(v, B, C, g - 1, q^i - 1) of the pieces at one drive rate: a Heun step
    is S' = S + (A - 1) S + B P + C P', P, P' the signed history sums at its
    nodes; v is a piece's increments per unit first S, g - 1 takes its known
    increments to its increments, q turns the dark combination by a step.
    Pieces reuse them, so they are formed in long double where it exists,
    and held in the run's dtype: float keeps only the real parts, all there
    are at rate 0."""
    dt, kz = np.longdouble(dt), kz.astype(np.longdouble)
    z = dt * (-1j * np.longdouble(rate) - a * e)
    am1, b, c = z + z * z / 2, -dt * a / 2 * (1 + z), -dt * a / 2
    # an increment reads the earlier ones through S and the history of
    # their nodes, at the kernel's lags to the step's nodes
    t = np.cumsum(dt * (c * kz + b * np.concatenate(([0.0], kz[:-1]))))
    t[1:] += am1
    # g = 1 / (1 - t) by Newton doubling: with g right to h terms, its next
    # h are those of g * (t * g), each formed directly and not as g - 1
    g = np.ones(1, dtype=t.dtype)
    while len(g) < len(t):
        h, m = len(g), min(2 * len(g), len(t))
        g = np.concatenate(
            (g, np.convolve(g, np.convolve(t[:m], g)[h:m])[:m - h]))
    g[0], t[0] = 0.0, am1
    # u_i = q^i - 1, q = 1 + y + y^2 / 2 with y = -i rate dt, by doubling:
    # u_(h + i) = u_h + u_i + u_h u_i, not by products of a rounded q
    y = -1j * dt * rate
    u = np.array([0, y + y * y / 2])
    while len(u) <= len(kz):
        uh = u[-1] + u[1] + u[-1] * u[1]
        u = np.concatenate((u, uh + u + uh * u))
    if dtype is float:
        t, b, g, u = t.real, b.real, g.real, u.real
    return (t.astype(dtype), dtype(b), float(c), g.astype(dtype),
            u[:len(kz) + 1].astype(dtype))


def _history_dtype(runs: list, x1: complex, x2: complex) -> type:
    """float if no run drives and both amplitudes are real, as the history
    of the quadrature is then real; complex otherwise."""
    driven = any(rate for _, _, rate, _ in runs)
    return complex if driven or x1.imag or x2.imag else float


def _run_quadrature(params: ModelParams, n: int, cfg: OracleConfig,
                    x1: complex, x2: complex,
                    runs: list[tuple[int, int, float, float]]) -> OracleTrace:
    dt, al1, al2 = cfg.dt_num, params.alpha1, params.alpha2
    w_sq = float(params.w_coupling) * float(params.w_coupling)
    a, e = al1 * al1 + al2 * al2, w_sq * dt / 2.0
    # numpy divides a complex array by a real as by its reciprocal: real and
    # complex histories share their bits
    inv_a = 1.0 / a
    r1, r2 = np.zeros((2, n + 1), dtype=complex)
    leak = np.zeros(n + 1)

    def kernel(count):
        # the kernel samples W^2 e^{-lam m dt}, m = 0..count-1
        return w_sq * np.exp(-params.lam * dt * np.arange(count))

    # zero at lag 0, where S is the endpoint term and not history
    kz = np.concatenate(([0.0], kernel(_LEAF)[1:]))
    # far, ws, S, past and the piece maps hold the history in one dtype
    dtype = _history_dtype(runs, x1, x2)
    maps = {rate: _piece_map(rate, dt, a, e, kz, dtype)
            for rate in {rate for _, _, rate, _ in runs}}
    # far[j]: the sum over the leaves before node j's own; spectra: kernel FFTs
    far, spectra, top = np.zeros(n + 1, dtype), {}, 0
    # ws[j] = u_j S_j once S_j is final.  A run's k is fac at its first node
    # (0 at node 0) and 1 at its other nodes.  u_j is node j's trapezoid
    # weight in the segment it starts, of sign sign, plus fac times its half
    # weight in the one before: zero at a pulse, dt/2 at a projection.
    ws = np.zeros(n + 1, dtype)
    # S and the dark combination, which the history leaves out: it only turns
    s, d = al1 * x1 + al2 * x2, al2 * x1 - al1 * x2
    if dtype is float:
        s, d = s.real, d.real
    r1[0], r2[0] = x1, x2

    # The integral of W^2 e^{-lam(t_j - k)} S(k) from the last projection is
    # sign times the history sum, plus the endpoint half weight.  The sum at
    # node start + i is far plus a sum over i's own leaf of _LEAF nodes; at
    # each multiple i of _LEAF, with h its lowest set bit, the h nodes before
    # i add their part to the h nodes from i on by FFT.  A piece is the steps
    # of a run in one leaf; its nodes enter the history as sign u_j S_j = dt
    # S_j, so its increments of S solve one unit lower-triangular Toeplitz
    # system per rate, f + (g - 1) * f.  past is the sum at the last node.
    past, sign = 0.0, 1.0
    # the reported amplitudes absorb the drive phase (the cycle-to-cycle
    # convention): each rate times its whole number of driven steps, which a
    # running sum would round
    done = dict.fromkeys(maps, 0)
    for lo, count, rate, fac in runs:
        fac = fac if lo else 0.0
        ws[lo] = dt / 2.0 * sign * (1.0 + fac) * s
        if fac == -1.0:
            sign = -sign
        if not fac:
            # clear only what the old origin wrote past here
            far[lo + 1:top] = 0.0
            start, past = lo, 0.0
        # the run's first step has the endpoint weight fac e, not e
        past += sign * (fac - 1.0) * e * s
        v, b, c, g, q_pow = maps[rate]
        turned = sum(1j * p * dt * k for p, k in done.items() if p != rate)
        # a piece ends at the run's end and before each leaf's first node
        cuts = [lo, *range(lo + 1 + (start - lo - 2) % _LEAF, lo + count,
                           _LEAF), lo + count]
        for k0, k1 in zip(cuts, cuts[1:]):
            m, i, new = k1 - k0, k0 + 1 - start, slice(k0 + 1, k1 + 1)
            if not i % _LEAF:
                top = max(top, _spread(far, ws, k0 + 1, i & -i, spectra,
                                       kernel))
            # the sums at the piece's nodes over far and the leaf's to k0
            leaf = k0 + 1 - i % _LEAF
            raw = far[new] + (np.convolve(ws[leaf:k0 + 1], kz[:k1 + 1 - leaf])
                              [k0 + 1 - leaf:k1 + 1 - leaf]
                              if k0 >= leaf else 0.0)
            hist = sign * np.concatenate(([past], raw))
            f = s * v[:m] + b * hist[:-1] + c * hist[1:]
            f += np.convolve(g[:m], f)[:m]
            s1 = s + np.cumsum(f)
            s0 = np.concatenate(([s], s1[:-1]))
            ws[new] = dt * sign * s1
            raw += np.convolve(ws[new], kz[:m])[:m]
            hist[1:] = sign * raw
            # the leak 2 Re(hist conj(S)) at each step's two nodes
            h0 = hist[:-1] + e * s0
            # a drive turns S; undriven, a real history stays real
            h1 = hist[1:] + e * (s0 + dt * (-1j * rate * s0 - a * h0 if rate
                                            else -a * h0))
            leak[new] = dt * (h0 * s0.conj() + h1 * s1.conj()).real
            dd = d + d * q_pow[1:m + 1]
            r1[new] = (al1 * s1 + al2 * dd) * inv_a
            r2[new] = (al2 * s1 - al1 * dd) * inv_a
            # before any drive the phase is exactly 1
            if rate or turned:
                phase = np.exp(turned + 1j * rate * dt * (
                    done[rate] + np.arange(k0 - lo + 1, k1 - lo + 1)))
                r1[new] *= phase
                r2[new] *= phase
            s, d, past = s1[-1], dd[-1], raw[-1]
        done[rate] += count
    return OracleTrace(r1, r2, np.cumsum(leak, out=leak), dt,
                       params.basis_weights)


# ---------------------------------------------------------------------------
# public entry points

def _one_cell(params, sched, state0):
    """The cycle of sched (None for free decay); refuse with ParameterError
    what integrate cannot integrate: it runs one cell, from one state."""
    expect(ParameterError, params, ModelParams,
           "params must be a ModelParams, of one cell")
    cycle = schedule_cycle(sched, "of one cell")
    fields = (params.lam, params.w_coupling, params.alpha1, params.alpha2,
              *((cycle.period, *(f for seg in cycle.segments for f in seg))
                if cycle else ()))
    if shapes := {np.shape(f) for f in fields} - {()}:
        raise ParameterError("the oracle integrates one cell; got per-cell "
                             f"fields of shape {sorted(shapes)}")
    expect(ParameterError, state0, (OddParityState, type(None)),
           "state0 must be None or an OddParityState")
    return cycle


def integrate(params: ModelParams, sched, t_max: float, cfg: OracleConfig,
              state0: OddParityState | None = None) -> OracleTrace:
    """Integrate on [0, t_max] under a schedule (None for free decay).

    Only the timing of ``sched.cycle`` is read.  Inside a drive window
    beta2 is the amplitude in the frame co-rotating with the drive, without
    the window's partial phase exp(-i rate into) that survival carries.
    Each segment end multiplies the past history by its k; the test suite
    cross-checks the augmented
    backend's scaled accumulators against the quadrature backend's signed
    weights and restarts.  Those weights carry only the sign and the zero
    of k, so the quadrature backend refuses any k but -1, 0 and 1 with
    ConfigError.  A batch of cells, or anything but a ModelParams, a
    schedule or None and an OddParityState or None, is refused with
    ParameterError, and a cfg that is not an OracleConfig with ConfigError.
    """
    expect(ConfigError, cfg, OracleConfig, "cfg must be an OracleConfig")
    cycle = _one_cell(params, sched, state0)
    _check_resolution(cfg.dt_num, params)
    n = _steps_for(t_max, cfg.dt_num)
    run = (_run_augmented if cfg.history_mode == EXACT_AUGMENTED
           else _run_quadrature)
    # the quadrature weights read only the sign and the zero of each k
    if run is _run_quadrature and cycle and not {
            k for *_, k in cycle.segments} <= {-1.0, 0.0, 1.0}:
        raise ConfigError("the direct-quadrature backend takes segment ends "
                          "k of -1, 0 or 1 only")
    runs = _segment_runs(cycle, n, cfg.dt_num)
    phys = recompose(state0 or OddParityState.superradiant(), params)
    return run(params, n, cfg, complex(phys.c10), complex(phys.c01), runs)


def integrate_free(params: ModelParams, t_max: float, cfg: OracleConfig,
                   state0: OddParityState | None = None) -> OracleTrace:
    """Free memory-kernel dynamics: ``integrate`` with no schedule."""
    return integrate(params, None, t_max, cfg, state0)


# the per-protocol names: each is integrate under its schedule
integrate_dd = integrate_finite = integrate
