from __future__ import annotations

import cmath
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parityshield as ps

TAU = 0.1
FINITE_TAU = 0.2

# numpy < 2.0 has the same rule under its old name
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _closed_free(times, params):
    return np.array(ps.free_survival(times, params))


def _on_cycle(period, segments):
    """A schedule whose cycle is the given (duration, drive rate, k)s."""
    return SimpleNamespace(cycle=ps.transfer.Cycle(period, segments))


# free, a window of rate * duration = pi, free: a kind with no schedule
# class whose window is not the last segment
WINDOW_MID = _on_cycle(0.2, ((0.09, 0.0, 1.0), (0.02, 50 * math.pi, 1.0),
                             (0.09, 0.0, 1.0)))


def test_free_augmented_matches_closed_form(case1, free_trace_aug):
    err = np.max(np.abs(free_trace_aug.beta2 - _closed_free(
        free_trace_aug.times, case1)))
    assert err < 1e-6


def test_free_quadrature_matches_closed_form(case1, free_trace_quad):
    err = np.max(np.abs(free_trace_quad.beta2 - _closed_free(
        free_trace_quad.times, case1)))
    assert err < 1e-6


def test_backends_agree_on_free_decay(free_trace_aug, free_trace_quad):
    assert np.array_equal(free_trace_aug.times, free_trace_quad.times)
    err = np.max(np.abs(free_trace_aug.beta2 - free_trace_quad.beta2))
    assert err < 5e-5


def test_trace_shape_and_grid(case1, free_trace_aug):
    tr = free_trace_aug
    assert len(tr.times) == len(tr.r1) == len(tr.beta2) == 10001
    assert tr.times[0] == 0.0 and tr.times[-1] == pytest.approx(1.0)
    assert tr.beta2[0] == pytest.approx(1.0)
    assert np.max(np.abs(tr.beta1)) < 1e-12        # superradiant start


def test_norm_accounting(free_trace_aug):
    # defect folds the leak accumulator back in; it measures integrator
    # drift, not physical loss
    assert float(np.max(np.abs(free_trace_aug.norm_defect))) < 1e-10
    survival = np.abs(free_trace_aug.r1) ** 2 + np.abs(free_trace_aug.r2) ** 2
    assert float(np.max(np.diff(survival))) <= 1e-12


def test_dark_state_decouples(case1, cfg_aug):
    tr = ps.integrate_free(case1, 1.0, cfg_aug,
                           state0=ps.OddParityState.dark())
    assert float(np.max(np.abs(tr.beta2))) < 1e-12
    assert float(np.max(np.abs(tr.beta1 - 1.0))) < 1e-12


def test_convergence_orders(case1):
    def max_err(order, dt):
        cfg = ps.OracleConfig(dt_num=dt, method_order=order)
        tr = ps.integrate_free(case1, 1.0, cfg)
        return float(np.max(np.abs(tr.beta2 - _closed_free(tr.times, case1))))

    assert max_err(4, 0.04) / max_err(4, 0.02) >= 8.0
    assert max_err(2, 0.04) / max_err(2, 0.02) >= 3.5


def test_pulsed_run_matches_recursion(case1, dd_trace_aug):
    sched = ps.DdSchedule(TAU)
    closed = np.array(ps.dd_survival(dd_trace_aug.times, sched, case1))
    assert float(np.max(np.abs(dd_trace_aug.beta2 - closed))) < 1e-6


def test_pulsed_backends_agree(case1, cfg_quad, dd_trace_aug):
    tr_q = ps.integrate_dd(case1, ps.DdSchedule(TAU), 1.0, cfg_quad)
    assert float(np.max(np.abs(dd_trace_aug.beta2 - tr_q.beta2))) < 5e-5


def test_pulsed_trace_slope_reverses(dd_trace_aug):
    # one-sided slopes from the stored samples on both sides of a pulse
    t = dd_trace_aug.times
    b = dd_trace_aug.beta2.real
    dt = t[1] - t[0]
    for m in (1, 4, 9):
        k = round(m * TAU / dt)
        assert t[k] == pytest.approx(m * TAU, abs=1e-12)
        right = (-3 * b[k] + 4 * b[k + 1] - b[k + 2]) / (2 * dt)
        left = (3 * b[k] - 4 * b[k - 1] + b[k - 2]) / (2 * dt)
        assert abs(right + left) < 1e-4 * abs(left)


def test_interval_longer_than_horizon_reduces_to_free(case1, cfg_aug,
                                                      free_trace_aug):
    tr = ps.integrate_dd(case1, ps.DdSchedule(2.0), 1.0, cfg_aug)
    assert float(np.max(np.abs(tr.beta2 - free_trace_aug.beta2))) == 0.0


def _free_segment_gap(params, sched, cfg):
    """Largest |oracle - closed form| over the samples tagged free."""
    tr = ps.integrate(params, sched, 1.0, cfg)
    closed, tags = ps.survival(tr.times, sched, params)
    return max(abs(complex(b2) - value)
               for b2, value, tag in zip(tr.beta2, closed, tags)
               if tag == ps.FREE_SEGMENT)


def test_finite_run_matches_map(case1, cfg_aug):
    for sched in (ps.FinitePulseSchedule(0.2, 10), WINDOW_MID):
        assert _free_segment_gap(case1, sched, cfg_aug) < 1e-4, sched


def test_finite_quadrature_backend(case1, cfg_quad):
    # lab-frame formulation with explicit drive term, phase-aligned output
    for sched in (ps.FinitePulseSchedule(0.2, 10), WINDOW_MID):
        assert _free_segment_gap(case1, sched, cfg_quad) < 5e-3, sched


def test_dark_amplitude_constant_under_all_protocols(case1, cfg_aug):
    mixed = ps.OddParityState.initial(math.sqrt(0.5), math.sqrt(0.5))
    traces = (
        ps.integrate_free(case1, 1.0, cfg_aug, state0=mixed),
        ps.integrate_dd(case1, ps.DdSchedule(TAU), 1.0, cfg_aug,
                        state0=mixed),
        ps.integrate_finite(case1, ps.FinitePulseSchedule(0.2, 10), 1.0,
                            cfg_aug, state0=mixed),
    )
    for tr in traces:
        assert float(np.max(np.abs(tr.beta1 - tr.beta1[0]))) < 1e-8


def test_config_validation():
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(dt_num=0.0)
    with pytest.raises(ps.ConfigError, match="step must be a number"):
        ps.OracleConfig(dt_num="1e-4")
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(method_order=3)
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(history_mode="spline")
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(history_mode=ps.DIRECT_QUADRATURE, method_order=4)


@pytest.mark.parametrize("t_max", ["1", None, True],
                         ids=["text", "none", "bool"])
def test_horizon_that_is_not_a_number_refused(case1, cfg_aug, t_max):
    with pytest.raises(ps.ConfigError,
                       match=f"^horizon must be a number, got {t_max!r}$"):
        ps.integrate(case1, None, t_max, cfg_aug)


def _integrate_with(**given):
    """integrate(**given) over one free cell at a 1e-3 step, deferred."""
    args = {"params": ps.ModelParams.from_mode_splitting(2.0, 1.0),
            "sched": None, "t_max": 1.0, "cfg": ps.OracleConfig(1e-3),
            **given}
    return lambda: ps.integrate(**args)


@pytest.mark.parametrize("call, error, message", [
    (_integrate_with(params=ps.ModelParams.from_mode_splitting(
        np.array([2.0, 3.0]), np.array([1.0, 1.0]))), ps.ParameterError,
     r"^the oracle integrates one cell; got per-cell fields of shape "
     r"\[\(2,\)\]$"),
    (_integrate_with(sched=ps.DdSchedule(np.array([0.1, 0.2]))),
     ps.ParameterError, r"^the oracle integrates one cell"),
    (_integrate_with(sched="dd(0.1)"), ps.ParameterError,
     r"^sched must be None or a schedule, of one cell; got str$"),
    (_integrate_with(params=None), ps.ParameterError,
     r"^params must be a ModelParams, of one cell; got NoneType$"),
    (_integrate_with(state0=(0.6, 0.8)), ps.ParameterError,
     r"^state0 must be None or an OddParityState; got tuple$"),
    (_integrate_with(cfg=None), ps.ConfigError,
     r"^cfg must be an OracleConfig; got NoneType$"),
    (lambda: ps.OracleConfig(True), ps.ConfigError,
     r"^step must be a number, got True$"),
    (lambda: _integrate_with(sched=_on_cycle(0.1, ()))(), ps.ParameterError,
     r"^a cycle needs at least one segment$"),
], ids=["batch-params", "batch-schedule", "descriptor", "no-params",
        "state-tuple", "no-config", "bool-step", "empty-cycle"])
def test_oracle_refuses_what_it_cannot_integrate(call, error, message):
    # the oracle integrates one cell from one state; anything else is a
    # ParityShieldError naming what it got, never a raw numpy or Python
    # error from deep inside a backend
    with pytest.raises(error, match=message):
        call()


def test_run_preconditions(case1, cfg_aug):
    with pytest.raises(ps.ConfigError):
        ps.integrate_free(case1, -1.0, cfg_aug)
    with pytest.raises(ps.ConfigError):
        # 1e300 steps: refused before any per-step list is built
        ps.integrate(case1, None, 1.0, ps.OracleConfig(dt_num=1e-300))
    with pytest.raises(ps.ConfigError):
        # horizon not on the step grid
        ps.integrate_free(case1, 1.00005, ps.OracleConfig(dt_num=1e-3))
    with pytest.raises(ps.ConfigError):
        # step too coarse for the decay scale
        ps.integrate_free(case1, 1.0, ps.OracleConfig(dt_num=0.1))
    with pytest.raises(ps.ConfigError):
        # fewer than 50 steps per pulse interval
        ps.integrate_dd(case1, ps.DdSchedule(TAU),
                        1.0, ps.OracleConfig(dt_num=0.01))
    with pytest.raises(ps.ConfigError):
        # fewer than 50 steps per drive window
        ps.integrate_finite(case1, ps.FinitePulseSchedule(0.2, 10), 1.0,
                            ps.OracleConfig(dt_num=1e-3))


MIXED = ps.OddParityState.initial(math.sqrt(0.5), math.sqrt(0.5))


def test_per_protocol_names_are_integrate():
    assert ps.integrate_dd is ps.integrate
    assert ps.integrate_finite is ps.integrate


@pytest.mark.parametrize("mode", [ps.EXACT_AUGMENTED, ps.DIRECT_QUADRATURE])
@pytest.mark.parametrize("protocol", ["free", "dd", "finite"])
def test_integrate_equals_wrapper(case1, protocol, mode):
    cfg = ps.OracleConfig(dt_num=2e-4, method_order=2, history_mode=mode)
    if protocol == "free":
        sched, wrapped = None, ps.integrate_free(case1, 0.4, cfg, MIXED)
    elif protocol == "dd":
        sched = ps.DdSchedule(TAU)
        wrapped = ps.integrate_dd(case1, sched, 0.4, cfg, MIXED)
    else:
        sched = ps.FinitePulseSchedule(0.2, 10)
        wrapped = ps.integrate_finite(case1, sched, 0.4, cfg, MIXED)
    tr = ps.integrate(case1, sched, 0.4, cfg, state0=MIXED)
    for name in ("times", "r1", "r2", "beta1", "beta2", "norm_defect"):
        assert np.array_equal(getattr(tr, name), getattr(wrapped, name)), name


_BACKENDS = {
    "augmented": (ps.OracleConfig(dt_num=1e-4, method_order=4,
                                  history_mode=ps.EXACT_AUGMENTED), 1e-12),
    "quadrature": (ps.OracleConfig(dt_num=1e-4, method_order=2,
                                   history_mode=ps.DIRECT_QUADRATURE), 1e-7),
}


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
@pytest.mark.parametrize("params", [
    ps.ModelParams.from_mode_splitting(2.0, 1.0),
    ps.ModelParams.from_effective_rate(1.0, 0.5),
    ps.ModelParams.from_effective_rate(2.0, 3.0),
], ids=["overdamped", "critical", "underdamped"])
@pytest.mark.parametrize("sched", [
    ps.ZenoSchedule(TAU),
    # a pulse, then a projection: a cycle mixing both end maps
    _on_cycle(2 * TAU, ((TAU, 0.0, -1.0), (TAU, 0.0, 0.0))),
], ids=["zeno", "pulse-then-projection"])
def test_projections_match_closed_form(params, backend, sched):
    # a projection onto the reservoir vacuum empties the history; the
    # probability it discards stays in the leak accumulator, so the norm
    # defect keeps measuring integrator drift alone
    cfg, tol = _BACKENDS[backend]
    tr = ps.integrate(params, sched, 1.0, cfg, state0=MIXED)
    closed = np.array(ps.transfer.evaluate(
        tr.times, params, sched.cycle, lambda x, *_: x))
    assert float(np.max(np.abs(tr.beta2 - MIXED.beta2 * closed))) <= tol
    assert float(np.max(np.abs(tr.norm_defect))) <= tol
    assert float(np.max(np.abs(tr.beta1 - MIXED.beta1))) < 1e-12


@pytest.mark.parametrize("k", [0.5, -cmath.exp(0.3j)],
                         ids=["half-slope", "pulse-phase-error"])
def test_general_end_map_refused_by_quadrature(case1, k):
    # the augmented backend scales the history by any k and follows the
    # closed form; the quadrature weights carry only the sign and the zero
    # of k (0.125 off at k = 0.5), so that backend refuses it
    sched = _on_cycle(TAU, ((TAU, 0.0, k),))
    cfg, tol = _BACKENDS["augmented"]
    tr = ps.integrate(case1, sched, 1.0, cfg, state0=MIXED)
    closed = np.array(ps.transfer.evaluate(
        tr.times, case1, sched.cycle, lambda x, *_: x))
    assert float(np.max(np.abs(tr.beta2 - MIXED.beta2 * closed))) <= tol
    with pytest.raises(ps.ConfigError, match="k of -1, 0 or 1 only"):
        ps.integrate(case1, sched, 1.0, _BACKENDS["quadrature"][0])


@pytest.mark.parametrize("n_duty", [10, 20])
@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_in_window_frames(case1, backend, n_duty):
    # inside a window survival returns x exp(-i phi into) and the oracle
    # the rotating-frame x: their beta2 differ by up to 1.99 there, while
    # their moduli agree.  Turned into survival's frame, the oracle matches
    # it in the windows as closely as on the free segments (augmented:
    # 4.4e-11 at N = 10, 7.8e-10 at N = 20)
    sched = ps.FinitePulseSchedule(FINITE_TAU, n_duty)
    tr = ps.integrate(case1, sched, 1.0, _BACKENDS[backend][0])
    closed, tags = ps.survival(tr.times, sched, case1)
    into = ps.transfer.evaluate(tr.times, case1, sched.cycle,
                                lambda x, xd, k, into: into)
    window = tags == ps.IN_PULSE_SEGMENT
    assert float(np.max(np.abs(tr.beta2 - closed)[window])) > 1.0
    turned = np.where(window, tr.beta2 * np.exp(-1j * sched.phase_rate
                                                 * into), tr.beta2)
    gap = np.abs(turned - closed)
    assert np.max(gap[window]) <= 1.1 * np.max(gap[~window])


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_two_pulse_cycle_equals_dd_bitwise(case1, backend):
    cfg, _ = _BACKENDS[backend]
    twice = _on_cycle(2 * TAU, ((TAU, 0.0, -1.0), (TAU, 0.0, -1.0)))
    tr = ps.integrate(case1, twice, 0.4, cfg, state0=MIXED)
    ref = ps.integrate(case1, ps.DdSchedule(TAU), 0.4, cfg, state0=MIXED)
    for name in ("r1", "r2", "beta1", "beta2", "norm_defect"):
        assert np.array_equal(getattr(tr, name), getattr(ref, name)), name


@pytest.mark.parametrize("sched", [
    ps.DdSchedule(0.10005),                  # 1000.5 steps
    ps.FinitePulseSchedule(0.2, 3),          # window of 666.67 steps
    ps.DdSchedule(0.0049),                   # 49 steps
    ps.FinitePulseSchedule(0.2, 50),         # 40-step window
], ids=["off-grid", "off-grid-window", "short", "short-window"])
def test_segment_grid_check(case1, cfg_aug, sched):
    with pytest.raises(ps.ConfigError):
        ps.integrate(case1, sched, 1.0, cfg_aug)


def test_fifty_step_segments_accepted(case1, cfg_aug):
    for sched in (ps.DdSchedule(0.005), ps.FinitePulseSchedule(0.01, 2)):
        tr = ps.integrate(case1, sched, 0.02, cfg_aug)
        assert len(tr.times) == 201


def _frozen_step_timing(sched, n, dt):
    # the per-step lists integrate built before segment runs, frozen:
    # factors[k] is the k of the segment that ends where step k starts (1
    # where none ends), rates[k] the drive rate during step k
    if sched is None:
        return [1.0] * n, [0.0] * n
    pattern, ends, cycle_steps = [], [], 0
    for duration, rate, factor in sched.cycle.segments:
        k = round(duration / dt)
        cycle_steps += k
        pattern += [rate] * min(k, n - len(pattern))
        ends += [1.0] * min(k - 1, n - len(ends)) + [factor]
    rates = (pattern * (n // cycle_steps + 1))[:n]
    factors = ([1.0] + ends * (n // cycle_steps + 1))[:n]
    return factors, rates


@pytest.mark.parametrize("sched", [
    None, ps.DdSchedule(TAU), ps.ZenoSchedule(TAU),
    ps.FinitePulseSchedule(0.2, 10),
    # two free segments joined by k = 1: one run over the whole horizon
    _on_cycle(2 * TAU, ((TAU, 0.0, 1.0), (TAU, 0.0, 1.0))),
    _on_cycle(2 * TAU, ((TAU, 0.0, -1.0), (TAU, 0.0, 0.0))),
    WINDOW_MID,
    # a cycle longer than the run
    ps.DdSchedule(2.0),
], ids=["free", "dd", "zeno", "dd-finite", "two-free", "pulse-projection",
        "window-mid", "long-cycle"])
@pytest.mark.parametrize("n", [10000, 9370, 20000, 1000])
def test_segment_runs_are_the_augmented_cuts(sched, n):
    # the runs start exactly where the augmented backend cut its per-step
    # lists into runs of equal steps, and spell out the same lists
    runs = ps.oracle._segment_runs(sched and sched.cycle, n, 1e-4)
    factors, rates = _frozen_step_timing(sched, n, 1e-4)
    fac, rate = np.array(factors), np.array(rates)
    cuts = np.flatnonzero((fac[1:] != 1.0) | (rate[1:] != rate[:-1])) + 1
    assert [lo for lo, *_ in runs] == [0, *cuts.tolist()]
    assert sum(count for _, count, _, _ in runs) == n
    assert _step_lists(runs) == (factors, rates)


@pytest.mark.parametrize("sched", [
    ps.FinitePulseSchedule(0.2, 10), ps.DdSchedule(TAU),
], ids=["driven", "pulsed"])
@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_derived_trace_fields_are_the_eager_expressions(sched, backend):
    # a trace derives its fields on each read; each is bit for bit the
    # expression the trace used to store, on unequal weights
    params = ps.ModelParams(2.0, 0.8, 0.9, 0.5)
    tr = ps.integrate(params, sched, 0.4, _BACKENDS[backend][0],
                      state0=ps.OddParityState.initial(0.6, 0.8j))
    a1, a2 = params.basis_weights
    r1, r2, leak = tr.r1, tr.r2, tr.leak
    eager = {"times": np.arange(len(r1)) * 1e-4,
             "beta1": a2 * r1 - a1 * r2,
             "beta2": a1 * r1 + a2 * r2,
             "norm_defect": 1.0 - (np.abs(r1) ** 2 + np.abs(r2) ** 2 + leak)}
    for name, value in eager.items():
        read = getattr(tr, name)
        assert read.dtype == value.dtype, name
        assert np.array_equal(read, value), name
        # not cached: each read is a new array
        assert getattr(tr, name) is not read, name


@pytest.mark.parametrize("backend, run_bound", [
    ("augmented", 120), ("quadrature", 140),
])
def test_oracle_memory_per_step(backend, run_bound):
    # tracemalloc peak of a 2 * 10^4-step driven run, and what its trace
    # holds, in bytes a step; measured 104 and 129 B for the runs and
    # 40 B for a trace (r1, r2 and the leak)
    cfg = _BACKENDS[backend][0]
    params, sched = ps.ModelParams.from_mode_splitting(2.0, 1.0), \
        ps.FinitePulseSchedule(0.2, 10)
    ps.integrate(params, sched, 0.2, cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr = ps.integrate(params, sched, 2.0, cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tr.r1) == 20001
    assert (peak - base) / 20000 <= run_bound
    assert (held - base) / 20000 <= 48


def _segmentwise_quadrature(params, n, dt, r1_0, r2_0, flip_every=None,
                            window=None):
    # reference: Heun with the history integral as one trapezoid call
    # per pulse segment, signs alternating back from the current interval
    w_sq = params.w_coupling ** 2
    al1, al2 = params.alpha1, params.alpha2
    dec = np.exp(-params.lam * dt * np.arange(n + 1))
    r1 = np.zeros(n + 1, dtype=complex)
    r2 = np.zeros(n + 1, dtype=complex)
    s = np.zeros(n + 1, dtype=complex)
    leak = np.zeros(n + 1)
    r1[0], r2[0] = r1_0, r2_0
    s[0] = al1 * r1_0 + al2 * r2_0

    def history(j, interval):
        if j == 0:
            return 0.0j
        ker = w_sq * dec[j::-1]
        if flip_every is None:
            return complex(_trapezoid(ker * s[:j + 1], dx=dt))
        tot = 0.0j
        for seg in range(interval):
            lo, hi = seg * flip_every, min((seg + 1) * flip_every, j)
            if hi > lo:
                sign = -1.0 if (interval - seg) % 2 else 1.0
                tot += sign * _trapezoid(ker[lo:hi + 1] * s[lo:hi + 1],
                                         dx=dt)
        lo = interval * flip_every
        if j > lo:
            tot += _trapezoid(ker[lo:j + 1] * s[lo:j + 1], dx=dt)
        return complex(tot)

    for k in range(n):
        interval = k // flip_every if flip_every is not None else 0
        phi = 0.0
        if window is not None:
            cycle_steps, free_steps, phi_w = window
            phi = phi_w if k % cycle_steps >= free_steps else 0.0
        h0 = history(k, interval)
        d1_0 = -1j * phi * r1[k] - al1 * h0
        d2_0 = -1j * phi * r2[k] - al2 * h0
        r1p, r2p = r1[k] + dt * d1_0, r2[k] + dt * d2_0
        s[k + 1] = al1 * r1p + al2 * r2p
        h1 = history(k + 1, interval)
        r1[k + 1] = r1[k] + dt / 2 * (d1_0 - 1j * phi * r1p - al1 * h1)
        r2[k + 1] = r2[k] + dt / 2 * (d2_0 - 1j * phi * r2p - al2 * h1)
        s[k + 1] = al1 * r1[k + 1] + al2 * r2[k + 1]
        leak[k + 1] = leak[k] + dt * ((h0 * s[k].conjugate()).real
                                      + (h1 * s[k + 1].conjugate()).real)
    if window is not None:
        for j in range(n + 1):
            cyc, pos = divmod(j, cycle_steps)
            drive = cyc * (cycle_steps - free_steps) + max(0, pos - free_steps)
            r1[j] *= np.exp(1j * phi_w * dt * drive)
            r2[j] *= np.exp(1j * phi_w * dt * drive)
    return r1, r2, leak


@pytest.mark.parametrize("protocol", ["free", "dd", "finite"])
def test_quadrature_matches_segmentwise_trapezoid(case1, protocol):
    # 600 steps; dd flips every 50 steps, so odd and even intervals occur
    # and the history is evaluated exactly on pulse instants; the finite
    # run has 50-step drive windows in 100-step cycles
    dt, n = 1e-3, 600
    cfg = ps.OracleConfig(dt_num=dt, method_order=2,
                          history_mode=ps.DIRECT_QUADRATURE)
    flip_every = window = None
    if protocol == "free":
        tr = ps.integrate_free(case1, n * dt, cfg)
    elif protocol == "dd":
        flip_every = 50
        tr = ps.integrate_dd(case1, ps.DdSchedule(flip_every * dt), n * dt,
                             cfg)
    else:
        sched = ps.FinitePulseSchedule(0.1, 2)
        window = (100, 50, sched.phase_rate)
        tr = ps.integrate_finite(case1, sched, n * dt, cfg)
    r1, r2, leak = _segmentwise_quadrature(case1, n, dt, tr.r1[0], tr.r2[0],
                                           flip_every, window)
    tr_leak = 1.0 - np.abs(tr.r1) ** 2 - np.abs(tr.r2) ** 2 - tr.norm_defect
    assert len(tr.times) == n + 1
    assert float(np.max(np.abs(tr.r1 - r1))) < 1e-13
    assert float(np.max(np.abs(tr.r2 - r2))) < 1e-13
    assert float(np.max(np.abs(tr_leak - leak))) < 1e-13


# closed form against a coarse augmented run on random parameters: with
# dt = 2e-3 and tau = 50 N dt every drive window is 50 steps and the free
# segment 50 (N - 1); lam <= 5 keeps lam dt <= 0.01.  Over 200 random
# cases the worst free-segment gaps were 1.7e-7 (dd-finite) and 7.3e-10
# (dd), so each bound below leaves a margin of more than 5x.
_COARSE_DT = 2e-3


@settings(max_examples=20)
@given(lam=st.floats(0.5, 5.0),
       ratio=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0)),
       n_duty=st.integers(2, 10))
def test_closed_forms_match_coarse_oracle(lam, ratio, n_duty):
    p = ps.ModelParams.from_effective_rate(lam, ratio * lam / 2.0)
    assert p.branch in (ps.BRANCH_OVERDAMPED, ps.BRANCH_UNDERDAMPED)
    cfg = ps.OracleConfig(dt_num=_COARSE_DT, method_order=4,
                          history_mode=ps.EXACT_AUGMENTED)
    tau = 50 * n_duty * _COARSE_DT
    finite = ps.FinitePulseSchedule(tau, n_duty)
    tr = ps.integrate(p, finite, 3 * tau, cfg)
    gap = max(abs(complex(b2) - value) for b2, value, tag in
              zip(tr.beta2, *ps.finite_dd_survival(tr.times, finite, p))
              if tag == ps.FREE_SEGMENT)
    assert gap < 1e-6
    dd = ps.DdSchedule(tau)
    tr = ps.integrate(p, dd, 3 * tau, cfg)
    closed = np.array(ps.dd_survival(tr.times, dd, p))
    assert float(np.max(np.abs(tr.beta2 - closed))) < 5e-9


def _step_lists(runs):
    """The per-step lists that segment runs spell out: factors[k], the k of
    the segment that ends where step k starts (1 where none ends), and
    rates[k], the drive rate during step k."""
    factors, rates = [], []
    for _, count, rate, k in runs:
        factors += [k] + [1.0] * (count - 1)
        rates += [rate] * count
    return factors, rates


def _per_step(reference):
    # the reference backends below read the per-step lists
    def run(params, n, cfg, r1, r2, runs):
        return reference(params, n, cfg, r1, r2, *_step_lists(runs))
    return run


# the references below are the same discrete scheme as the backend,
# evaluated step by step in long double: the gap is the backend's own
# rounding, not the order of its operations
_LD, _CLD = np.longdouble, np.clongdouble


def _assert_same_run(tr, ref):
    # a per-step loop in float64 is up to 7.4e-15 off in r1 and r2 and
    # 1.7e-14 in the norm defect (10^4 Zeno steps), the backend at most
    # 4.3e-15 and 3.8e-15 (2 * 10^4 dd-finite steps): the bound admits both
    for name in ("r1", "r2", "beta2", "norm_defect"):
        err = float(np.max(np.abs(getattr(tr, name) - getattr(ref, name))))
        assert err <= 2e-14, (name, err)


def _two_dot_quadrature(params, n, cfg, r1_0, r2_0, factors, rates):
    # reference: the quadrature loop with the history dot product taken
    # afresh in the predictor and in the corrector of every step; pulses
    # only, no projection; in long double
    flips = [f == -1.0 for f in factors]
    dt = _LD(cfg.dt_num)
    w_sq = _LD(params.w_coupling) * _LD(params.w_coupling)
    al1, al2 = _LD(params.alpha1), _LD(params.alpha2)
    r1 = np.zeros(n + 1, dtype=_CLD)
    r2 = np.zeros(n + 1, dtype=_CLD)
    leak = np.zeros(n + 1, dtype=_LD)
    r1[0], r2[0] = r1_0, r2_0
    s_hist = np.zeros(n + 1, dtype=_CLD)
    s_hist[0] = al1 * r1[0] + al2 * r2[0]
    ker_rev = (w_sq * np.exp(-_LD(params.lam) * dt
                             * np.arange(n + 1)[::-1])).astype(_CLD)
    end_w = w_sq * dt / 2.0
    pulse = np.array(flips + [False])
    u = np.where(np.cumsum(pulse) % 2 == 1, -dt, dt)
    u[pulse] = 0.0
    u[0] = dt / 2.0
    ws = np.zeros(n + 1, dtype=_CLD)
    ws[0] = u[0] * s_hist[0]

    def history(j, rel, end_sign, s_end):
        if j == 0:
            return _CLD(0.0)
        return rel * (ker_rev[n - j:n] @ ws[:j]) + end_sign * end_w * s_end

    rel = 1.0
    for k in range(n):
        end_sign = 1.0
        if flips[k]:
            rel = -rel
            end_sign = -1.0
        phi = rates[k]
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
        driven = np.array([0.0] + rates)
        turn = 0.0
        for phi in set(rates) - {0.0}:
            turn = turn + 1j * phi * dt * np.cumsum(driven == phi)
        r1 = r1 * np.exp(turn)
        r2 = r2 * np.exp(turn)
    return ps.OracleTrace(r1, r2, leak, cfg.dt_num, params.basis_weights)


@pytest.mark.parametrize("sched", [
    None, ps.DdSchedule(TAU), ps.FinitePulseSchedule(0.2, 10),
], ids=["free", "dd", "dd-finite"])
def test_quadrature_reuses_history_bitwise(case1, monkeypatch, sched):
    # 2000 steps: dd flips every 500, dd-finite has 100-step windows
    cfg = ps.OracleConfig(dt_num=2e-4, method_order=2,
                          history_mode=ps.DIRECT_QUADRATURE)
    tr = ps.integrate(case1, sched, 0.4, cfg, state0=MIXED)
    monkeypatch.setattr(ps.oracle, "_run_quadrature",
                        _per_step(_two_dot_quadrature))
    ref = ps.integrate(case1, sched, 0.4, cfg, state0=MIXED)
    _assert_same_run(tr, ref)


def _numpy_scalar_quadrature(params, n, cfg, r1_0, r2_0, factors, rates):
    # reference: the quadrature loop as it stood when its step ran on numpy
    # scalars read out of the arrays, kept frozen and evaluated in long
    # double
    dt = _LD(cfg.dt_num)
    lam = _LD(params.lam)
    w_sq = _LD(params.w_coupling) * _LD(params.w_coupling)
    al1, al2 = _LD(params.alpha1), _LD(params.alpha2)
    r1 = np.zeros(n + 1, dtype=_CLD)
    r2 = np.zeros(n + 1, dtype=_CLD)
    leak = np.zeros(n + 1, dtype=_LD)
    r1[0], r2[0] = r1_0, r2_0
    s_hist = np.zeros(n + 1, dtype=_CLD)
    s_hist[0] = al1 * r1[0] + al2 * r2[0]
    nodes = np.arange(n + 1)
    # ker_rev[n - m] = W^2 e^{-lam m dt}, so ker_rev[n - j:n] lines up with
    # the past nodes 0..j-1 of an evaluation at node j
    ker_rev = (w_sq * np.exp(-lam * dt * nodes[::-1])).astype(_CLD)
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
    ws = np.zeros(n + 1, dtype=_CLD)
    ws[0] = u[0] * s_hist[0]
    fac, signs = fac.tolist(), signs.tolist()

    # trapezoidal quadrature of W^2 e^{-lam(t_j - k)} S(k) from the last
    # projection to t_j is one dot product over the past plus the endpoint
    # half weight; rel makes the current segment positive.  past is the
    # dot product at node k: the corrector of step k computes it for node
    # k + 1, and the predictor of step k + 1 reuses it
    past = _CLD(0.0)
    for k in range(n):
        rel = signs[k]
        if not fac[k]:
            start, past = k, _CLD(0.0)
        phi = rates[k]
        # Heun: predictor with left-endpoint history, corrector re-evaluates
        # the integral including the predicted endpoint
        hist0 = rel * past + fac[k] * end_w * s_hist[k]
        d1_0 = -1j * phi * r1[k] - al1 * hist0
        d2_0 = -1j * phi * r2[k] - al2 * hist0
        r1p = r1[k] + dt * d1_0
        r2p = r2[k] + dt * d2_0
        past = ker_rev[n - k - 1 + start:n] @ ws[start:k + 1]
        hist1 = rel * past + end_w * (al1 * r1p + al2 * r2p)
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

    return ps.OracleTrace(r1, r2, leak, cfg.dt_num, params.basis_weights)


# 10^4 steps for every schedule, 2 * 10^4 for dd-finite
@pytest.mark.parametrize("sched, t_max", [
    (None, 1.0), (ps.ZenoSchedule(TAU), 1.0), (ps.DdSchedule(TAU), 1.0),
    (ps.FinitePulseSchedule(FINITE_TAU, 10), 1.0),
    (ps.FinitePulseSchedule(FINITE_TAU, 10), 2.0),
], ids=["free", "zeno", "dd", "dd-finite", "dd-finite-2e4"])
@pytest.mark.parametrize("params", [
    ps.ModelParams.from_mode_splitting(2.0, 1.0),
    ps.ModelParams(2.0, 0.8, 0.9, 0.5),
], ids=["equal", "unequal"])
def test_quadrature_matches_numpy_scalar_loop_bitwise(monkeypatch, params,
                                                      sched, t_max):
    cfg = ps.OracleConfig(dt_num=1e-4, method_order=2,
                          history_mode=ps.DIRECT_QUADRATURE)
    state = ps.OddParityState.initial(0.6, 0.8j)
    tr = ps.integrate(params, sched, t_max, cfg, state0=state)
    monkeypatch.setattr(ps.oracle, "_run_quadrature",
                        _per_step(_numpy_scalar_quadrature))
    ref = ps.integrate(params, sched, t_max, cfg, state0=state)
    _assert_same_run(tr, ref)


def _leaf_history(history, restarts, ker):
    # the quadrature backend's split of the history sums over a given
    # history: node j sums ker[j - i] history[i] over the nodes i < j from
    # the last restart before j, its own leaf directly (here by one dot) and
    # the earlier leaves from far.
    # history[j] is NaN until node j is passed, so a sum that reads ahead
    # of its node turns NaN
    leaf, spread = ps.oracle._LEAF, ps.oracle._spread
    n = len(history)
    ws = np.full(n, complex(np.nan, np.nan))
    far = np.zeros(n, dtype=complex)
    near = ker[leaf:0:-1].astype(complex)
    sums = np.zeros(n, dtype=complex)
    spectra, top, start = {}, 0, 0
    ws[0] = history[0]
    for j in range(1, n):
        if j - 1 in restarts:
            far[j:top] = 0.0
            start = j - 1
        i = j - start
        p = i % leaf
        if not p:
            h = i & -i
            top = max(top, spread(far, ws, j, h, spectra,
                                  lambda length: ker[:length]))
        sums[j] = near[leaf - p:].dot(ws[j - p:j]) + far[j]
        ws[j] = history[j]
    return sums


@pytest.mark.parametrize("restarts", [
    {0},
    # a 1100-node segment, whose 1024-node block writes past its end, then
    # 63, 837 and 600 nodes: no restart on a leaf boundary
    {0, 1100, 1163, 2000},
], ids=["one-origin", "unaligned-restarts"])
@pytest.mark.parametrize("seed", [1, 2])
def test_history_convolution_matches_direct_sum(restarts, seed):
    rng = np.random.default_rng(seed)
    n = 2600
    history = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        * np.exp(rng.uniform(-3.0, 3.0, n))
    ker = 0.75 * np.exp(-2e-3 * np.arange(4096))
    sums = _leaf_history(history, restarts, ker)
    # the direct sum, and sum |K| |ws| that scales its rounding, per node
    exact = np.zeros(n, dtype=complex)
    scale = np.zeros(n)
    for j in range(1, n):
        lo = max(r for r in restarts if r < j)
        k = ker[j - lo:0:-1].astype(np.longdouble)
        exact[j] = complex(k @ history[lo:j].real.astype(np.longdouble),
                           k @ history[lo:j].imag.astype(np.longdouble))
        scale[j] = float(k @ np.abs(history[lo:j]))
    err = np.abs(sums - exact)[1:] / scale[1:]
    # measured at most 1.03 eps on these histories
    assert float(np.max(err)) <= 16 * np.finfo(float).eps


_LEAF = ps.oracle._LEAF
_LEAF_CYCLES = {
    # a projection every 300 steps: the block at 256 writes past it
    "projection-300": _on_cycle(0.03, ((0.03, 0.0, 0.0),)),
    # a pulse at 630 steps and a projection at 1100, so the 1024-step
    # block writes past the projection
    "pulse-630-projection-1100": _on_cycle(
        0.11, ((0.063, 0.0, -1.0), (0.047, 0.0, 0.0))),
}


def _piece_cycles():
    """Cycles whose segment ends fall inside a leaf, or on a leaf's first
    node: the quadrature backend solves a run's steps in pieces that end at
    the run's end and before each leaf's first node."""
    cycles = {}
    for where, steps in (("in-leaf", _LEAF // 2 + 7), ("on-edge", _LEAF)):
        period = steps * 1e-4
        cycles[f"pulse-{where}"] = _on_cycle(period, ((period, 0.0, -1.0),))
        # free, then a 56-step drive window
        cycles[f"drive-{where}"] = _on_cycle(period, (
            (period - 56e-4, 0.0, 1.0), (56e-4, 50 * math.pi, 1.0)))
        cycles[f"projection-{where}"] = _on_cycle(period,
                                                  ((period, 0.0, 0.0),))
    return cycles


_PIECE_CYCLES = _piece_cycles()


@pytest.mark.parametrize("sched, n", [
    *((None, n) for n in (_LEAF - 1, _LEAF, _LEAF + 1, _LEAF // 4, 1023,
                          1025, 4095, 4097)),
    (_LEAF_CYCLES["projection-300"], 1000),
    (_LEAF_CYCLES["pulse-630-projection-1100"], 3000),
    *((sched, 3 * _LEAF + 5) for sched in _PIECE_CYCLES.values()),
], ids=["free-leaf-1", "free-leaf", "free-leaf+1", "free-short",
        "free-1023", "free-1025", "free-4095", "free-4097", "projection-300",
        "pulse-630-projection-1100", *_PIECE_CYCLES])
def test_quadrature_leaf_edges_match_numpy_scalar_loop(case1, monkeypatch,
                                                       sched, n):
    # runs one short of, on and one past a leaf or a power of two, and one
    # shorter than a leaf; a pulse, a drive-rate change and a projection
    # inside a leaf and on a leaf's first node; projections that restart
    # the history off a leaf boundary; against the loop that sums the whole
    # past each step
    cfg = ps.OracleConfig(dt_num=1e-4, method_order=2,
                          history_mode=ps.DIRECT_QUADRATURE)
    state = ps.OddParityState.initial(0.6, 0.8j)
    tr = ps.integrate(case1, sched, n * 1e-4, cfg, state0=state)
    assert len(tr.times) == n + 1
    monkeypatch.setattr(ps.oracle, "_run_quadrature",
                        _per_step(_numpy_scalar_quadrature))
    ref = ps.integrate(case1, sched, n * 1e-4, cfg, state0=state)
    _assert_same_run(tr, ref)


def test_long_pulsed_quadrature_agrees_with_augmented(case1, cfg_aug,
                                                      cfg_quad):
    # 4 * 10^4 steps from one origin: the FFT blocks reach 32768 nodes
    sched = ps.DdSchedule(TAU)
    aug = ps.integrate_dd(case1, sched, 4.0, cfg_aug)
    quad = ps.integrate_dd(case1, sched, 4.0, cfg_quad)
    assert float(np.max(np.abs(aug.beta2 - quad.beta2))) < 5e-5


def _scalar_augmented(params, n, cfg, r1, r2, factors, rates):
    # reference: the augmented system stepped one RK4 or Heun step at a
    # time in Python scalars
    dt = cfg.dt_num
    w_sq = params.w_coupling * params.w_coupling
    al1, al2 = params.alpha1, params.alpha2
    c1, c2 = w_sq * al1, w_sq * al2
    h1 = h2 = 0.0j
    leak = 0.0
    r1s, r2s, leaks = [r1], [r2], [0.0]

    def rhs(v1, v2, g1, g2, pole):
        s = al1 * v1 + al2 * v2
        return (-g1, -g2, c1 * s - pole * g1, c2 * s - pole * g2,
                2.0 * (g1 * v1.conjugate() + g2 * v2.conjugate()).real)

    for k in range(n):
        h1 *= factors[k]
        h2 *= factors[k]
        pole = complex(params.lam, -rates[k] if rates[k] else 0.0)
        y = (r1, r2, h1, h2)
        a = rhs(*y, pole)
        if cfg.method_order == 4:
            b = rhs(*(v + dt / 2 * g for v, g in zip(y, a)), pole)
            c = rhs(*(v + dt / 2 * g for v, g in zip(y, b)), pole)
            d = rhs(*(v + dt * g for v, g in zip(y, c)), pole)
            inc = [dt / 6 * (p + 2 * q + 2 * u + w)
                   for p, q, u, w in zip(a, b, c, d)]
        else:
            b = rhs(*(v + dt * g for v, g in zip(y, a)), pole)
            inc = [dt / 2 * (p + q) for p, q in zip(a, b)]
        r1, r2, h1, h2 = (v + g for v, g in zip(y, inc))
        leak += inc[4]
        r1s.append(r1)
        r2s.append(r2)
        leaks.append(leak)
    return ps.OracleTrace(np.array(r1s), np.array(r2s), np.array(leaks), dt,
                          params.basis_weights)


_BRANCHES = {
    "overdamped": ps.ModelParams.from_mode_splitting(2.0, 1.0),
    "critical": ps.ModelParams.from_effective_rate(1.0, 0.5),
    "underdamped": ps.ModelParams.from_effective_rate(2.0, 3.0),
}


def _assert_matches_scalar(monkeypatch, params, sched, t_max, cfg):
    tr = ps.integrate(params, sched, t_max, cfg, state0=MIXED)
    monkeypatch.setattr(ps.oracle, "_run_augmented",
                        _per_step(_scalar_augmented))
    ref = ps.integrate(params, sched, t_max, cfg, state0=MIXED)
    for name in ("r1", "r2", "norm_defect"):
        err = float(np.max(np.abs(getattr(tr, name) - getattr(ref, name))))
        assert err < 1e-13, name


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("branch", sorted(_BRANCHES))
@pytest.mark.parametrize("sched", [
    None, ps.ZenoSchedule(TAU), ps.DdSchedule(TAU),
    ps.FinitePulseSchedule(0.2, 10),
    _on_cycle(2 * TAU, ((TAU, 0.0, -1.0), (TAU, 0.0, 0.0))),
], ids=["free", "zeno", "dd", "dd-finite", "pulse-then-projection"])
def test_augmented_step_map_matches_scalar_loop(monkeypatch, branch, order,
                                                sched):
    # 10^4 steps, cut into runs at every segment end and drive-rate change
    cfg = ps.OracleConfig(dt_num=1e-4, method_order=order)
    _assert_matches_scalar(monkeypatch, _BRANCHES[branch], sched, 1.0, cfg)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dt, t_max", [(1e-3, 0.937), (0.04, 1.0),
                                       (0.02, 1.0)],
                         ids=["937-steps", "25-steps", "50-steps"])
def test_augmented_short_runs_match_scalar_loop(case1, monkeypatch, order,
                                                dt, t_max):
    # run lengths that are not powers of two, and the convergence runs
    cfg = ps.OracleConfig(dt_num=dt, method_order=order)
    _assert_matches_scalar(monkeypatch, case1, None, t_max, cfg)


def test_augmented_rk4_at_rounding_level(case1, free_trace_aug,
                                         dd_trace_aug):
    # at dt = 1e-4 the RK4 truncation error is below rounding; advancing a
    # run by doubling keeps the rounding from growing with the step count
    closed_dd = np.array(ps.dd_survival(dd_trace_aug.times,
                                        ps.DdSchedule(TAU), case1))
    assert float(np.max(np.abs(free_trace_aug.beta2 - _closed_free(
        free_trace_aug.times, case1)))) < 5e-15
    assert float(np.max(np.abs(dd_trace_aug.beta2 - closed_dd))) < 5e-15


def test_underdamped_recursion_against_oracle(cfg_aug):
    p = ps.ModelParams.from_effective_rate(1.0, 2.0)
    sched = ps.DdSchedule(0.1)
    tr = ps.integrate_dd(p, sched, 0.5, cfg_aug)
    closed = np.array(ps.dd_survival(tr.times, sched, p))
    assert float(np.max(np.abs(tr.beta2 - closed))) < 1e-6


def _worst_free_segment_gap(params, sched, t_max):
    # closed form against the augmented integrator on free-segment samples
    cfg = ps.OracleConfig(dt_num=1e-4, method_order=4,
                          history_mode=ps.EXACT_AUGMENTED)
    tr = ps.integrate_finite(params, sched, t_max, cfg)
    closed, tags = ps.finite_dd_survival(tr.times, sched, params)
    return max(abs(complex(b2) - value)
               for b2, value, tag in zip(tr.beta2, closed, tags)
               if tag == ps.FREE_SEGMENT)


@pytest.mark.parametrize("lam, rate, branch", [
    (2.0, 1.0, ps.BRANCH_CRITICAL),
    (1.0, 2.0, ps.BRANCH_UNDERDAMPED),
], ids=["critical", "underdamped"])
def test_non_overdamped_branches_match_oracle(lam, rate, branch):
    p = ps.ModelParams.from_effective_rate(lam, rate)
    assert p.branch == branch
    sched = ps.FinitePulseSchedule(FINITE_TAU, 10)
    assert _worst_free_segment_gap(p, sched, 1.0) < 1e-8
    c = ps.finite_dd_coefficients(3, sched, p)
    assert math.isfinite(abs(c.a)) and math.isfinite(abs(c.b))


def test_degenerate_split_matches_oracle():
    # both characteristic roots nearly coincide (split root 1.5e-14); the
    # propagator's series form handles it without any linear solve
    p = ps.ModelParams.from_mode_splitting(1e-9, 1.5e-14)
    assert p.branch == ps.BRANCH_OVERDAMPED
    sched = ps.FinitePulseSchedule(FINITE_TAU, 10)
    assert _worst_free_segment_gap(p, sched, 1.0) < 1e-12
    c = ps.finite_dd_coefficients(1, sched, p)
    assert math.isfinite(abs(c.a)) and math.isfinite(abs(c.b))


# ---------------------------------------------------------------------------
# the real arithmetic of both backends against the complex arithmetic it
# replaced: a test-local copy of the quadrature's two-row transform, the
# quadrature forced to complex arithmetic, and the augmented leak's
# three-operand einsum

def _two_row_spread(far, ws, j, h, spectra, kernel):
    into = far[j:j + h]
    length = ps.oracle._fast_length(h + len(into))
    if length not in spectra:
        spectra[length] = np.fft.rfft(kernel(length))
    block = ws[j - h:j]
    sums = np.fft.rfft(np.stack((block.real, block.imag)), length)
    sums *= spectra[length]
    sums = np.fft.irfft(sums, length)[:, h:]
    into.real += sums[0, :len(into)]
    into.imag += sums[1, :len(into)]
    return j + len(into)


_EPS = np.finfo(float).eps
# the histories the quadrature sums meet: real (an undriven run from a real
# state holds it as float64), real or imaginary held as complex, complex,
# and all zero
_KINDS = {
    "real": lambda x, y: x,
    "real-as-complex": lambda x, y: x.astype(complex),
    "imaginary": lambda x, y: 1j * x,
    "complex": lambda x, y: x + 1j * y,
    "zero": lambda x, y: np.zeros(len(x), dtype=complex),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("j, h, n", [(256, 256, 2000), (1024, 1024, 1500),
                                     (512, 512, 800)],
                         ids=["full", "tail", "tail-short"])
def test_spread_in_parts_matches_two_row_spread(kind, j, h, n):
    # a complex history's real and imaginary parts are the rows of one
    # transform, a float64 history is its one row: each row's bits are
    # those of the two-row transform
    rng = np.random.default_rng(j + n)
    history = _KINDS[kind](*rng.standard_normal((2, j)))
    ws = np.zeros(n, dtype=history.dtype)
    ws[:j] = history
    ker = 0.75 * np.exp(-2e-3 * np.arange(4096))
    far = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if not np.iscomplexobj(ws):
        far = far.real.copy()
    want = far.astype(complex)
    top = ps.oracle._spread(far, ws, j, h, {}, lambda m: ker[:m])
    assert top == _two_row_spread(want, ws.astype(complex), j, h, {},
                                  lambda m: ker[:m])
    assert np.array_equal(far, want if np.iscomplexobj(far) else want.real)


_SCHEDULES = {"free": None, "zeno": ps.ZenoSchedule(TAU),
              "dd": ps.DdSchedule(TAU),
              "dd-finite": ps.FinitePulseSchedule(FINITE_TAU, 10)}


@pytest.mark.parametrize("state", [None, ps.OddParityState.initial(0.6, 0.8j)],
                         ids=["superradiant", "complex"])
@pytest.mark.parametrize("sched", sorted(_SCHEDULES))
@pytest.mark.parametrize("branch", sorted(_BRANCHES))
def test_quadrature_in_parts_matches_complex_arithmetic(monkeypatch, branch,
                                                        sched, state):
    # 10^4 steps, against the same run forced to complex arithmetic.
    # Undriven from a real state, the history is held as float64 and r1
    # and r2 keep their bits; any other run is complex already
    params, sched = _BRANCHES[branch], _SCHEDULES[sched]
    cfg = ps.OracleConfig(1e-4, 2, ps.DIRECT_QUADRATURE)
    tr = ps.integrate(params, sched, 1.0, cfg, state)
    monkeypatch.setattr(ps.oracle, "_history_dtype", lambda *args: complex)
    ref = ps.integrate(params, sched, 1.0, cfg, state)
    driven = sched is not None and any(
        rate for _, rate, _ in sched.cycle.segments)
    for name in ("r1", "r2"):
        got, want = getattr(tr, name), getattr(ref, name)
        if driven:
            # complex in both, so equal; part-wise sums moved them 9.4e-16
            assert float(np.max(np.abs(got - want))) <= 4e-15, name
        else:
            assert np.array_equal(got, want), name
    # a real history's leak rounds without the zero imaginary products;
    # measured at most 2.8e-17
    assert float(np.max(np.abs(tr.leak - ref.leak))) <= 1e-15


@pytest.mark.parametrize("sched, state, dtype", [
    (None, None, float), (ps.ZenoSchedule(TAU), MIXED, float),
    (ps.DdSchedule(TAU), ps.OddParityState.dark(), float),
    (ps.DdSchedule(TAU), ps.OddParityState.initial(0.6, 0.8j), complex),
    (ps.FinitePulseSchedule(FINITE_TAU, 10), None, complex),
], ids=["free", "zeno-mixed", "dd-dark", "dd-complex", "dd-finite"])
def test_quadrature_history_is_real_when_undriven_from_a_real_state(
        case1, cfg_quad, monkeypatch, sched, state, dtype):
    # the history's dtype is decided once a run, and every transform of its
    # 2000 steps reads and writes that dtype; dd-finite drives from 0.18 on
    spread, seen = ps.oracle._spread, set()

    def spy(far, ws, *args):
        seen.add((far.dtype, ws.dtype))
        return spread(far, ws, *args)
    monkeypatch.setattr(ps.oracle, "_spread", spy)
    ps.integrate(case1, sched, 0.2, cfg_quad, state)
    assert seen == {(np.dtype(dtype), np.dtype(dtype))}


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("branch", sorted(_BRANCHES))
def test_augmented_leak_matches_three_operand_einsum(branch, order):
    # 5000 rows: a block of _LEAK_ROWS and a shorter one
    rng = np.random.default_rng(order)
    d, q = ps.oracle._step_map(_BRANCHES[branch], 1e-3, order, 30.0)
    run = np.zeros((5001, 4), dtype=complex)
    run[0] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    leak = np.empty(5000)
    ps.oracle._advance(run, d, q, leak)
    rows = run[:-1]
    want = np.einsum("ij,jk,ik->i", rows.conj(), q, rows).real
    # both ways round a sum of real products; measured at most 2.8 eps of
    # the sum of their moduli apart
    scale = np.einsum("ij,jk,ik->i", abs(rows), abs(q), abs(rows))
    assert ps.oracle._LEAK_ROWS < len(leak)
    assert np.all(np.abs(leak - want) <= 8 * _EPS * scale)
