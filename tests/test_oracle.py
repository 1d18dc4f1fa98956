from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parityshield as ps

TAU = 0.1

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
    closed = ps.survival(tr.times, sched, params)
    return max(abs(complex(b2) - value)
               for b2, (value, tag) in zip(tr.beta2, closed)
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
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(method_order=3)
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(history_mode="spline")
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(history_mode=ps.DIRECT_QUADRATURE, method_order=4)


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
    gap = max(abs(complex(b2) - value) for b2, (value, tag) in
              zip(tr.beta2, ps.finite_dd_survival(tr.times, finite, p))
              if tag == ps.FREE_SEGMENT)
    assert gap < 1e-6
    dd = ps.DdSchedule(tau)
    tr = ps.integrate(p, dd, 3 * tau, cfg)
    closed = np.array(ps.dd_survival(tr.times, dd, p))
    assert float(np.max(np.abs(tr.beta2 - closed))) < 5e-9


def _two_dot_quadrature(params, n, cfg, r1_0, r2_0, factors, rates):
    # reference: the quadrature loop with the history dot product taken
    # afresh in the predictor and in the corrector of every step; pulses
    # only, no projection
    from parityshield.oracle import _make_trace
    flips = [f == -1.0 for f in factors]
    dt = cfg.dt_num
    w_sq = params.w_coupling * params.w_coupling
    al1, al2 = params.alpha1, params.alpha2
    r1 = np.zeros(n + 1, dtype=complex)
    r2 = np.zeros(n + 1, dtype=complex)
    leak = np.zeros(n + 1)
    r1[0], r2[0] = r1_0, r2_0
    s_hist = np.zeros(n + 1, dtype=complex)
    s_hist[0] = al1 * r1_0 + al2 * r2_0
    ker_rev = (w_sq * np.exp(-params.lam * dt
                             * np.arange(n + 1)[::-1])).astype(complex)
    end_w = w_sq * dt / 2.0
    pulse = np.array(flips + [False])
    u = np.where(np.cumsum(pulse) % 2 == 1, -dt, dt)
    u[pulse] = 0.0
    u[0] = dt / 2.0
    ws = np.zeros(n + 1, dtype=complex)
    ws[0] = u[0] * s_hist[0]

    def history(j, rel, end_sign, s_end):
        if j == 0:
            return 0.0j
        return complex(rel * (ker_rev[n - j:n] @ ws[:j])
                       + end_sign * end_w * s_end)

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
    return _make_trace(params, dt, r1, r2, leak)


@pytest.mark.parametrize("sched", [
    None, ps.DdSchedule(TAU), ps.FinitePulseSchedule(0.2, 10),
], ids=["free", "dd", "dd-finite"])
def test_quadrature_reuses_history_bitwise(case1, monkeypatch, sched):
    # 2000 steps: dd flips every 500, dd-finite has 100-step windows
    cfg = ps.OracleConfig(dt_num=2e-4, method_order=2,
                          history_mode=ps.DIRECT_QUADRATURE)
    tr = ps.integrate(case1, sched, 0.4, cfg, state0=MIXED)
    monkeypatch.setattr(ps.oracle, "_run_quadrature", _two_dot_quadrature)
    ref = ps.integrate(case1, sched, 0.4, cfg, state0=MIXED)
    for name in ("r1", "r2", "beta2", "norm_defect"):
        assert np.array_equal(getattr(tr, name), getattr(ref, name)), name


def _scalar_augmented(params, n, cfg, r1, r2, factors, rates):
    # reference: the augmented system stepped one RK4 or Heun step at a
    # time in Python scalars
    from parityshield.oracle import _make_trace
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
    return _make_trace(params, dt, np.array(r1s), np.array(r2s),
                       np.array(leaks))


_BRANCHES = {
    "overdamped": ps.ModelParams.from_mode_splitting(2.0, 1.0),
    "critical": ps.ModelParams.from_effective_rate(1.0, 0.5),
    "underdamped": ps.ModelParams.from_effective_rate(2.0, 3.0),
}


def _assert_matches_scalar(monkeypatch, params, sched, t_max, cfg):
    tr = ps.integrate(params, sched, t_max, cfg, state0=MIXED)
    monkeypatch.setattr(ps.oracle, "_run_augmented", _scalar_augmented)
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
