from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import parityshield as ps
from parityshield import transfer

DD = ps.DdSchedule(0.1)
ZENO = ps.ZenoSchedule(0.1)
FINITE = ps.FinitePulseSchedule(0.2, 10)
STATE = ps.OddParityState.superradiant()

# every public closed form, as a function of (t, params)
CLOSED_FORMS = {
    "free_survival": ps.free_survival,
    "free_survival_slope": ps.free_survival_slope,
    "free_fidelity": lambda t, p: ps.free_fidelity(STATE, t, p),
    "zeno_amplitude": lambda t, p: ps.zeno_amplitude(t, ZENO, p),
    "zeno_fidelity": lambda t, p: ps.zeno_fidelity(STATE, t, ZENO, p),
    "dd_survival": lambda t, p: ps.dd_survival(t, DD, p),
    "dd_fidelity": lambda t, p: ps.dd_fidelity(STATE, t, DD, p),
    "finite_dd_survival": lambda t, p: ps.finite_dd_survival(t, FINITE, p),
    "finite_dd_fidelity":
        lambda t, p: ps.finite_dd_fidelity(STATE, t, FINITE, p),
    "segment_of": lambda t, p: FINITE.segment_of(t),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.5],
                         ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_bad_time_rejected(name, t, case1):
    with pytest.raises(ps.ParameterError):
        CLOSED_FORMS[name](t, case1)


@pytest.mark.parametrize("name", sorted(set(CLOSED_FORMS) - {"segment_of"}))
def test_bad_time_rejected_inside_sequence(name, case1):
    with pytest.raises(ps.ParameterError):
        CLOSED_FORMS[name]([0.5, math.nan, 0.7], case1)


def test_sequence_keeps_input_order(case1):
    times = [0.7, 0.05, 0.33, 0.05]
    assert ps.dd_survival(times, DD, case1) == [
        ps.dd_survival(t, DD, case1) for t in times]


def test_fidelity_capped_at_one_near_degenerate_split():
    # nearly coincident roots and almost no decay: inside a drive window
    # the propagated overlap used to round up to 1.0000000000000002
    p = ps.ModelParams.from_mode_splitting(1e-9, 1.5e-14)
    times = [0.187, 0.188, 0.1925, 0.196, 0.387]
    for value, _ in ps.finite_dd_fidelity(STATE, times, FINITE, p):
        assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# properties over random parameters on all three damping branches

@st.composite
def model_params(draw):
    lam = draw(st.floats(0.1, 10.0))
    ratio = draw(st.one_of(st.floats(0.05, 0.95), st.just(1.0),
                           st.floats(1.05, 5.0)))
    return ps.ModelParams.from_effective_rate(lam, ratio * lam / 2.0)


def _protocols(tau, n_duty):
    dd = ps.DdSchedule(tau)
    zeno = ps.ZenoSchedule(tau)
    finite = ps.FinitePulseSchedule(tau, n_duty)
    return {
        "free": lambda s, t, p: ps.free_fidelity(s, t, p),
        "zeno": lambda s, t, p: ps.zeno_fidelity(s, t, zeno, p),
        "dd": lambda s, t, p: ps.dd_fidelity(s, t, dd, p),
        "finite": lambda s, t, p: ps.finite_dd_fidelity(s, t, finite, p),
    }


def _value(result):
    # finite_dd_fidelity tags its values with the segment
    return result[0] if isinstance(result, tuple) else result


protocol_args = dict(
    params=model_params(),
    tau=st.floats(0.02, 1.0),
    n_duty=st.integers(2, 50),
    times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
)


@given(angle=st.floats(0.0, math.pi / 2.0), **protocol_args)
def test_fidelity_in_unit_interval(params, tau, n_duty, times, angle):
    state = ps.OddParityState.initial(math.cos(angle), math.sin(angle))
    for name, fidelity in _protocols(tau, n_duty).items():
        for result in fidelity(state, times, params):
            assert 0.0 <= _value(result) <= 1.0, name


@given(**protocol_args)
def test_dark_state_fidelity_is_one(params, tau, n_duty, times):
    dark = ps.OddParityState.dark()
    for name, fidelity in _protocols(tau, n_duty).items():
        for result in fidelity(dark, times, params):
            assert _value(result) == 1.0, name


@given(**protocol_args)
def test_sequence_equals_scalar(params, tau, n_duty, times):
    state = ps.OddParityState.initial(0.6, 0.8)
    for name, fidelity in _protocols(tau, n_duty).items():
        assert fidelity(state, times, params) == [
            fidelity(state, t, params) for t in times], name


# ---------------------------------------------------------------------------
# the array evaluator against the per-time cmath walker it replaced

_SPLIT, _SERIES, _FUZZ = 600.0, 1e-4, 1e-12


def _walker_propagator(lam_c, r_sq):
    omega = cmath.sqrt(lam_c * lam_c - 4.0 * r_sq)

    def step(x, xd, s):
        h = omega * s / 2.0
        if abs(h) <= _SERIES:
            u = h * h
            damp = cmath.exp(-lam_c * s / 2.0)
            ch = damp * (1.0 + u / 2.0 * (1.0 + u / 12.0))
            sn = damp * s / 2.0 * (1.0 + u / 6.0 * (1.0 + u / 20.0))
        elif lam_c.real * s > _SPLIT:
            em = cmath.exp(-(lam_c - omega) * s / 2.0)
            ep = cmath.exp(-(lam_c + omega) * s / 2.0)
            ch = (em + ep) / 2.0
            sn = (em - ep) / (2.0 * omega)
        else:
            damp = cmath.exp(-lam_c * s / 2.0)
            ch = damp * cmath.cosh(h)
            sn = damp * cmath.sinh(h) / omega
        return (ch * x + (2.0 * xd + lam_c * x) * sn,
                ch * xd - (lam_c * xd + 2.0 * r_sq * x) * sn)
    return step


def _walker_steps(params, cycle):
    r_sq = params.r_rate ** 2
    segments = ((math.inf, 0.0, 1.0),) if cycle is None else cycle.segments
    return [(length, _walker_propagator(complex(params.lam, -rate), r_sq), k)
            for length, rate, k in segments]


def _walker_matrix(steps):
    columns = []
    for x, xd in ((1.0, 0.0), (0.0, 1.0)):
        for length, step, k in steps:
            x, xd = step(x, xd, length)
            xd = k * xd
        columns.append((x, xd))
    (c00, c10), (c01, c11) = columns
    return c00, c01, c10, c11


def _walk(times, params, cycle):
    """(x, x', segment index) per time: cycle starts stepped one by one."""
    steps = _walker_steps(params, cycle)
    if cycle is not None:
        c00, c01, c10, c11 = _walker_matrix(steps)
    out = {}
    done, x0, xd0 = 0, 1.0, 0.0
    for t in sorted(times):
        if cycle is None:
            m, theta = 0, t
        else:
            m = int(math.floor(t / cycle.period + _FUZZ))
            theta = max(t - m * cycle.period, 0.0)
        while done < m:
            x0, xd0 = c00 * x0 + c01 * xd0, c10 * x0 + c11 * xd0
            done += 1
        x, xd, k = x0, xd0, 0
        while (k < len(steps) - 1
               and theta > steps[k][0] + _FUZZ * cycle.period):
            x, xd = steps[k][1](x, xd, steps[k][0])
            xd = steps[k][2] * xd
            theta -= steps[k][0]
            k += 1
        x, xd = steps[k][1](x, xd, theta)
        # on an inner segment end, x' after the end's map, as on a cycle end
        if (k < len(steps) - 1
                and theta >= steps[k][0] - _FUZZ * cycle.period):
            xd = steps[k][2] * xd
        out[t] = (x, xd, k)
    return [out[t] for t in times]


def _state(x, xd, k, theta):
    return x, xd, k


def _survival(x, *_):
    return x


def _assert_matches_walker(times, params, cycle, tol=1e-12):
    got = transfer.evaluate(times, params, cycle, _state)
    want = _walk(times, params, cycle)
    for t, (x, xd, k), (x_ref, xd_ref, k_ref) in zip(times, got, want):
        assert k == k_ref, t
        assert abs(x - x_ref) <= tol, (t, x, x_ref)
        assert abs(xd - xd_ref) <= tol * max(1.0, abs(xd_ref)), (t, xd, xd_ref)


def _cycles(tau):
    return {"free": None,
            "zeno": ps.ZenoSchedule(tau).cycle,
            "dd": ps.DdSchedule(tau).cycle,
            "finite": ps.FinitePulseSchedule(tau, 10).cycle,
            # a pulse, then a projection: one end map per segment
            "mixed": transfer.Cycle(2 * tau, ((tau, 0.0, -1.0),
                                              (tau, 0.0, 0.0))),
            "window-mid": _window_mid(tau)}


def _window_mid(tau):
    """free, a window of rate * duration = pi, free: no schedule class."""
    return transfer.Cycle(tau, ((0.45 * tau, 0.0, 1.0),
                                (0.1 * tau, math.pi / (0.1 * tau), 1.0),
                                (0.45 * tau, 0.0, 1.0)))


@pytest.mark.parametrize("protocol", ["free", "zeno", "dd", "finite",
                                      "mixed", "window-mid"])
@pytest.mark.parametrize("rate", [0.8, 1.0, 1.7],
                         ids=["overdamped", "critical", "underdamped"])
def test_matches_walker_on_every_branch(rate, protocol):
    p = ps.ModelParams.from_effective_rate(2.0, rate)
    times = [0.0, *(0.0253 * j for j in range(1, 400)), 3.7, 0.6, 1e-3]
    _assert_matches_walker(times, p, _cycles(0.2)[protocol])


def test_matches_walker_in_split_form_region():
    p = ps.ModelParams.from_mode_splitting(5000.0, 4000.0)
    cycle = ps.FinitePulseSchedule(1.0, 10).cycle
    times = [0.01 * j for j in range(501)] + [0.9 - 1e-9, 0.9 + 1e-9]
    _assert_matches_walker(times, p, cycle)
    _assert_matches_walker(times, p, None)


def test_matches_walker_in_series_region():
    p = ps.ModelParams.from_mode_splitting(1e-9, 1.5e-14)
    times = [0.0037 * j for j in range(271)]
    for cycle in _cycles(0.2).values():
        _assert_matches_walker(times, p, cycle)


def test_matches_walker_at_window_edges(case1):
    sched = ps.FinitePulseSchedule(0.2, 10)
    times = [edge + d for m in range(25)
             for edge in (m * 0.2 + sched.free_length, (m + 1) * 0.2)
             for d in (-1e-9, 0.0, 1e-9)]
    _assert_matches_walker(times, case1, sched.cycle)


@pytest.mark.parametrize("protocol", ["zeno", "dd", "finite", "mixed",
                                      "window-mid"])
def test_matches_walker_after_many_cycles(case1, protocol):
    cycle = _cycles(0.1)[protocol]
    times = [0.1 * m + 0.05 for m in (0, 1, 99, 1000, 4321, 9999)]
    _assert_matches_walker(times, case1, cycle)


@pytest.mark.parametrize("protocol", ["zeno", "dd", "finite", "mixed",
                                      "window-mid"])
def test_cycle_start_matches_sequential_stepping(case1, protocol):
    cycle = _cycles(0.1)[protocol]
    c00, c01, c10, c11 = _walker_matrix(_walker_steps(case1, cycle))
    checkpoints = {0, 1, 2, 3, 7, 64, 100, 1234, 10000}
    x, xd = 1.0, 0.0
    for m in range(max(checkpoints) + 1):
        if m in checkpoints:
            got = transfer.cycle_start(m, case1, cycle)
            assert abs(got[0] - x) <= 1e-12, m
            assert abs(got[1] - xd) <= 1e-12 * max(1.0, abs(xd)), m
        x, xd = c00 * x + c01 * xd, c10 * x + c11 * xd


def test_two_pulse_cycle_equals_dd(case1):
    # value and slope: on a pulse, between two segments or at the end of a
    # cycle, the slope is the one after the pulse
    twice = transfer.Cycle(0.2, ((0.1, 0.0, -1.0), (0.1, 0.0, -1.0)))
    times = [0.0137 * j for j in range(800)] + [0.1, 0.2, 0.3, 7.0]
    got = transfer.evaluate(times, case1, twice, _state)
    want = transfer.evaluate(times, case1, ps.DdSchedule(0.1).cycle, _state)
    for t, (x, xd, _), (x_ref, xd_ref, _) in zip(times, got, want):
        assert abs(x - x_ref) <= 1e-12, t
        assert abs(xd - xd_ref) <= 1e-12, t


def test_window_mid_tags_and_phase(case1):
    # the general entries read the protocol from the cycle alone: a drive
    # window that is not the last segment needs no schedule class
    cycle = _window_mid(0.2)
    sched = SimpleNamespace(cycle=cycle)
    rate = cycle.segments[1][1]
    state = ps.OddParityState.initial(0.6, 0.8)
    w1, w2 = abs(state.beta1) ** 2, abs(state.beta2) ** 2
    times = [0.2 * m + d for m in (0, 1, 7, 40)
             for d in (0.03, 0.095, 0.1, 0.105, 0.15)]
    xs = transfer.evaluate(times, case1, cycle, _survival)
    amps = ps.survival(times, sched, case1)
    fids = ps.fidelity(state, times, sched, case1)
    for t, x, (amp, tag), (fid, fid_tag) in zip(times, xs, amps, fids):
        into = t % 0.2 - 0.09
        window = 0.0 < into < 0.02
        assert tag == fid_tag == (ps.IN_PULSE_SEGMENT if window
                                  else ps.FREE_SEGMENT), t
        want = x * cmath.exp(-1j * rate * into) if window else x
        assert abs(amp - want) <= 1e-12, t
        assert abs(fid - abs(w1 + w2 * x)) <= 1e-12, t
    # coefficients are complex for a driven cycle, real otherwise
    assert isinstance(ps.coefficients(3, sched, case1).a, complex)
    assert isinstance(ps.coefficients(3, DD, case1).a, float)


def test_free_decay_is_schedule_none(case1):
    times = [0.0, 0.3, 1.7]
    assert ps.survival(times, None, case1) == ps.free_survival(times, case1)
    assert ps.fidelity(STATE, times, None, case1) == ps.free_fidelity(
        STATE, times, case1)
    c = ps.coefficients(0, None, case1)
    assert (c.a, c.b, c.m) == (1.0, case1.lam / case1.omega, 0)
    with pytest.raises(ps.ParameterError):
        ps.coefficients(1, None, case1)


def test_per_protocol_names_are_the_general_entries():
    for names, general in (
            (("zeno_amplitude", "dd_survival", "finite_dd_survival"),
             ps.survival),
            (("zeno_fidelity", "dd_fidelity", "finite_dd_fidelity"),
             ps.fidelity),
            (("dd_coefficients", "finite_dd_coefficients"),
             ps.coefficients)):
        for name in names:
            assert getattr(ps, name) is general, name
            assert getattr(transfer, name) is general, name


def test_empty_sequence_gives_empty_list(case1):
    for name in sorted(set(CLOSED_FORMS) - {"segment_of"}):
        assert CLOSED_FORMS[name]([], case1) == [], name


def test_ndarray_input(case1):
    times = np.array([0.7, 0.05, 0.33])
    assert ps.dd_fidelity(STATE, times, DD, case1) == [
        ps.dd_fidelity(STATE, float(t), DD, case1) for t in times]
    tagged = ps.finite_dd_fidelity(STATE, times, FINITE, case1)
    assert [type(v) for pair in tagged for v in pair] == [float, str] * 3


def test_more_than_2_53_cycles_rejected(case1):
    # t / period would overflow to inf and the binary powers never end
    with pytest.raises(ps.ParameterError):
        ps.dd_survival(1e300, ps.DdSchedule(1e-10), case1)


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.2, 0.25, 0.3])
def test_cycle_start_instants_in_their_cycle(tau):
    # m * tau / tau is off by about m ulps: every cycle start must still
    # land in cycle m, and an instant 1e-9 earlier in cycle m - 1
    m = np.arange(1.0, 3e6, 997.0)
    starts, _ = transfer._positions(m * tau, tau)
    before, _ = transfer._positions(m * tau - 1e-9, tau)
    assert np.array_equal(starts, m) and np.array_equal(before, m - 1.0)


def test_far_cycle_start_is_free(case1):
    sched = ps.FinitePulseSchedule(0.1, 10)
    t = 20481 * 0.1
    assert sched.segment_of(t) == (ps.FREE_SEGMENT, 20481, 0.0)
    at, tag = ps.finite_dd_survival(t, sched, case1)
    later, _ = ps.finite_dd_survival(t + 1e-9, sched, case1)
    assert tag == ps.FREE_SEGMENT and abs(at - later) < 1e-6


def test_nan_inside_ndarray_rejected(case1):
    with pytest.raises(ps.ParameterError):
        ps.dd_survival(np.array([0.5, np.nan, 0.7]), DD, case1)


# ---------------------------------------------------------------------------
# continuity: across window edges and across the critical branch

@given(params=model_params(), tau=st.floats(0.02, 1.0),
       n_duty=st.integers(2, 50), m=st.integers(0, 40),
       closing=st.booleans())
def test_fidelity_continuous_at_window_edges(params, tau, n_duty, m,
                                             closing):
    # a mixed state, so the drive phase inside a window reaches the overlap
    state = ps.OddParityState.initial(0.6, 0.8)
    sched = ps.FinitePulseSchedule(tau, n_duty)
    edge = m * tau + (tau if closing else sched.free_length)
    (lo, _), (hi, _) = ps.finite_dd_fidelity(state, [edge - 1e-9, edge + 1e-9],
                                             sched, params)
    assert abs(hi - lo) <= 1e-6


@given(lam=st.floats(0.1, 10.0), t=st.floats(0.0, 10.0),
       tau=st.floats(0.02, 1.0), n_duty=st.integers(2, 50))
def test_fidelity_continuous_across_critical_branch(lam, t, tau, n_duty):
    below = ps.ModelParams.from_effective_rate(lam, lam / 2.0 * (1 - 1e-9))
    at = ps.ModelParams.from_effective_rate(lam, lam / 2.0)
    above = ps.ModelParams.from_effective_rate(lam, lam / 2.0 * (1 + 1e-9))
    assert (below.branch, at.branch, above.branch) == (
        ps.BRANCH_OVERDAMPED, ps.BRANCH_CRITICAL, ps.BRANCH_UNDERDAMPED)
    for name, fidelity in _protocols(tau, n_duty).items():
        values = [_value(fidelity(STATE, t, p)) for p in (below, at, above)]
        assert max(values) - min(values) <= 1e-6, name
