from __future__ import annotations

import cmath
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parityshield as ps
from parityshield import transfer

DD = ps.DdSchedule(0.1)
ZENO = ps.ZenoSchedule(0.1)
FINITE = ps.FinitePulseSchedule(0.2, 10)
STATE = ps.OddParityState.superradiant()
_P = ps.ModelParams.from_mode_splitting(2.0, 1.0)

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
# cells: one cell alone gives the bits it gives inside a batch of cells, one
# record and one schedule whose fields are per-cell arrays

def _column(records):
    """One record whose cells are the given records (symmetric weights).
    A cell's omega may be an ulp off its record's, as from_mode_splitting
    keeps the caller's, but no closed form reads it."""
    lam, w_coupling = (np.array([getattr(p, name) for p in records])
                       for name in ("lam", "w_coupling"))
    return ps.ModelParams(lam, w_coupling, math.sqrt(0.5), math.sqrt(0.5))


def _pulse_then_projection(tau, n_duty):
    return SimpleNamespace(cycle=transfer.Cycle(
        2 * tau, ((tau, 0.0, -1.0), (tau, 0.0, 0.0))))


# schedule kind -> schedule of one cell from its interval and duty parameter
SCHEDULES = {
    "free": lambda tau, n_duty: None,
    "zeno": lambda tau, n_duty: ps.ZenoSchedule(tau),
    "dd": lambda tau, n_duty: ps.DdSchedule(tau),
    "dd-finite": ps.FinitePulseSchedule,
    "pulse-projection": _pulse_then_projection,
}


@st.composite
def cells(draw):
    """(params, tau, n_duty, t): a damping branch, the split-form region
    (lam = 5000) or the series region (nearly degenerate split root)."""
    region = draw(st.sampled_from(
        ["overdamped", "critical", "underdamped", "split", "series"]))
    lam = draw(st.floats(0.1, 10.0))
    if region == "split":
        params = ps.ModelParams.from_mode_splitting(
            5000.0, draw(st.floats(100.0, 4900.0)))
    elif region == "series":
        params = ps.ModelParams.from_mode_splitting(1e-9, 1.5e-14)
    else:
        ratio = {"overdamped": draw(st.floats(0.05, 0.95)), "critical": 1.0,
                 "underdamped": draw(st.floats(1.05, 5.0))}[region]
        params = ps.ModelParams.from_effective_rate(lam, ratio * lam / 2.0)
    return (params, draw(st.floats(0.02, 2.0)), draw(st.integers(2, 50)),
            draw(st.floats(0.0, 50.0)))


# every public entry, as a function of (schedule, params); free decay's
# take params only
_ENTRIES = {
    "survival": lambda sched, p: ps.survival([1.0, 1.0], sched, p),
    "fidelity": lambda sched, p: ps.fidelity(STATE, [1.0, 1.0], sched, p),
    "coefficients": lambda sched, p: ps.coefficients(1, sched, p),
}
_FREE_ENTRIES = {
    "free_survival": lambda p: ps.free_survival([1.0, 1.0], p),
    "free_survival_slope": lambda p: ps.free_survival_slope([1.0, 1.0], p),
    "free_fidelity": lambda p: ps.free_fidelity(STATE, [1.0, 1.0], p),
    "free_coefficients": lambda p: ps.coefficients(0, None, p),
}


@pytest.mark.parametrize("sched", ["dd(0.1)", 3.0, [DD, DD], (DD, DD), []],
                         ids=["descriptor", "number", "list", "tuple",
                              "empty-list"])
@pytest.mark.parametrize("name", sorted(_ENTRIES))
def test_what_is_not_a_schedule_is_refused(name, sched, case1):
    # these raised a raw AttributeError, and a list was read as a batch
    with pytest.raises(ps.ParameterError, match=r"^sched must be None or a "
                       r"schedule, a batch one of per-cell arrays; got \w+$"):
        _ENTRIES[name](sched, [case1, case1] if isinstance(sched, list)
                       else case1)


@pytest.mark.parametrize("params", ["x", 3.0, None, [_P, _P], (_P, _P)],
                         ids=["text", "number", "none", "list", "tuple"])
@pytest.mark.parametrize("name", sorted({*_ENTRIES, *_FREE_ENTRIES}))
def test_what_is_not_a_record_is_refused(name, params):
    with pytest.raises(ps.ParameterError, match=r"^params must be a "
                       r"ModelParams, a batch one of per-cell arrays; got "):
        if name in _ENTRIES:
            _ENTRIES[name](DD, params)
        else:
            _FREE_ENTRIES[name](params)


@given(kind=st.sampled_from(sorted(SCHEDULES)), cell=cells(),
       others=st.lists(cells(), max_size=6), data=st.data())
def test_cell_alone_equals_cell_in_batch(kind, cell, others, data):
    at = data.draw(st.integers(0, len(others)))
    batch = [*others[:at], cell, *others[at:]]
    schedule = SCHEDULES[kind]
    params = _column([p for p, *_ in batch])
    taus, n_duties = (np.array(column) for column in list(zip(*batch))[1:3])
    scheds = schedule(taus, n_duties)
    times = [t for *_, t in batch]
    p, tau, n_duty, t = cell
    state = ps.OddParityState.initial(0.6, 0.8)
    for name, closed_form in (
            ("survival", ps.survival),
            ("fidelity", lambda *args: ps.fidelity(state, *args))):
        alone = closed_form(t, schedule(tau, n_duty), p)
        inside = closed_form(times, scheds, params)
        assert len(inside) == len(batch), name
        # repr tells every bit of a float apart, signed zeros included
        assert repr(inside[at]) == repr(alone), name


@given(parts=st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
def test_cycle_products_round_as_python(parts):
    # the cycle matrix and its squarings round as Python's complex product;
    # numpy's array loop fuses one real product of each into a multiply-add
    a, b = complex(*parts[:2]), complex(*parts[2:])
    got = transfer._cmul(np.array([a, b]), np.array([b, b]))
    assert [repr(complex(v)) for v in got] == [repr(a * b), repr(b * b)]


def test_mixed_branch_batch_raises_no_warning():
    # the critical cell has split root 0; the cosh/sinh and split forms
    # divide by it only where their branch owns the entry, which it never
    # does for that cell
    params = ps.ModelParams.from_effective_rate(
        2.0, np.array([0.8, 1.0, 1.7, 1.0]))
    times = [0.05, 0.3, 7.3, 13.1]
    state = ps.OddParityState.initial(0.6, 0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, schedule in SCHEDULES.items():
            scheds = schedule(np.full(4, 0.2), np.full(4, 10))
            for value in (*ps.survival(times, scheds, params),
                          *ps.fidelity(state, times, scheds, params)):
                assert np.all(np.isfinite(value[0] if isinstance(
                    value, tuple) else value)), kind


def test_finished_cell_stops_squaring():
    # x' doubles at each cycle end, so the first cell's cycle matrix grows
    # about 2x per cycle; the second cell decays, and its m = 10**5 needs
    # 16 squarings.  The first cell's m = 3 is done after one, and its
    # matrix squared 16 times would overflow.
    cycle = transfer.Cycle(0.1, ((0.1, 0.0, 2.0),))
    lams = [0.01, 50.0]
    params = ps.ModelParams.from_effective_rate(np.array(lams), 1.0)
    times = [0.35, 1e4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = transfer.evaluate(times, params, cycle, _survival)
    alone = [transfer.evaluate(t, ps.ModelParams.from_effective_rate(lam, 1.0),
                               cycle, _survival)
             for t, lam in zip(times, lams)]
    assert repr(batch) == repr(alone)
    assert all(math.isfinite(abs(x)) for x in batch)


def test_batch_needs_one_kind_and_one_cycle_per_params(case1):
    # a batch is one record and one schedule (one kind) whose per-cell
    # fields have the times' shape, one time per cell; held fields are
    # one number for every cell
    two = _column([case1, case1])
    dd2 = ps.DdSchedule(np.array([0.1, 0.1]))
    for t, sched, params in [([1.0, 1.0, 1.0], dd2, two),
                             ([1.0, 1.0, 1.0], dd2, case1),
                             ([1.0, 1.0, 1.0], DD, two),
                             (1.0, dd2, two),
                             (1.0, DD, two),
                             ([1.0, 1.0], ps.DdSchedule(np.full(3, 0.1)),
                              two),
                             ([[1.0, 1.0]], dd2, two),
                             ([1.0], ps.DdSchedule(np.array([])),
                              _column([]))]:
        for call in (lambda: ps.survival(t, sched, params),
                     lambda: ps.fidelity(STATE, t, sched, params)):
            with pytest.raises(ps.ParameterError, match="times' shape"):
                call()
    with pytest.raises(ps.ParameterError, match="times' shape"):
        ps.coefficients(1, dd2, case1)
    with pytest.raises(ps.ParameterError, match="times' shape"):
        ps.coefficients(1, DD, two)
    # a batch's held fields and per-cell ones give each cell its own bits
    assert ps.survival([1.0, 0.5], dd2, case1) == ps.survival(
        [1.0, 0.5], DD, two) == ps.survival([1.0, 0.5], DD, case1)


def test_time_errors_name_one_cell(case1):
    # one cell names its latest time; a batch its first cell in error
    with pytest.raises(ps.ParameterError, match=r"of 1e-300, got 3\.0$"):
        ps.dd_survival([1.0, 3.0, 2.0], ps.DdSchedule(1e-300), case1)
    with pytest.raises(ps.ParameterError, match=r"of 1e-300, got 1\.0$"):
        ps.dd_survival([1.0, math.inf],
                       ps.DdSchedule(np.array([1e-300, 0.5])), case1)
    with pytest.raises(ps.ParameterError, match=r"of 2e-300, got 1\.0$"):
        ps.dd_survival([1.0, 1.0, math.inf],
                       ps.DdSchedule(np.array([0.5, 2e-300, 1e-300])), case1)
    with pytest.raises(ps.ParameterError, match=r"nonnegative, got -1\.0$"):
        ps.dd_survival([1.0, -1.0, 1.0],
                       ps.DdSchedule(np.array([0.5, 0.5, 1e-300])), case1)
    # a batch of per-cell rates and a held period names its first cell too
    with pytest.raises(ps.ParameterError, match=r"of 1e-300, got 1\.0$"):
        ps.dd_survival([1.0, 3.0], ps.DdSchedule(1e-300),
                       _column([case1, case1]))


def test_drive_rate_overflowing_the_split_rejected(case1):
    # (lam - i 10 pi / 1e-300)^2 is past the float range: refused at every
    # time, t = 0 and no time at all included, and a batch names its first
    # cell in error
    sched = ps.FinitePulseSchedule(1e-300, 10)
    for t in (0.0, 1e-299, [0.0, 1e-299], []):
        with pytest.raises(ps.ParameterError,
                           match=r"^drive rate 3\.141592653589793e\+301 "):
            ps.fidelity(STATE, t, sched, case1)
    with pytest.raises(ps.ParameterError,
                       match=r"^drive rate 3\.14\d*e\+302 "):
        ps.survival([0.0] * 3, ps.FinitePulseSchedule(
            np.array([0.2, 1e-301, 1e-300]), np.full(3, 10)), case1)
    with pytest.raises(ps.ParameterError, match="^drive rate"):
        ps.coefficients(0, sched, case1)


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
    # an ndarray of times gives arrays, each value bit-equal to its call at
    # one float, and a driven protocol a (values, tags) tuple of them; a
    # list of times still gives a list (of pairs)
    times = np.array([0.7, 0.05, 0.33, 0.19])
    ones = times.tolist()
    values = ps.dd_fidelity(STATE, times, DD, case1)
    assert isinstance(values, np.ndarray) and values.dtype == np.float64
    assert values.tolist() == [ps.dd_fidelity(STATE, t, DD, case1)
                               for t in ones]
    assert ps.dd_fidelity(STATE, ones, DD, case1) == values.tolist()
    for closed_form in (ps.finite_dd_fidelity, ps.finite_dd_survival):
        args = (STATE,) if closed_form is ps.finite_dd_fidelity else ()
        values, tags = closed_form(*args, times, FINITE, case1)
        pairs = [closed_form(*args, t, FINITE, case1) for t in ones]
        assert isinstance(values, np.ndarray) and isinstance(tags, np.ndarray)
        assert values.tolist() == [value for value, _ in pairs]
        assert tags.tolist() == [tag for _, tag in pairs] == [
            ps.FREE_SEGMENT] * 3 + [ps.IN_PULSE_SEGMENT]
        assert closed_form(*args, ones, FINITE, case1) == pairs
    tagged = ps.finite_dd_fidelity(STATE, ones, FINITE, case1)
    assert [type(v) for pair in tagged for v in pair] == [float, str] * 4


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


_FAR_TIMES = [2.0 ** 40 + 0.5, 2.0 ** 49 + 0.75, 2.0 ** 51 + 0.5, 2.0 ** 52,
              2.0 ** 53]


def test_far_times_land_in_their_cycle():
    # a fuzz of 4 eps q on q = t / period put times from about 2**49 cycles
    # on into a later cycle: 2**52 was read as cycle 2**52 + 4
    whole = [math.floor(t) for t in _FAR_TIMES]
    into = [t - m for t, m in zip(_FAR_TIMES, whole)]
    sched = ps.FinitePulseSchedule(1.0, 10)
    assert [sched.segment_of(t) for t in _FAR_TIMES] == [
        (ps.FREE_SEGMENT, m, s) for m, s in zip(whole, into)]
    m, theta = transfer._positions(np.array(_FAR_TIMES), np.ones(5))
    assert m.tolist() == whole and theta.tolist() == into
    # 2**51 + 0.5 was read as a cycle start, x = 1
    p = ps.ModelParams.from_effective_rate(1e-17, 1.0)
    alone = [ps.dd_survival(t, ps.DdSchedule(1.0), p) for t in _FAR_TIMES]
    assert alone[2] == ps.dd_survival(2.0 ** 20 + 0.5, ps.DdSchedule(1.0),
                                      p) == 0.8775825618903728
    batch = ps.dd_survival(np.array(_FAR_TIMES), ps.DdSchedule(np.ones(5)),
                           ps.ModelParams.from_effective_rate(
                               np.full(5, 1e-17), np.ones(5)))
    assert batch.tolist() == alone


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


@pytest.mark.parametrize("t", [
    1j, np.array([1j]), [np.complex128(1j)], np.array([0.5 + 0j]),
    [[0.1], [0.1, 0.2]], "a",
], ids=["complex", "complex-array", "complex-scalars", "real-as-complex",
        "ragged", "text"])
@pytest.mark.parametrize("entry", [
    lambda t, p: ps.survival(t, None, p),
    lambda t, p: ps.fidelity(STATE, t, FINITE, p),
    lambda t, p: ps.free_survival_slope(t, p),
    lambda t, p: FINITE.segment_of(t),
], ids=["survival", "fidelity", "free-slope", "segment-of"])
def test_what_numpy_cannot_read_as_times_is_refused(case1, entry, t):
    # numpy's raw TypeError or ValueError escaped from the conversion
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ps.ParameterError, match=r"^time must be a real "
                           r"number or a sequence or array of them, of one "
                           rf"shape; got {type(t).__name__}$"):
            entry(t, case1)


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


# ---------------------------------------------------------------------------
# owned-entry evaluation against the masked evaluation it replaced: each
# branch and segment once ran on every entry under a mask; a test-local copy
# of that code must give the same bits

def _on(own, f, *z):
    return f(*z, out=np.zeros(np.shape(z[0]), complex), where=own)


def _masked_propagator(lam_c, r_sq):
    omega = np.sqrt(transfer._cmul(lam_c, lam_c) - 4.0 * r_sq)

    def series(s, h, own):
        u = np.multiply(h, h)
        damp = _on(own, np.exp, -lam_c / 2.0 * s)
        return (np.multiply(damp, 1.0 + np.multiply(u / 2.0, 1.0 + u / 12.0)),
                np.multiply(damp * (s / 2.0),
                            1.0 + np.multiply(u / 6.0, 1.0 + u / 20.0)))

    def split(s, h, own):
        def decay(z):
            return _on(own & (np.isfinite(z) | ~(z.real < -746.0)), np.exp, z)
        em = decay(-(lam_c - omega) / 2.0 * s)
        ep = decay(-(lam_c + omega) / 2.0 * s)
        return (em + ep) / 2.0, _on(own, np.divide, em - ep, 2.0 * omega)

    def middle(s, h, own):
        damp = _on(own, np.exp, -lam_c / 2.0 * s)
        return (np.multiply(damp, _on(own, np.cosh, h)), _on(
            own, np.divide, np.multiply(damp, _on(own, np.sinh, h)), omega))

    def matrix(s, own=True):
        s = np.where(own, s, 0.0)
        with transfer._overflow_to_inf(s >= 2.0 ** 511):
            h = omega / 2.0 * s
            near = own & (np.abs(h) <= _SERIES)
            far = own & ~near & (lam_c.real * s > _SPLIT)
            ch = sn = 0.0
            for branch, terms in ((near, series), (far, split),
                                  (own & ~(near | far), middle)):
                if np.count_nonzero(branch):
                    c, n = terms(np.where(branch, s, 0.0),
                                 np.where(branch, h, 0.0), branch)
                    ch, sn = np.where(branch, c, ch), np.where(branch, n, sn)
        lam_sn = np.multiply(lam_c, sn)
        return ch + lam_sn, 2.0 * sn, -2.0 * r_sq * sn, ch - lam_sn
    return matrix


def _masked_apply(e, x, xd, own):
    e00, e01, e10, e11 = e
    return (np.where(own, np.multiply(e00, x) + np.multiply(e01, xd), x),
            np.where(own, np.multiply(e10, x) + np.multiply(e11, xd), xd))


def _reference_product(a, b):
    """The per-entry 2x2 product, each entry a sum of two _cmul products."""
    return [transfer._cmul(a[i], b[j]) + transfer._cmul(a[i + 1], b[j + 2])
            for i in (0, 2) for j in (0, 1)]


def _masked_cycle_matrix(segments):
    whole, c = [], (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
    for length, matrix, k in segments:
        e00, e01, e10, e11 = matrix(length)
        whole.append((e00, e01, k * e10, k * e11))
        c = _reference_product(whole[-1], c)
    return whole, c


def _masked_powers(m, c):
    which = ...
    if np.ndim(m) and not np.ndim(c[0]):
        m, which = np.unique(m, return_inverse=True)
    x, xd = np.ones(np.shape(m), complex), np.zeros(np.shape(m), complex)
    while np.count_nonzero(m):
        x, xd = _masked_apply(c, x, xd, m % 2.0 == 1.0)
        m = m // 2.0
        live = [np.where(m > 0.0, e, 0.0) for e in c] if np.ndim(c[0]) else c
        c = _reference_product(live, live) if np.count_nonzero(m) else c
    return x[which], xd[which]


def _masked_state(t, params, cycle):
    """(x, x', segment index, time into it), every segment masked."""
    ts = np.array(t, dtype=float)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transfer, "propagator", _masked_propagator)
        period, segments = transfer._segments(params, cycle, ts.shape)
    m, theta = transfer._positions(ts, period)
    if period is None:
        x, xd = np.ones(ts.shape, complex), np.zeros(ts.shape, complex)
    else:
        whole, c = _masked_cycle_matrix(segments)
        x, xd = _masked_powers(m, c)
    k = np.zeros(ts.shape, int)
    for j, (length, _, _) in enumerate(segments[:-1]):
        later = (k == j) & transfer._past(theta, length, period)
        x, xd = _masked_apply(whole[j], x, xd, later)
        theta = np.where(later, theta - length, theta)
        k = np.where(later, j + 1, k)
    for j, (length, matrix, end) in enumerate(segments):
        own = k == j
        x, xd = _masked_apply(matrix(theta, own), x, xd, own)
        if j < len(segments) - 1 and end != 1.0:
            xd = np.where(own & (theta >= length - _FUZZ * period),
                          end * xd, xd)
    return x, xd, k, theta


def _same_bits(got, want) -> bool:
    """Equal dtypes and bytes, so signed zeros and NaNs count too."""
    got, want = (np.atleast_1d(np.asarray(a)) for a in (got, want))
    return got.dtype == want.dtype and np.array_equal(
        got.view(np.uint8), want.view(np.uint8))


# every float, signed zeros and infinities included, and NaN as an invalid
# operation makes it.  Of two NaN operands, numpy's float and complex add
# loops keep the first's or the second's payload by loop and length (a
# length-1 complex add differs from a length-7 one), so no product fixes a
# payload; repr and the CSV write every NaN as nan.
_PARTS = st.one_of(st.floats(-1e6, 1e6), st.floats(width=64, allow_nan=False),
                   st.sampled_from([0.0, -0.0, math.inf - math.inf]))


def _entries(shape):
    """Four complex entries of the shape, real and imaginary parts drawn."""
    size = math.prod(shape)
    cells = st.lists(_PARTS, min_size=2 * size, max_size=2 * size)

    def entry(values):
        e = np.empty(shape, complex)
        e.real, e.imag = (np.reshape(values[k::2], shape) for k in (0, 1))
        return e
    return st.lists(cells.map(entry), min_size=4, max_size=4)


@given(data=st.data(), shape=st.sampled_from([(), (1,), (7,)]))
@np.errstate(all="ignore")  # inf and NaN parts overflow and 0 * inf
def test_product_has_the_bits_of_the_per_entry_product(data, shape):
    # each entry's parts are read once, and a squaring forms a01 a10 once;
    # both must give the bits of two _cmul products summed per entry
    a, b = (data.draw(_entries(shape)) for _ in range(2))
    for left, right in ((a, b), (a, a)):
        assert all(map(_same_bits, transfer._product(left, right),
                       _reference_product(left, right)))


@pytest.mark.parametrize("lams, times", [
    ([0.01, 0.01, 50.0, 50.0], [0.05, 0.35, 4.05, 1000.05]),
    ([0.01, 50.0], [0.05, 1000.05]),
], ids=["three-bits", "one-done-before"])
def test_cells_finishing_at_different_bits_match_each_alone(lams, times):
    # m = 0, 3, 40 and 10**4 need 0, 2, 6 and 14 bits.  The growing cells
    # (x' doubles at each cycle end) finish first, and their matrix squared
    # on would overflow; one done before the first bit must be zeroed
    # although no other cell finishes for 13 squarings
    cycle = transfer.Cycle(0.1, ((0.1, 0.0, 2.0),))
    params = ps.ModelParams.from_effective_rate(np.array(lams), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = transfer.evaluate(times, params, cycle, lambda *a: a[:2])
        alone = [transfer.evaluate(t, ps.ModelParams.from_effective_rate(
            lam, 1.0), cycle, lambda *a: a[:2]) for t, lam in zip(times, lams)]
        # as the masked reference squares them
        _assert_matches_masked(np.array(times), params, cycle)
    assert repr(batch) == repr(alone)


# R / lam on each damping branch: lam^2 - 4 R^2 positive, zero, negative
_R_PER_LAM = st.one_of(st.floats(0.05, 0.45), st.just(0.5),
                       st.floats(0.55, 25.0))


@st.composite
def _cycle_cells(draw):
    """(lam, R, tau, m) of a cell on any damping branch, at a scale from
    1e-150 to 1e150 (the values depend on lam tau, R tau and m only), after
    a few cycles or up to 2**53."""
    scale = 10.0 ** draw(st.floats(-150.0, 150.0))
    lam = scale * draw(st.floats(0.1, 10.0))
    return (lam, lam * draw(_R_PER_LAM), draw(st.floats(1e-2, 1e2)) / scale,
            float(draw(st.one_of(st.integers(0, 70), st.integers(0, 2**53)))))


def _same_but_zero_signs(got, want) -> bool:
    """The real-cycle rule of _powers: every nonzero real part has want's
    bits, a zero either sign, and every imaginary part is +0.0."""
    nonzero = want.real != 0.0
    return (_same_bits(got.imag.copy(), np.zeros(got.shape))
            and not np.count_nonzero(want.imag)
            and _same_bits(got.real[nonzero], want.real[nonzero])
            and not np.count_nonzero(got.real[~nonzero]))


# about one example in twenty flips a zero's sign
@settings(max_examples=300)
@given(kind=st.sampled_from(["zeno", "dd", "dd-finite"]),
       cells=st.lists(_cycle_cells(), min_size=1, max_size=6),
       batch=st.booleans())
def test_powers_match_the_complex_reference(kind, cells, batch):
    # a batch's cells finish at different bits; one cell takes many m.
    # Undriven cycles square in float64 and keep every nonzero bit of the
    # complex squaring; a driven one squares in complex128, bit for bit
    lam, r_rate, tau, m = (np.array(column) for column in zip(*cells))
    if not batch:
        lam, r_rate, tau = lam[0], r_rate[0], tau[0]
    params = ps.ModelParams.from_effective_rate(lam, r_rate)
    cycle = SCHEDULES[kind](tau, np.full(np.shape(tau), 10)).cycle
    _, segments = transfer._segments(params, cycle, np.shape(tau))
    got = transfer._powers(m, transfer._cycle_matrix(segments)[1])
    want = _masked_powers(m, _masked_cycle_matrix(segments)[1])
    for g, w in zip(got, want):
        # no Zeno or dd power leaves the float range, where the complex
        # product would give NaN for inf
        assert np.all(np.isfinite(w))
        assert (_same_bits(g, w) if kind == "dd-finite"
                else _same_but_zero_signs(g, w))


def test_zeno_projection_zero_takes_the_sign_of_the_real_products():
    # the projection k = 0 makes x' an exact zero at every cycle start; on
    # this underdamped cell, after three cycles, the float64 products give
    # -0.0 where the complex ones gave +0.0
    params = ps.ModelParams.from_effective_rate(2.0, 4.0)
    cycle = ps.ZenoSchedule(0.5).cycle
    x, xd = transfer.cycle_start(3, params, cycle)
    _, segments = transfer._segments(params, cycle)
    want = _masked_powers(np.array(3.0), _masked_cycle_matrix(segments)[1])
    assert repr((x, xd)) == repr((complex(want[0]), complex(-0.0, 0.0)))
    assert repr(complex(want[1])) == "0j"


@pytest.mark.parametrize("kind, dtype", [("zeno", float), ("dd", float),
                                         ("dd-finite", complex)])
def test_squarings_take_the_dtype_of_the_cycle(kind, dtype, case1,
                                               monkeypatch):
    # an undriven cycle's matrix is real on every branch, so its squarings
    # need no imaginary parts; a driven one's are complex
    squarings = []
    product = transfer._product

    def recorded(a, b):
        if b is a:
            squarings.append(np.asarray(a[0]).dtype)
        return product(a, b)
    monkeypatch.setattr(transfer, "_product", recorded)
    times = [0.05, 3.05, 40.0]
    ps.fidelity(STATE, times, SCHEDULES[kind](0.1, 10), case1)
    ps.survival(times, SCHEDULES[kind](np.full(3, 0.1), np.full(3, 10)),
                _column([case1] * 3))
    assert squarings and set(squarings) == {np.dtype(dtype)}


def _assert_matches_masked(t, params, cycle):
    got = transfer.evaluate(t, params, cycle, lambda *state: state)
    want = _masked_state(t, params, cycle)
    for name, g, w in zip(("x", "x'", "segment", "into"), got, want):
        assert _same_bits(g, w), (name, t)


# damping branch -> (params, times): the series region (a nearly degenerate
# split root), the split form (lam s past the threshold) and cosh/sinh on
# both sides of critical damping
_REGIONS = {
    "overdamped": (ps.ModelParams.from_effective_rate(2.0, 0.8), 3.7),
    "critical": (ps.ModelParams.from_effective_rate(2.0, 1.0), 3.7),
    "underdamped": (ps.ModelParams.from_effective_rate(2.0, 1.7), 3.7),
    "series": (ps.ModelParams.from_mode_splitting(1e-9, 1.5e-14), 3.7),
    "split": (ps.ModelParams.from_mode_splitting(5000.0, 4000.0), 1.3),
}


def _times(t_max, tau=0.2):
    """Uniform samples, cycle starts, and window edges (free length 0.9 tau
    at N = 10; 0.45 and 0.55 tau in window-mid) with their +-1e-9."""
    edges = [m * tau + f * tau for m in range(int(t_max / tau))
             for f in (0.0, 0.45, 0.55, 0.9)]
    return np.array([0.0, *np.linspace(0.0, t_max, 97), 1e-9, *edges,
                     *(e + d for e in edges[1:] for d in (-1e-9, 1e-9))])


@pytest.mark.parametrize("protocol", ["free", "zeno", "dd", "finite",
                                      "mixed", "window-mid"])
@pytest.mark.parametrize("region", sorted(_REGIONS))
def test_owned_entries_match_masked_evaluation(region, protocol):
    params, t_max = _REGIONS[region]
    cycle = _cycles(0.2)[protocol]
    times = _times(t_max)
    _assert_matches_masked(times, params, cycle)
    for t in times[::7].tolist():
        _assert_matches_masked(t, params, cycle)


def test_owned_entries_match_masked_evaluation_in_a_batch():
    # per-cell constants are gathered with the times' index
    regions = sorted(_REGIONS) * 6
    params = _column([_REGIONS[region][0] for region in regions])
    taus = 0.1 + 0.01 * np.arange(len(regions))
    # in the free part, the window and the second segment, and on edges
    into = np.resize([0.3, 0.95, 1.5, 0.0, 0.9, 1.0], len(regions)) * taus
    times = (np.arange(len(regions)) % 4) * 2.0 * taus + into + np.resize(
        [0.0, 0.0, 0.0, 0.0, 1e-9, -1e-9, 1e-9], len(regions))
    for kind, schedule in SCHEDULES.items():
        cycle = (s := schedule(taus, np.full(len(taus), 10))) and s.cycle
        segments = transfer.evaluate(times, params, cycle, lambda *a: a)[2]
        assert len(set(segments.tolist())) == (1 if kind in (
            "free", "zeno", "dd") else 2), kind
        _assert_matches_masked(times, params, cycle)


def test_propagator_branches_match_masked_ones():
    # one array reaching all three branches, for one cell, for per-cell
    # constants, and for the cells at an index
    s = np.array([0.0, 1e-9, 1e-6, 0.5, 3.0, 299.0, 301.0, 1e3, 2.0 ** 520])
    lam_c = np.array([complex(2.0, -rate) for rate in range(len(s))])
    one, cells = ((transfer.propagator(*args), _masked_propagator(*args))
                  for args in ((2.0 + 0.0j, 0.36), (lam_c, 0.36 + 0 * s)))
    for new, old in (one, cells):
        assert all(map(_same_bits, new(s), old(s)))
    for t in s.tolist():
        assert all(map(_same_bits, one[0](t), one[1](t))), t
    own = (s > 1e-7) & (s < 1e3)
    at = np.nonzero(own)
    assert all(_same_bits(got, want[at]) for got, want in zip(
        cells[0](s[at], at), cells[1](s, own)))


# ---------------------------------------------------------------------------
# one cell's array of times: E once per distinct time into each segment

def _scenario(schedules, t_max, **rate):
    return ps.build_scenario("custom", {"schedules": schedules,
                                        "t_max": t_max, **rate})


@pytest.mark.parametrize("protocol", ["zeno", "dd", "finite", "mixed",
                                      "window-mid"])
@pytest.mark.parametrize("rate", [{"omega": "1.0"}, {"omega": "0"},
                                  {"r_rate": "1.7"}],
                         ids=["overdamped", "critical", "underdamped"])
def test_array_equals_scalar_where_offsets_repeat(rate, protocol):
    # a dense grid folds onto few times into each segment; the entries
    # gathered back to the times that share one give each its scalar bits
    cfg = _scenario("zeno(0.1)|dd(0.1)|dd-finite(0.1,10)", "4", **rate)
    grid, cycle = ps.time_grid(cfg), _cycles(0.1)[protocol]
    got = transfer.evaluate(grid, cfg.params, cycle, lambda *a: a)
    _, back, count = np.unique(got[3], return_inverse=True,
                               return_counts=True)
    shared = np.flatnonzero(count[back] > 1)
    assert len(shared) > len(grid) / 2
    for i in np.union1d(shared[::len(shared) // 200],
                        np.arange(0, len(grid), 97)).tolist():
        alone = transfer.evaluate(grid[i].item(), cfg.params, cycle,
                                  lambda *a: a)
        assert repr(alone) == repr(tuple(a[i].item() for a in got)), i


def test_each_segment_evaluates_its_distinct_offsets_once(monkeypatch):
    # per propagator (one per segment), the size of each duration array
    # its matrix is given
    sizes = []
    real = transfer.propagator

    def counted(lam_c, r_sq):
        matrix, calls = real(lam_c, r_sq), []
        sizes.append(calls)

        def recorded(s, *at):
            calls.append(np.size(s))
            return matrix(s, *at)
        return recorded

    # trace-long's schedules
    cfg = _scenario("none|zeno(0.1)|dd(0.1)|dd-finite(0.2,10)|"
                    "dd-finite(0.2,20)", "20")
    grid = ps.time_grid(cfg)
    for sched in cfg.schedules:
        cycle = sched and sched.cycle
        _, _, k, into = transfer.evaluate(grid, cfg.params, cycle,
                                          lambda *a: a)
        with monkeypatch.context() as patch:
            patch.setattr(transfer, "propagator", counted)
            sizes.clear()
            ps.fidelity(STATE, grid, sched, cfg.params)
        for j, calls in enumerate(sizes):
            # the cycle matrix's map over the whole segment is one more
            distinct = np.unique(into[k == j]).size + (cycle is not None)
            assert sum(calls) <= distinct, (sched, j, calls, distinct)
    monkeypatch.setattr(transfer, "propagator", counted)
    sizes.clear()
    ps.compute_trace(cfg)
    assert sum(map(sum, sizes)) <= 50_000
    # a batch of cells and a single time take every entry as it is
    sizes.clear()
    transfer.evaluate([0.05, 0.05, 0.15], cfg.params,
                      ps.DdSchedule(np.full(3, 0.1)).cycle, _survival)
    transfer.evaluate(0.05, cfg.params, DD.cycle, _survival)
    assert sizes == [[3, 3], [1, 1]]


@pytest.mark.parametrize("cycle, message", [
    (lambda: (0.1, ((0.1, 0.0, -1.0),)), r"^a cycle must be None or a Cycle; "
     r"got tuple$"),
    (lambda: ps.model.Cycle(0.1, ()), r"^a cycle needs at least one segment$"),
], ids=["tuple", "empty"])
@pytest.mark.parametrize("entry", [
    lambda p, cycle: transfer.evaluate(1.0, p, cycle, lambda x, *_: x),
    lambda p, cycle: transfer.evaluate([0.5, 1.0], p, cycle,
                                       lambda x, *_: x),
    lambda p, cycle: transfer.cycle_start(2, p, cycle),
], ids=["evaluate", "evaluate-times", "cycle-start"])
def test_module_level_entries_refuse_what_is_not_a_cycle(case1, entry, cycle,
                                                         message):
    # these names take a cycle, not a schedule: a tuple raised a raw
    # AttributeError, and an empty Cycle, once evaluated as x = 1 at every
    # time, is refused when built, before any entry sees it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ps.ParameterError, match=message):
            entry(case1, cycle())
