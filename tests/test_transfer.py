from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import parityshield as ps

DD = ps.DdSchedule(0.1)
ZENO = ps.ZenoSchedule(0.1)
FINITE = ps.FinitePulseSchedule(0.2, 10)
STATE = ps.OddParityState.superradiant()

# every public closed form, as a function of (t, params)
CLOSED_FORMS = {
    "free_survival": ps.free_survival,
    "free_survival_slope": ps.free_survival_slope,
    "free_fidelity": lambda t, p: ps.free_fidelity(STATE, t, p),
    "free_evolve": lambda t, p: ps.free_evolve(STATE, t, p),
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


@pytest.mark.parametrize("name", sorted(set(CLOSED_FORMS)
                                        - {"free_evolve", "segment_of"}))
def test_bad_time_rejected_inside_sequence(name, case1):
    with pytest.raises(ps.ParameterError):
        CLOSED_FORMS[name]([0.5, math.nan, 0.7], case1)


def test_sequence_keeps_input_order(case1):
    times = [0.7, 0.05, 0.33, 0.05]
    assert ps.dd_survival(times, DD, case1) == [
        ps.dd_survival(t, DD, case1) for t in times]


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
            assert 0.0 <= _value(result) <= 1.0 + 1e-12, name


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
