from __future__ import annotations

import cmath
import math
import warnings

import pytest

import parityshield as ps

# frozen survival amplitude after ten pulse intervals
XI_1 = 0.9971493266340058

FINITE_TAU = 0.2


def test_zeno_fidelity_mixes_dark_weight(case1):
    sched = ps.ZenoSchedule(0.1)
    state = ps.OddParityState.initial(math.sqrt(0.5), math.sqrt(0.5))
    amp = ps.zeno_amplitude(1.0, sched, case1)
    assert ps.zeno_fidelity(state, 1.0, sched, case1) == pytest.approx(
        0.5 + 0.5 * amp, abs=1e-14)


def test_dd_fidelity_mixes_dark_weight(case1, dd_sched):
    state = ps.OddParityState.initial(0.6, 0.8)
    f = ps.dd_fidelity(state, 1.0, dd_sched, case1)
    assert f == pytest.approx(0.36 + 0.64 * XI_1, abs=1e-13)


def test_window_edge_modulus_continuity(case1, sched10):
    state = ps.OddParityState.superradiant()
    eps = 1e-9
    for edge in (0.18, 0.2, 0.38, 0.4):
        lo = ps.finite_dd_fidelity(state, edge - eps, sched10, case1)[0]
        hi = ps.finite_dd_fidelity(state, edge + eps, sched10, case1)[0]
        assert hi == pytest.approx(lo, abs=1e-7)


def test_in_window_phase_is_common_mode(case1, sched10):
    # the drive rotates the whole single-excitation sector together, so
    # the overlap modulus equals the drive-frame expression with the
    # in-window phase stripped from the returned amplitude
    state = ps.OddParityState.initial(0.6, 0.8)
    value, tag = ps.finite_dd_survival(0.19, sched10, case1)
    assert tag == ps.IN_PULSE_SEGMENT
    f = ps.finite_dd_fidelity(state, 0.19, sched10, case1)[0]
    into = 0.19 - sched10.free_length
    phase = cmath.exp(-1j * sched10.phase_rate * into)
    assert abs(phase) == pytest.approx(1.0, abs=1e-15)
    assert f == pytest.approx(abs(0.36 * phase + 0.64 * value), abs=1e-12)
    assert f == pytest.approx(abs(0.36 + 0.64 * value / phase), abs=1e-12)


def test_dark_state_unaffected(case1, sched10):
    dark = ps.OddParityState.dark()
    for t in (0.1, 0.19, 0.5, 1.0):
        f, _ = ps.finite_dd_fidelity(dark, t, sched10, case1)
        assert f == pytest.approx(1.0, abs=1e-14)


def test_terminal_values_approach_instantaneous_from_above(case1):
    state = ps.OddParityState.superradiant()
    inst = abs(ps.dd_survival(1.0, ps.DdSchedule(FINITE_TAU), case1))
    devs = []
    prev = None
    for n in (10, 20, 40, 80):
        f = ps.finite_dd_fidelity(state, 1.0,
                                  ps.FinitePulseSchedule(FINITE_TAU, n), case1)[0]
        # shorter windows protect slightly better than the instantaneous
        # limit here: the detuned drive suppresses the exchange during the
        # window, so the approach to the limit is from above
        assert f > inst
        if prev is not None:
            assert f < prev
        prev = f
        devs.append(f - inst)
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_large_duty_parameter_reaches_instantaneous_limit(case1):
    state = ps.OddParityState.superradiant()
    sched = ps.FinitePulseSchedule(FINITE_TAU, 10000)
    for t in (0.3, 0.63, 1.0):
        if sched.segment_of(t)[0] != ps.FREE_SEGMENT:
            continue
        inst = abs(ps.dd_survival(t, ps.DdSchedule(FINITE_TAU), case1))
        f = ps.finite_dd_fidelity(state, t, sched, case1)[0]
        assert f == pytest.approx(inst, abs=1e-3)


def test_large_rates_stay_in_unit_interval():
    # lam * tau far past the overflow point of cosh on the free segment
    p = ps.ModelParams.from_mode_splitting(5000.0, 4000.0)
    sched = ps.FinitePulseSchedule(1.0, 10)
    state = ps.OddParityState.superradiant()
    times = [0.5, 0.95, 1.0, 2.5, 3.93]
    for f, _ in ps.finite_dd_fidelity(state, times, sched, p):
        assert 0.0 <= f <= 1.0
    f, tag = ps.finite_dd_fidelity(state, 0.95, sched, p)
    assert tag == ps.IN_PULSE_SEGMENT and 0.0 <= f <= 1.0


@pytest.mark.parametrize("state0", ["x", None, (0.6, 0.8)],
                         ids=["text", "none", "tuple"])
@pytest.mark.parametrize("entry", [
    lambda s, p: ps.fidelity(s, 1.0, ps.DdSchedule(0.1), p),
    lambda s, p: ps.free_fidelity(s, 1.0, p),
    lambda s, p: ps.zeno_fidelity(s, 1.0, ps.ZenoSchedule(0.1), p),
    lambda s, p: ps.dd_fidelity(s, [0.5, 1.0], ps.DdSchedule(0.1), p),
    lambda s, p: ps.finite_dd_fidelity(s, 1.0, ps.FinitePulseSchedule(
        0.2, 10), p),
], ids=["fidelity", "free", "zeno", "dd", "finite"])
def test_fidelity_needs_a_state(case1, entry, state0):
    # a raw AttributeError escaped: 'str' object has no attribute 'beta1'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ps.ParameterError, match=r"^state0 must be an "
                           rf"OddParityState; got {type(state0).__name__}$"):
            entry(state0, case1)
