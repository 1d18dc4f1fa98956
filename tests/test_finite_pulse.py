from __future__ import annotations

import cmath
import math

import pytest

import parityshield as ps

TAU = 0.2

# first-cycle boundary coefficients for duty parameter 10, frozen
A1_N10 = 0.9891289577308269 - 0.0015021061623572058j
B1_N10 = 2.194981654046519 - 0.021501096944931672j


@pytest.fixture()
def sched10():
    return ps.FinitePulseSchedule(TAU, 10)


def test_schedule_geometry(sched10):
    assert sched10.gamma == pytest.approx(10 * math.pi / (2 * TAU))
    assert sched10.phase_rate == pytest.approx(2 * sched10.gamma)
    assert sched10.free_length == pytest.approx(0.18)
    assert sched10.window_length == pytest.approx(0.02)


def test_segment_classification(sched10):
    assert sched10.segment_of(0.05) == ("free", 0, pytest.approx(0.05))
    tag, m, theta = sched10.segment_of(0.19)
    assert (tag, m) == (ps.IN_PULSE_SEGMENT, 0)
    assert theta == pytest.approx(0.19)
    tag, m, theta = sched10.segment_of(0.2)
    assert (tag, m) == (ps.FREE_SEGMENT, 1)
    assert theta == pytest.approx(0.0, abs=1e-15)
    # the boundary instant itself still counts as free
    assert sched10.segment_of(0.18)[0] == ps.FREE_SEGMENT
    assert sched10.segment_of(0.18 + 1e-13)[0] == ps.FREE_SEGMENT
    assert sched10.segment_of(0.18 + 1e-9)[0] == ps.IN_PULSE_SEGMENT


def test_frozen_first_cycle_coefficients(case1, sched10):
    c = ps.finite_dd_coefficients(1, sched10, case1)
    assert c.a == pytest.approx(A1_N10, abs=1e-12)
    assert c.b == pytest.approx(B1_N10, abs=1e-12)


def test_first_free_segment_matches_free_decay(case1, sched10):
    for t in (0.0, 0.05, 0.12, 0.18):
        value, tag = ps.finite_dd_survival(t, sched10, case1)
        assert tag == ps.FREE_SEGMENT
        assert value == pytest.approx(ps.free_survival(t, case1), abs=1e-12)


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
    inst = abs(ps.dd_survival(1.0, ps.DdSchedule(TAU), case1))
    devs = []
    prev = None
    for n in (10, 20, 40, 80):
        f = ps.finite_dd_fidelity(state, 1.0,
                                  ps.FinitePulseSchedule(TAU, n), case1)[0]
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
    sched = ps.FinitePulseSchedule(TAU, 10000)
    for t in (0.3, 0.63, 1.0):
        if sched.segment_of(t)[0] != ps.FREE_SEGMENT:
            continue
        inst = abs(ps.dd_survival(t, ps.DdSchedule(TAU), case1))
        f = ps.finite_dd_fidelity(state, t, sched, case1)[0]
        assert f == pytest.approx(inst, abs=1e-3)


def _worst_free_segment_gap(params, sched, t_max):
    # closed form against the augmented integrator on free-segment samples
    cfg = ps.OracleConfig(dt_num=1e-4, method_order=4,
                          history_mode=ps.EXACT_AUGMENTED)
    tr = ps.integrate_finite(params, sched, t_max, cfg)
    closed = ps.finite_dd_survival(tr.times, sched, params)
    return max(abs(complex(b2) - value)
               for b2, (value, tag) in zip(tr.beta2, closed)
               if tag == ps.FREE_SEGMENT)


@pytest.mark.parametrize("lam, rate, branch", [
    (2.0, 1.0, ps.BRANCH_CRITICAL),
    (1.0, 2.0, ps.BRANCH_UNDERDAMPED),
], ids=["critical", "underdamped"])
def test_non_overdamped_branches_match_oracle(lam, rate, branch):
    p = ps.ModelParams.from_effective_rate(lam, rate)
    assert p.branch == branch
    sched = ps.FinitePulseSchedule(TAU, 10)
    assert _worst_free_segment_gap(p, sched, 1.0) < 1e-8
    c = ps.finite_dd_coefficients(3, sched, p)
    assert math.isfinite(abs(c.a)) and math.isfinite(abs(c.b))


def test_degenerate_split_matches_oracle():
    # both characteristic roots nearly coincide (split root 1.5e-14); the
    # propagator's series form handles it without any linear solve
    p = ps.ModelParams.from_mode_splitting(1e-9, 1.5e-14)
    assert p.branch == ps.BRANCH_OVERDAMPED
    sched = ps.FinitePulseSchedule(TAU, 10)
    assert _worst_free_segment_gap(p, sched, 1.0) < 1e-12
    c = ps.finite_dd_coefficients(1, sched, p)
    assert math.isfinite(abs(c.a)) and math.isfinite(abs(c.b))


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


def test_invalid_schedule():
    with pytest.raises(ps.ConfigError):
        ps.FinitePulseSchedule(0.0, 10)
    with pytest.raises(ps.ConfigError):
        ps.FinitePulseSchedule(TAU, 1)
    with pytest.raises(ps.ConfigError):
        ps.FinitePulseSchedule(TAU, 2.5)


def test_negative_time_rejected(case1, sched10):
    with pytest.raises(ps.ParameterError):
        ps.finite_dd_survival(-0.1, sched10, case1)
