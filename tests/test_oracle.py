from __future__ import annotations

import math

import numpy as np
import pytest

import parityshield as ps

TAU = 0.1


def _closed_free(times, params):
    return np.array([ps.free_survival(float(t), params) for t in times])


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
    closed = np.array([ps.dd_survival(float(t), sched, case1)
                       for t in dd_trace_aug.times])
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


def test_finite_run_matches_map(case1, cfg_aug):
    sched = ps.FinitePulseSchedule(0.2, 10)
    tr = ps.integrate_finite(case1, sched, 1.0, cfg_aug)
    worst = 0.0
    for t, b2 in zip(tr.times, tr.beta2):
        if sched.segment_of(float(t))[0] != ps.FREE_SEGMENT:
            continue
        value, _ = ps.finite_dd_survival(float(t), sched, case1)
        worst = max(worst, abs(complex(b2) - value))
    assert worst < 1e-4


def test_finite_quadrature_backend(case1, cfg_quad):
    # lab-frame formulation with explicit drive term, phase-aligned output
    sched = ps.FinitePulseSchedule(0.2, 10)
    tr = ps.integrate_finite(case1, sched, 1.0, cfg_quad)
    worst = 0.0
    for t, b2 in zip(tr.times, tr.beta2):
        if sched.segment_of(float(t))[0] != ps.FREE_SEGMENT:
            continue
        value, _ = ps.finite_dd_survival(float(t), sched, case1)
        worst = max(worst, abs(complex(b2) - value))
    assert worst < 5e-3


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


def test_sample_thinning(case1):
    cfg = ps.OracleConfig(dt_num=1e-3, sample_every=10)
    tr = ps.integrate_free(case1, 1.0, cfg)
    assert len(tr.times) == 101
    assert tr.times[-1] == pytest.approx(1.0)
    assert tr.times[1] - tr.times[0] == pytest.approx(1e-2)


def test_config_validation():
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(dt_num=0.0)
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(method_order=3)
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(history_mode="spline")
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(history_mode=ps.DIRECT_QUADRATURE, method_order=4)
    with pytest.raises(ps.ConfigError):
        ps.OracleConfig(sample_every=0)


def test_run_preconditions(case1, cfg_aug):
    with pytest.raises(ps.ConfigError):
        ps.integrate_free(case1, -1.0, cfg_aug)
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
