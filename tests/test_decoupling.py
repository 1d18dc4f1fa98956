from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import parityshield as ps

# first-interval boundary coefficients at tau = 0.1, frozen
A1 = 0.9964901485385421
B1 = 2.1287624691905687
# survival amplitude after ten pulse intervals, frozen
XI_1 = 0.9971493266340058

TAU = 0.1


@pytest.fixture()
def sched():
    return ps.DdSchedule(TAU)


def test_initial_coefficients(case1, sched):
    c = ps.dd_coefficients(0, sched, case1)
    assert (c.a, c.b, c.m) == (1.0, case1.lam / case1.omega, 0)


def test_frozen_first_step(case1, sched):
    c = ps.dd_coefficients(1, sched, case1)
    assert c.a == pytest.approx(A1, abs=1e-14)
    assert c.b == pytest.approx(B1, abs=1e-13)


def test_frozen_terminal_value(case1, sched):
    assert ps.dd_survival(1.0, sched, case1) == pytest.approx(XI_1, abs=1e-14)


def test_first_interval_is_free(case1, sched):
    for t in (0.0, 0.02, 0.07, 0.1):
        assert ps.dd_survival(t, sched, case1) == pytest.approx(
            ps.free_survival(t, case1), abs=1e-14)


def test_value_continuous_at_pulses(case1, sched):
    eps = 1e-10
    for m in range(1, 10):
        before = ps.dd_survival(m * TAU - eps, sched, case1)
        after = ps.dd_survival(m * TAU + eps, sched, case1)
        assert after == pytest.approx(before, abs=1e-8)


def test_slope_reverses_at_pulses(case1, sched):
    h = 1e-6
    for m in (1, 5, 9):
        t0 = m * TAU
        xi = lambda x: ps.dd_survival(x, sched, case1)
        right = (-3 * xi(t0) + 4 * xi(t0 + h) - xi(t0 + 2 * h)) / (2 * h)
        left = (3 * xi(t0) - 4 * xi(t0 - h) + xi(t0 - 2 * h)) / (2 * h)
        assert abs(right + left) < 1e-5 * abs(left) + 1e-9


def test_interval_equation_residual(case1, sched):
    h = 1e-4
    r_sq = case1.r_rate ** 2
    for t0 in (0.04, 0.36, 0.77):
        f0 = ps.dd_survival(t0 - h, sched, case1)
        f1 = ps.dd_survival(t0, sched, case1)
        f2 = ps.dd_survival(t0 + h, sched, case1)
        residual = ((f2 - 2 * f1 + f0) / h ** 2
                    + case1.lam * (f2 - f0) / (2 * h) + r_sq * f1)
        assert abs(residual) < 1e-5


def test_minimum_is_first_pulse_value(case1, sched):
    values = ps.dd_survival(np.linspace(0.0, 1.0, 2001), sched, case1)
    assert min(values) == pytest.approx(ps.free_survival(TAU, case1),
                                        abs=1e-12)
    assert ps.dd_survival(TAU, sched, case1) == pytest.approx(
        ps.free_survival(TAU, case1), abs=1e-14)


def test_protection_improves_with_faster_pulsing(case1):
    slow = ps.dd_survival(1.0, ps.DdSchedule(0.2), case1)
    fast = ps.dd_survival(1.0, ps.DdSchedule(0.05), case1)
    assert ps.free_survival(1.0, case1) < slow < fast < 1.0


def test_no_memory_retained(case1, sched):
    # far-horizon calls walk 10^5 cycles; nothing of that walk may outlive
    # the call
    finite = ps.FinitePulseSchedule(0.2, 10)
    ps.dd_survival(1.0, sched, case1)            # first-call allocations
    ps.finite_dd_survival(1.0, finite, case1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ps.dd_survival(1e4, sched, case1)
        ps.finite_dd_survival(2e4, finite, case1)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 0


def test_retained_memory_does_not_grow_with_horizon(case1):
    # a call that walks 100 times more cycles may leave nothing more behind;
    # a cache of per-cycle states fails this at any size.  The schedules
    # appear in no other test, so no earlier call has filled such a cache.
    sched = ps.DdSchedule(0.07)
    finite = ps.FinitePulseSchedule(0.14, 10)
    ps.dd_survival(1.0, sched, case1)            # first-call allocations
    ps.finite_dd_survival(1.0, finite, case1)

    def retained(t):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ps.dd_survival(t, sched, case1)
            ps.finite_dd_survival(t, finite, case1)
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    near = retained(1e2)
    assert retained(1e4) <= near


def test_near_critical_branches_agree():
    lam = 2.0
    crit = ps.ModelParams.from_effective_rate(lam, 1.0)
    over = ps.ModelParams.from_effective_rate(lam, 1.0 - 1e-9)
    under = ps.ModelParams.from_effective_rate(lam, 1.0 + 1e-9)
    assert crit.branch == ps.BRANCH_CRITICAL
    assert over.branch == ps.BRANCH_OVERDAMPED
    assert under.branch == ps.BRANCH_UNDERDAMPED
    sched = ps.DdSchedule(TAU)
    for t in (0.05, 0.35, 0.78, 1.0):
        ref = ps.dd_survival(t, sched, crit)
        assert ps.dd_survival(t, sched, over) == pytest.approx(ref, abs=1e-6)
        assert ps.dd_survival(t, sched, under) == pytest.approx(ref, abs=1e-6)


def test_underdamped_recursion_against_oracle(cfg_aug):
    p = ps.ModelParams.from_effective_rate(1.0, 2.0)
    sched = ps.DdSchedule(0.1)
    tr = ps.integrate_dd(p, sched, 0.5, cfg_aug)
    closed = np.array(ps.dd_survival(tr.times, sched, p))
    assert float(np.max(np.abs(tr.beta2 - closed))) < 1e-6


def test_fidelity_mixes_dark_weight(case1, sched):
    state = ps.OddParityState.initial(0.6, 0.8)
    f = ps.dd_fidelity(state, 1.0, sched, case1)
    assert f == pytest.approx(0.36 + 0.64 * XI_1, abs=1e-13)


def test_invalid_inputs(case1, sched):
    with pytest.raises(ps.ConfigError):
        ps.DdSchedule(0.0)
    with pytest.raises(ps.ParameterError):
        ps.dd_survival(-0.5, sched, case1)
    with pytest.raises(ps.ParameterError):
        ps.dd_coefficients(-1, sched, case1)
