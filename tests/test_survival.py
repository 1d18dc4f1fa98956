from __future__ import annotations

import cmath
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import parityshield as ps

# decay factor derived once from the independent integrator and frozen
ETA_01 = 0.9964901485385421
# frozen: ten survival-and-project rounds
ZENO_1 = 0.9654506861313339
# survival amplitude after ten pulse intervals, frozen
XI_1 = 0.9971493266340058

DD_TAU = 0.1


def test_frozen_value(case1):
    sched = ps.ZenoSchedule(0.1)
    assert ps.zeno_amplitude(1.0, sched, case1) == pytest.approx(
        ZENO_1, abs=1e-14)


def test_composition_identity(case1):
    # n measurement rounds compose multiplicatively, with no renormalization
    sched = ps.ZenoSchedule(0.1)
    amp = 1.0
    for _ in range(10):
        amp *= ps.free_survival(0.1, case1)
    assert abs(ps.zeno_amplitude(1.0, sched, case1) - amp) < 1e-12
    assert amp == pytest.approx(ETA_01 ** 10, abs=1e-14)


def test_partial_interval(case1):
    sched = ps.ZenoSchedule(0.1)
    expected = ps.free_survival(0.1, case1) ** 2 * ps.free_survival(0.03, case1)
    assert ps.zeno_amplitude(0.23, sched, case1) == pytest.approx(
        expected, abs=1e-13)


def test_measurement_instant_boundary(case1):
    # a time landing on the grid counts the full round, remainder zero
    sched = ps.ZenoSchedule(0.1)
    eta = ps.free_survival(0.1, case1)
    assert ps.zeno_amplitude(0.3, sched, case1) == pytest.approx(
        eta ** 3, abs=1e-14)
    # float t on a representable multiple: fuzz keeps it on the grid
    t = 0.1 + 0.1 + 0.1                      # 0.30000000000000004
    assert ps.zeno_amplitude(t, sched, case1) == pytest.approx(
        eta ** 3, abs=1e-13)


def test_zero_time(case1):
    assert ps.zeno_amplitude(0.0, ps.ZenoSchedule(0.1), case1) == 1.0


def test_quadratic_short_time_limit():
    p = ps.ModelParams.from_mode_splitting(2.0, 1.0)
    dt = 1e-3
    ratio = (1.0 - ps.free_survival(dt, p)) / (p.r_rate ** 2 * dt ** 2 / 2.0)
    assert 0.95 <= ratio <= 1.05


def test_frequent_measurement_beats_free_decay(case1):
    sched = ps.ZenoSchedule(0.1)
    assert ps.zeno_amplitude(1.0, sched, case1) > ps.free_survival(1.0, case1)
    # and shorter intervals protect better
    finer = ps.ZenoSchedule(0.05)
    assert ps.zeno_amplitude(1.0, finer, case1) > ps.zeno_amplitude(
        1.0, sched, case1)


def test_frozen_terminal_value(case1, dd_sched):
    assert ps.dd_survival(1.0, dd_sched, case1) == pytest.approx(XI_1, abs=1e-14)


def test_first_interval_is_free(case1, dd_sched):
    for t in (0.0, 0.02, 0.07, 0.1):
        assert ps.dd_survival(t, dd_sched, case1) == pytest.approx(
            ps.free_survival(t, case1), abs=1e-14)


def test_value_continuous_at_pulses(case1, dd_sched):
    eps = 1e-10
    for m in range(1, 10):
        before = ps.dd_survival(m * DD_TAU - eps, dd_sched, case1)
        after = ps.dd_survival(m * DD_TAU + eps, dd_sched, case1)
        assert after == pytest.approx(before, abs=1e-8)


def test_slope_reverses_at_pulses(case1, dd_sched):
    h = 1e-6
    for m in (1, 5, 9):
        t0 = m * DD_TAU
        xi = lambda x: ps.dd_survival(x, dd_sched, case1)
        right = (-3 * xi(t0) + 4 * xi(t0 + h) - xi(t0 + 2 * h)) / (2 * h)
        left = (3 * xi(t0) - 4 * xi(t0 - h) + xi(t0 - 2 * h)) / (2 * h)
        assert abs(right + left) < 1e-5 * abs(left) + 1e-9


def test_interval_equation_residual(case1, dd_sched):
    h = 1e-4
    r_sq = case1.r_rate ** 2
    for t0 in (0.04, 0.36, 0.77):
        f0 = ps.dd_survival(t0 - h, dd_sched, case1)
        f1 = ps.dd_survival(t0, dd_sched, case1)
        f2 = ps.dd_survival(t0 + h, dd_sched, case1)
        residual = ((f2 - 2 * f1 + f0) / h ** 2
                    + case1.lam * (f2 - f0) / (2 * h) + r_sq * f1)
        assert abs(residual) < 1e-5


def test_minimum_is_first_pulse_value(case1, dd_sched):
    values = ps.dd_survival(np.linspace(0.0, 1.0, 2001), dd_sched, case1)
    assert min(values) == pytest.approx(ps.free_survival(DD_TAU, case1),
                                        abs=1e-12)
    assert ps.dd_survival(DD_TAU, dd_sched, case1) == pytest.approx(
        ps.free_survival(DD_TAU, case1), abs=1e-14)


def test_protection_improves_with_faster_pulsing(case1):
    slow = ps.dd_survival(1.0, ps.DdSchedule(0.2), case1)
    fast = ps.dd_survival(1.0, ps.DdSchedule(0.05), case1)
    assert ps.free_survival(1.0, case1) < slow < fast < 1.0


def test_no_memory_retained(case1, dd_sched):
    # far-horizon calls walk 10^5 cycles; nothing of that walk may outlive
    # the call
    finite = ps.FinitePulseSchedule(0.2, 10)
    ps.dd_survival(1.0, dd_sched, case1)            # first-call allocations
    ps.finite_dd_survival(1.0, finite, case1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ps.dd_survival(1e4, dd_sched, case1)
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
    sched = ps.DdSchedule(DD_TAU)
    for t in (0.05, 0.35, 0.78, 1.0):
        ref = ps.dd_survival(t, sched, crit)
        assert ps.dd_survival(t, sched, over) == pytest.approx(ref, abs=1e-6)
        assert ps.dd_survival(t, sched, under) == pytest.approx(ref, abs=1e-6)


def test_first_free_segment_matches_free_decay(case1, sched10):
    for t in (0.0, 0.05, 0.12, 0.18):
        value, tag = ps.finite_dd_survival(t, sched10, case1)
        assert tag == ps.FREE_SEGMENT
        assert value == pytest.approx(ps.free_survival(t, case1), abs=1e-12)


def test_undriven_complex_end_map_refused(case1):
    # an undriven cycle's survival is taken real, which would drop Im x
    # (5.6e-3 at t = 1 for a pulse with a 0.3 rad phase error); fidelity
    # keeps the complex x, and a real k other than -1, 0, 1 stays real
    def on_cycle(k):
        return SimpleNamespace(cycle=ps.transfer.Cycle(0.1, ((0.1, 0.0, k),)))
    times = [0.25, 1.0]
    sched = on_cycle(-cmath.exp(0.3j))
    with pytest.raises(ps.ConfigError, match="real segment ends k only"):
        ps.survival(times, sched, case1)
    with pytest.raises(ps.ConfigError, match="real segment ends k only"):
        ps.coefficients(3, sched, case1)
    x = np.array(ps.transfer.evaluate(times, case1, sched.cycle,
                                      lambda x, *_: x))
    assert np.max(np.abs(x.imag)) > 1e-3
    state = ps.OddParityState(0.6, 0.8)
    assert ps.fidelity(state, times, sched, case1) == pytest.approx(
        np.abs(0.36 + 0.64 * x), abs=1e-15)
    half = on_cycle(0.5)
    assert ps.survival(times, half, case1) == np.array(ps.transfer.evaluate(
        times, case1, half.cycle, lambda x, *_: x)).real.tolist()


def test_negative_time_rejected(case1, sched10):
    with pytest.raises(ps.ParameterError):
        ps.finite_dd_survival(-0.1, sched10, case1)



@pytest.mark.parametrize("s", [1e-10, 1e-50, 1e-100, 1e-150, 2.0 ** -498,
                               2.0 ** -511])
@pytest.mark.parametrize("lam, rate", [(2.0, 0.5), (2.0, 1.0), (1.0, 3.0)],
                         ids=["overdamped", "critical", "underdamped"])
def test_survival_is_scale_invariant(lam, rate, s):
    # x depends on lam t, R t and t / tau only; down to s = 2**-511 the
    # square of each rate is a normal float (below that a pair is refused)
    times = [0.0, 0.37, 1.0, 2.5]

    def run(s):
        p = ps.ModelParams.from_effective_rate(lam * s, rate * s)
        scheds = (None, ps.ZenoSchedule(0.1 / s), ps.DdSchedule(0.1 / s),
                  ps.FinitePulseSchedule(0.2 / s, 10))
        return p.branch, [ps.survival([t / s for t in times], sched, p)
                          for sched in scheds]

    (branch, want), (scaled_branch, got) = run(1.0), run(s)
    assert scaled_branch == branch
    for values, expected in zip(got, want):
        if isinstance(expected[0], tuple):    # driven: (amplitude, tag) pairs
            assert [tag for _, tag in values] == [tag for _, tag in expected]
            values, expected = [x for x, _ in values], [x for x, _ in expected]
        assert np.max(np.abs(np.subtract(values, expected))) <= 1e-13
