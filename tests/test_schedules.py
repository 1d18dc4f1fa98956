from __future__ import annotations

import math

import numpy as np
import pytest

import parityshield as ps

FINITE_TAU = 0.2


def test_schedule_geometry(sched10):
    assert sched10.phase_rate == pytest.approx(10 * math.pi / FINITE_TAU)
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


@pytest.mark.parametrize("sched, t", [
    (ps.FinitePulseSchedule(FINITE_TAU, 10), [0.1, 0.3]),
    (ps.FinitePulseSchedule(FINITE_TAU, 10), np.array([0.1, 0.3])),
    (ps.FinitePulseSchedule(np.array([0.2, 0.3]), 10), 0.1),
    (ps.FinitePulseSchedule(FINITE_TAU, np.array([10, 20])), 0.1),
], ids=["list", "array", "batch-tau", "batch-n-duty"])
def test_segment_of_refuses_more_than_one_time_or_cell(sched, t):
    # int() on the cycle index raised a raw TypeError
    with pytest.raises(ps.ParameterError, match="^segment_of classifies one "
                       "time of one cell; got times of shape "):
        sched.segment_of(t)


def test_invalid_schedule():
    with pytest.raises(ps.ConfigError):
        ps.FinitePulseSchedule(0.0, 10)
    with pytest.raises(ps.ConfigError):
        ps.FinitePulseSchedule(FINITE_TAU, 1)
    with pytest.raises(ps.ConfigError):
        ps.FinitePulseSchedule(FINITE_TAU, 2.5)


def test_zeno_invalid_inputs(case1):
    with pytest.raises(ps.ConfigError):
        ps.ZenoSchedule(0.0)
    with pytest.raises(ps.ConfigError):
        ps.ZenoSchedule(-0.1)
    with pytest.raises(ps.ParameterError):
        ps.zeno_amplitude(-1.0, ps.ZenoSchedule(0.1), case1)


def test_dd_invalid_inputs(case1, dd_sched):
    with pytest.raises(ps.ConfigError):
        ps.DdSchedule(0.0)
    with pytest.raises(ps.ParameterError):
        ps.dd_survival(-0.5, dd_sched, case1)
    with pytest.raises(ps.ParameterError):
        ps.dd_coefficients(-1, dd_sched, case1)


@pytest.mark.parametrize("n_duty", [np.int64(10), np.int32(10), np.uint8(10),
                                    np.array(10)])
def test_numpy_integer_duty_accepted(n_duty):
    # a numpy integer was refused as "got np.int64(10)"; it is kept as the
    # Python int, so the record and its descriptor are those of the int
    sched = ps.FinitePulseSchedule(0.2, n_duty)
    assert type(sched.n_duty) is int
    assert sched == ps.FinitePulseSchedule(0.2, 10)
    assert ps.format_schedule(sched) == "dd-finite(0.2,10)"
    with pytest.raises(ps.ConfigError, match=r"an integer >= 2, got 1$"):
        ps.FinitePulseSchedule(0.2, np.int64(1))
    with pytest.raises(ps.ConfigError, match=r"an integer >= 2, got 10\.0$"):
        ps.FinitePulseSchedule(0.2, np.float64(10.0))


def test_schedule_of_per_cell_columns():
    # a column of integer duties is a batch of cycles, cell by cell those
    # of its scalar schedules
    taus, ns = np.array([0.2, 0.1]), np.array([10, 20])
    batch = ps.FinitePulseSchedule(taus, ns).cycle
    for i, (tau, n) in enumerate(zip(taus.tolist(), ns.tolist())):
        alone = ps.FinitePulseSchedule(tau, n).cycle
        assert batch.period[i] == alone.period
        for got, want in zip(batch.segments, alone.segments):
            assert [np.ravel(v)[i if np.ndim(v) else 0].item()
                    for v in got] == list(want)
    with pytest.raises(ps.ConfigError, match=r"integer >= 2, got 10\.0$"):
        ps.FinitePulseSchedule(taus, ns.astype(float))


def test_schedule_columns_that_do_not_broadcast_are_refused():
    # numpy's raw ValueError used to escape the constructor
    with pytest.raises(ps.ConfigError) as info:
        ps.FinitePulseSchedule(np.array([0.2, 0.3]), np.array([10, 20, 30]))
    assert str(info.value) == ("per-cell columns do not broadcast together: "
                               "tau of shape (2,), n_duty of shape (3,)")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("make", [
    ps.ZenoSchedule, ps.DdSchedule,
    lambda tau: ps.FinitePulseSchedule(tau, np.int64(10))],
    ids=["zeno", "dd", "dd-finite"])
def test_numpy_float_interval_is_held_as_the_python_float(make, dtype):
    # numpy 2 wrote dd(np.float64(0.1)), which parse_schedule refuses
    sched = make(dtype(0.1))
    assert sched == make(float(dtype(0.1)))
    assert ps.parse_schedule(ps.format_schedule(sched)) == sched


def test_scenario_of_numpy_intervals_checks_its_ordering(case1):
    # its schedules metadata was unparseable, and the ordering check raised
    # ConfigError: bad schedule descriptor 'zeno(np.float64(0.1))'
    tau = np.linspace(0.1, 0.2, 2)[0]
    cfg = ps.ScenarioConfig(
        "fig2", case1, (None, ps.ZenoSchedule(tau), ps.DdSchedule(tau)),
        1.0, 100, ps.OddParityState.superradiant(), "superradiant", "numpy")
    trace = ps.compute_trace(cfg)
    assert trace.metadata["schedules"] == "none|zeno(0.1)|dd(0.1)"
    ps.check_fig2_ordering(trace)


@pytest.mark.parametrize("tau", [np.float32(FINITE_TAU),
                                 np.array([FINITE_TAU, 0.3], np.float32)],
                         ids=["scalar", "column"])
def test_float32_finite_schedule_is_its_float64_schedule(case1, tau):
    # lengths rounded in float32 did not fill the period: "segment
    # durations sum to 0.19999998807907104, which does not fill the cycle
    # period 0.20000000298023224"
    single = ps.FinitePulseSchedule(tau, 10)
    double = ps.FinitePulseSchedule(tau.astype(np.float64), 10)
    assert np.asarray(single.cycle.period).dtype == np.float64
    t = np.full(tau.shape, 0.5)
    for got, want in zip(ps.finite_dd_survival(t, single, case1),
                         ps.finite_dd_survival(t, double, case1)):
        np.testing.assert_array_equal(got, want)
