from __future__ import annotations

import dataclasses
import math

import pytest

import parityshield as ps
from parityshield import scenarios

ETA_10 = 0.7982309094947353
ZENO_1 = 0.9654506861313339
XI_1 = 0.9971493266340058


@pytest.mark.parametrize("text", [
    "none", "zeno(0.1)", "dd(0.1)", "dd-finite(0.2,10)",
    "zeno(0.025)", "dd( 0.125 )", "dd-finite( 0.2 , 20 )",
])
def test_schedule_descriptor_round_trip(text):
    sched = ps.parse_schedule(text)
    assert ps.parse_schedule(ps.format_schedule(sched)) == sched


@pytest.mark.parametrize("text", [
    "pulse(0.1)", "zeno()", "zeno(0.1,0.2)", "dd-finite(0.2)", "none(1)",
    "dd(abc)", "dd-finite(0.2,2.5)", "dd(inf)", "zeno(inf)",
    "dd-finite(inf,10)",
])
def test_bad_descriptors_rejected(text):
    with pytest.raises(ps.ConfigError):
        ps.parse_schedule(text)


def test_initial_state_parsing():
    state, name = ps.parse_initial_state("dark")
    assert (state, name) == (ps.OddParityState.dark(), "dark")
    state, name = ps.parse_initial_state("superradiant")
    assert state == ps.OddParityState.superradiant()
    state, name = ps.parse_initial_state("mixed(0.6,0.8j)")
    assert state.beta1 == 0.6 and state.beta2 == 0.8j
    assert ps.parse_initial_state(name)[0] == state    # canonical round trip
    with pytest.raises(ps.ConfigError):
        ps.parse_initial_state("bright")
    with pytest.raises(ps.StateError):
        ps.parse_initial_state("mixed(1,1)")


def test_build_default_scenarios():
    fig1 = ps.build_scenario("fig1")
    assert fig1.schedules == (ps.ZenoSchedule(0.1), ps.DdSchedule(0.1))
    fig2 = ps.build_scenario("fig2")
    assert fig2.schedules == (None, ps.ZenoSchedule(0.1), ps.DdSchedule(0.1))
    assert fig2.params.lam == 2.0 and fig2.params.omega == 1.0
    assert fig2.t_max == 1.0 and fig2.run_id == "fig2"
    fig3 = ps.build_scenario("fig3")
    assert fig3.schedules == (None,
                              ps.FinitePulseSchedule(0.2, 10),
                              ps.FinitePulseSchedule(0.2, 20),
                              ps.DdSchedule(0.2))


def test_build_overrides():
    cfg = ps.build_scenario("fig2", {"tau": "0.05", "delta_t": "0.025",
                                     "t_max": "2.0", "run_id": "probe"})
    assert cfg.schedules == (None, ps.ZenoSchedule(0.025),
                             ps.DdSchedule(0.05))
    assert cfg.t_max == 2.0 and cfg.run_id == "probe"
    # measurement interval follows the pulse interval unless given
    cfg = ps.build_scenario("fig2", {"tau": "0.05"})
    assert cfg.schedules[1] == ps.ZenoSchedule(0.05)


def test_parameter_source_rules():
    cfg = ps.build_scenario("fig2", {"r_rate": "0.5"})
    assert cfg.params.r_rate == 0.5
    with pytest.raises(ps.ConfigError):
        ps.build_scenario("fig2", {"r_rate": "0.5", "omega": "1.0"})
    with pytest.raises(ps.ConfigError):
        ps.build_scenario("fig2", {"t_max": "0"})
    with pytest.raises(ps.ConfigError):
        ps.build_scenario("fig2", {"samples_per_unit_time": "10"})
    with pytest.raises(ps.ConfigError):
        ps.build_scenario("breakdown")


def test_unread_keys_refused():
    with pytest.raises(ps.ConfigError, match="n_duty"):
        ps.build_scenario("fig2", {"n_duty": "10"})
    with pytest.raises(ps.ConfigError, match="schedules"):
        ps.run_sweep({"tau": "0.1", "schedules": "none"})


@pytest.mark.parametrize("schedules", [
    ("dd(0.1)",), (None, 0.1), (ps.DdSchedule(0.1), ps.DdSchedule),
])
def test_scenario_config_refuses_what_is_not_a_schedule(schedules):
    with pytest.raises(ps.ConfigError, match="unknown schedule object"):
        dataclasses.replace(ps.build_scenario("fig2"), schedules=schedules)


def test_custom_schedule_list():
    cfg = ps.build_scenario(
        "custom", {"schedules": "none|zeno(0.1)|dd-finite(0.2,10)"})
    assert cfg.schedules == (None, ps.ZenoSchedule(0.1),
                             ps.FinitePulseSchedule(0.2, 10))


def test_config_file_round_trip(tmp_path):
    sections = {"fig2": {"tau": "0.05", "t_max": "2.0"},
                "sweep": {"tau": "0.05,0.1", "n_duty": "10"}}
    path = tmp_path / "runs.ini"
    path.write_text(ps.dump_config(sections))
    assert ps.load_config(path) == sections
    # serialize -> parse -> serialize is a fixed point
    assert ps.dump_config(ps.load_config(path)) == ps.dump_config(sections)


def test_missing_config_rejected(tmp_path):
    with pytest.raises(ps.ConfigError):
        ps.load_config(tmp_path / "absent.ini")


def test_time_grid_contains_schedule_boundaries():
    cfg = ps.build_scenario("fig3")
    grid = ps.time_grid(cfg)
    assert all(b - a > 1e-12 for a, b in zip(grid, grid[1:]))
    assert grid[0] == 0.0 and abs(grid[-1] - cfg.t_max) < 1e-12
    for m in range(1, 6):
        for edge in (m * 0.2, (m - 1) * 0.2 + 0.18):
            assert any(abs(g - edge) < 1e-9 for g in grid)


def test_fig2_trace_values(case1):
    cfg = ps.build_scenario("fig2")
    trace = ps.compute_trace(cfg)
    ps.check_fig2_ordering(trace)
    assert trace.header == ["t", "F_free", "F_zeno", "F_dd"]
    last = trace.rows[-1]
    assert last[0] == pytest.approx(1.0)
    assert last[1] == pytest.approx(ETA_10, abs=1e-13)
    assert last[2] == pytest.approx(ZENO_1, abs=1e-13)
    assert last[3] == pytest.approx(XI_1, abs=1e-13)
    assert trace.metadata["scenario"] == "fig2"
    assert trace.metadata["schedules"] == "none|zeno(0.1)|dd(0.1)"
    assert "timestamp" not in trace.metadata


def test_fig1_trace(case1):
    trace = ps.compute_trace(ps.build_scenario("fig1"))
    assert trace.header == ["t", "F_zeno", "F_dd"]
    assert trace.column("F_dd")[-1] == pytest.approx(XI_1, abs=1e-13)


def test_fig3_trace_segments():
    cfg = ps.build_scenario("fig3")
    trace = ps.compute_trace(cfg)
    assert trace.header == ["t", "F_free", "F_dd", "F_ddN10", "F_ddN20",
                            "segment"]
    seg = dict(zip(trace.column("t"), trace.column("segment")))
    t_in = min(t for t in seg if 0.18 + 1e-9 < t < 0.2 - 1e-9)
    assert seg[t_in] == ps.IN_PULSE_SEGMENT
    t_free = max(t for t in seg if t < 0.18 - 1e-9)
    assert seg[t_free] == ps.FREE_SEGMENT


def test_fig2_ordering_check_passes():
    ps.check_fig2_ordering(ps.compute_trace(ps.build_scenario("fig2")))


def test_fig3_ordering_check_reports_true_ordering():
    # the finite-duration curves approach the instantaneous limit from
    # above, so the postulated terminal chain cannot hold; the check must
    # say so rather than pass
    trace = ps.compute_trace(ps.build_scenario("fig3"))
    with pytest.raises(ps.ValidationFailure):
        ps.check_fig3_ordering(trace)


def test_duplicate_schedules_rejected():
    cfg = ps.build_scenario("custom", {"schedules": "none|none"})
    with pytest.raises(ps.ConfigError):
        ps.compute_trace(cfg)


def test_sweep_single_cell_matches_fig2_terminals():
    trace = ps.run_sweep({"tau": "0.1"})
    assert trace.header == ["tau", "F_free", "F_zeno", "F_dd"]
    assert len(trace.rows) == 1
    row = trace.rows[0]
    assert row[0] == 0.1
    assert row[1] == pytest.approx(ETA_10, abs=1e-13)
    assert row[2] == pytest.approx(ZENO_1, abs=1e-13)
    assert row[3] == pytest.approx(XI_1, abs=1e-13)


def test_sweep_protection_monotone_in_interval():
    trace = ps.run_sweep({"tau": "0.05,0.1,0.2"})
    taus = trace.column("tau")
    assert taus == sorted(taus)
    f_dd = trace.column("F_dd")
    assert all(a > b for a, b in zip(f_dd, f_dd[1:]))
    f_zeno = trace.column("F_zeno")
    assert all(a > b for a, b in zip(f_zeno, f_zeno[1:]))


def test_sweep_two_axes_lexicographic():
    trace = ps.run_sweep({"tau": "0.1,0.2", "n_duty": "20,10"})
    assert trace.header == ["n_duty", "tau", "F_free", "F_zeno", "F_dd",
                            "F_ddN"]
    coords = [(row[0], row[1]) for row in trace.rows]
    assert coords == [(10, 0.1), (10, 0.2), (20, 0.1), (20, 0.2)]
    assert all(isinstance(row[0], int) for row in trace.rows)


def test_sweep_empty_and_capped():
    empty = ps.run_sweep({})
    assert empty.rows == [] and empty.header == ["F_free"]
    assert empty.columns == [[]]
    with pytest.raises(ps.ConfigError):
        ps.run_sweep({"tau": "0.1,0.2", "lam": "1,2,3"}, max_cells=5)


@pytest.mark.parametrize("bad", [1.5, math.nan])
def test_sweep_refuses_fidelity_outside_unit_interval(monkeypatch, bad):
    monkeypatch.setattr(scenarios, "dd_fidelity", lambda *args: bad)
    with pytest.raises(ps.StateError, match="F_dd"):
        ps.run_sweep({"tau": "0.1"})


def test_sweep_r_rate_axis():
    trace = ps.run_sweep({"r_rate": "0.5,0.8660254037844386"})
    # larger collective rate decays faster
    f = trace.column("F_free")
    assert f[0] > f[1]
    assert f[1] == pytest.approx(ETA_10, abs=1e-13)
