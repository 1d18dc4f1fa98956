from __future__ import annotations

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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
    with pytest.raises(ps.ConfigError, match=r"^bad mixed-state amplitudes "
                       r"in 'mixed\(a,b\)'$"):
        ps.parse_initial_state("mixed(a,b)")


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


def test_option_values_are_text():
    # option values are read as text; an axis given as a number is refused,
    # not a traceback
    with pytest.raises(ps.ConfigError, match="tau must be comma-separated"):
        ps.run_sweep({"tau": 0.1})
    with pytest.raises(ps.ConfigError, match="n_duty_values must be"):
        ps.build_scenario("fig3", {"n_duty_values": [10, 20]})


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
    path.write_text("[fig2]\ntau = 0.05\nt_max = 2.0\n\n"
                    "[sweep]\ntau = 0.05,0.1\nn_duty = 10\n")
    assert ps.load_config(path) == sections


def test_what_is_not_a_schedule_has_no_descriptor():
    with pytest.raises(ps.ConfigError, match="^unknown schedule object "):
        ps.format_schedule(object())


def test_scenario_config_refuses_an_unknown_scenario():
    with pytest.raises(ps.ConfigError, match="^unknown scenario 'fig9'$"):
        dataclasses.replace(ps.build_scenario("fig2"), scenario="fig9")


@pytest.mark.parametrize("kind", ["fig9", "sweep"])
def test_build_scenario_refuses_what_is_not_a_scenario(kind):
    # the sweep is a run kind with an option row, but no scenario: it
    # raised a raw KeyError for the tau its row lacks
    with pytest.raises(ps.ConfigError, match=f"^unknown scenario '{kind}'$"):
        ps.build_scenario(kind)


@pytest.mark.parametrize("value", [None, 1, []], ids=["none", "int", "list"])
@pytest.mark.parametrize("entry, expects", [
    (ps.time_grid, "time_grid takes a ScenarioConfig"),
    (ps.compute_trace, "compute_trace takes a ScenarioConfig"),
    (ps.check_fig2_ordering, "the ordering check takes an EvolutionTrace"),
    (ps.check_fig3_ordering, "the ordering check takes an EvolutionTrace"),
    (ps.parse_schedule, "a schedule descriptor is a str"),
    (ps.parse_initial_state, "an initial state is a str"),
    (ps.load_config, r"a config path is a str, bytes or os\.PathLike"),
], ids=["time-grid", "compute-trace", "fig2-ordering", "fig3-ordering",
        "schedule", "initial-state", "load-config"])
def test_entries_refuse_an_argument_of_the_wrong_type(entry, expects, value):
    # each raised a raw AttributeError or TypeError; load_config(1) read
    # and closed file descriptor 1
    with pytest.raises(ps.ConfigError,
                       match=rf"^{expects}; got {type(value).__name__}$"):
        entry(value)


def test_missing_config_rejected(tmp_path):
    with pytest.raises(ps.ConfigError):
        ps.load_config(tmp_path / "absent.ini")


def test_time_grid_contains_schedule_boundaries():
    # (scenario, options, boundaries the grid must hold)
    cases = [
        ("fig3", {}, [edge for m in range(1, 6)
                      for edge in (m * 0.2, (m - 1) * 0.2 + 0.18)]),
        # t_max between two uniform samples: the grid stops at t_max
        ("custom", {"schedules": "dd(0.1)", "t_max": "0.2999",
                    "samples_per_unit_time": "100"}, [0.1, 0.2]),
        # the window start of a cycle that t_max cuts
        ("custom", {"schedules": "dd-finite(0.3,7)|dd(0.11)", "t_max": "0.29",
                    "samples_per_unit_time": "100"}, [0.3 * 6 / 7, 0.11, 0.22]),
        # one cycle longer than t_max
        ("custom", {"schedules": "dd-finite(2.0,7)", "t_max": "1.9",
                    "samples_per_unit_time": "100"}, [2.0 * 6 / 7]),
    ]
    for scenario, options, edges in cases:
        cfg = ps.build_scenario(scenario, options)
        grid = ps.time_grid(cfg)
        assert all(b - a > 1e-12 for a, b in zip(grid, grid[1:]))
        assert grid[0] == 0.0 and abs(grid[-1] - cfg.t_max) < 1e-12, options
        for edge in edges:
            assert any(abs(g - edge) < 1e-9 for g in grid), (options, edge)


def _reference_grid(cfg):
    """The time grid by its definition, cycle by cycle: uniform samples up
    to t_max, then t_max, and every segment end up to t_max of every cycle
    that starts by t_max, merged greedily."""
    tol, spu, t_max = 1e-12, cfg.samples_per_unit_time, cfg.t_max
    points = [j / spu for j in range(round(t_max * spu) + 1)
              if j / spu <= t_max + tol]
    if points[-1] < t_max - tol:
        points.append(t_max)
    for sched in cfg.schedules:
        if sched is None:
            continue
        period, segments = sched.cycle.period, sched.cycle.segments
        inner = list(itertools.accumulate(d for d, _, _ in segments[:-1]))
        m = 1
        while (m - 1) * period <= t_max:
            ends = [m * period, *((m - 1) * period + e for e in inner)]
            points += [min(b, t_max) for b in ends if b <= t_max + tol]
            m += 1
    points.sort()
    grid = points[:1]
    for t in points[1:]:
        if t - grid[-1] > tol:
            grid.append(t)
    return grid


_PERIODS = st.floats(0.05, 1.5)
_DESCRIPTORS = st.one_of(
    st.just("none"),
    _PERIODS.map(lambda p: f"zeno({p!r})"),
    _PERIODS.map(lambda p: f"dd({p!r})"),
    st.builds(lambda p, n: f"dd-finite({p!r},{n})", _PERIODS,
              st.integers(2, 40)))


@given(st.lists(_DESCRIPTORS, min_size=1, max_size=3), st.floats(0.1, 3.0),
       st.integers(100, 400))
def test_time_grid_matches_its_definition(descriptors, t_max, spu):
    cfg = ps.build_scenario("custom", {"schedules": "|".join(descriptors),
                                       "t_max": repr(t_max),
                                       "samples_per_unit_time": str(spu)})
    # t_max is not a multiple of any period
    assume(all(abs(q - round(q)) > 1e-6
               for q in (t_max / s.cycle.period
                         for s in cfg.schedules if s is not None)))
    grid = ps.time_grid(cfg)
    assert grid.dtype == np.float64 and grid.tolist() == _reference_grid(cfg)


# time_grid as it was before it returned an array: sorted candidates merged
# by a per-point loop, kept as the reference for the run-walking merge
def _loop_grid(cfg):
    spu, t_max = cfg.samples_per_unit_time, cfg.t_max
    cycles = [dataclasses.astuple(s.cycle)
              for s in cfg.schedules if s is not None]
    uniform = np.arange(round(t_max * spu) + 1) / spu
    parts = [uniform[uniform <= t_max + 1e-12]]
    if parts[0][-1] < t_max - 1e-12:
        parts.append(np.array([t_max]))
    for period, segments in cycles:
        m1 = np.arange(t_max // period + 3.0)
        m1 = m1[m1 * period <= t_max]
        inner = itertools.accumulate(s[0] for s in segments[:-1])
        ends = np.concatenate([(m1 + 1.0) * period,
                               *(m1 * period + e for e in inner)])
        parts.append(np.minimum(ends[ends <= t_max + 1e-12], t_max))
    candidates = np.sort(np.concatenate(parts)).tolist()
    grid = [candidates[0]]
    for t in candidates[1:]:
        if t - grid[-1] > 1e-12:
            grid.append(t)
    return grid


def _trace_long_configs():
    """The benchmark's long-trace scenario on every reference entry."""
    path = Path(__file__).resolve().parent.parent / "perfbench/reference.json"
    entries = json.loads(path.read_text())["entries"]
    return [ps.build_scenario("custom", {
        "schedules": "none|zeno(0.1)|dd(0.1)|dd-finite(0.2,10)|"
                     "dd-finite(0.2,20)", "t_max": "20",
        "lam": e["inputs"]["lam"], "omega": e["inputs"]["omega"]})
        for e in entries]


def test_time_grid_matches_the_per_point_merge():
    configs = [ps.build_scenario(s) for s in ("fig1", "fig2", "fig3")]
    configs += _trace_long_configs()
    assert len(configs) == 3 + 16
    for cfg in configs:
        grid = ps.time_grid(cfg)
        assert grid.dtype == np.float64
        assert grid.tolist() == _loop_grid(cfg), cfg.schedules


@given(st.one_of(st.sampled_from([0.1, 0.2, 0.25]), st.floats(0.05, 0.5)),
       st.floats(3e-13, 1e-12), st.integers(3, 5), st.integers(2, 12),
       st.floats(0.3, 2.0))
def test_time_grid_merges_clustered_ends_greedily(period, step, count,
                                                  n_duty, t_max):
    # periods a relative step apart put the segment ends near time t of the
    # schedules in chains t step apart: about t = 1 the steps are under the
    # merge tolerance but the chains are not, so the greedy rule keeps a
    # point whose predecessor it dropped
    taus = [period * (1.0 + j * step) for j in range(count)]
    schedules = [f"dd({tau!r})" for tau in taus] + [
        f"dd-finite({tau!r},{n_duty})" for tau in taus]
    cfg = ps.build_scenario("custom", {"schedules": "|".join(schedules),
                                       "t_max": repr(t_max),
                                       "samples_per_unit_time": "100"})
    assert ps.time_grid(cfg).tolist() == _loop_grid(cfg)


def _doctored(trace, *edits):
    """trace with (column name, row, value) edits, columns as arrays."""
    columns = [np.array(column) for column in trace.columns]
    for name, row, value in edits:
        columns[trace.header.index(name)][row] = value
    return ps.EvolutionTrace(trace.header, columns, trace.metadata)


def _as_lists(trace):
    return ps.EvolutionTrace(trace.header, [np.asarray(c).tolist()
                                            for c in trace.columns],
                             trace.metadata)


def test_fig2_ordering_message():
    trace = ps.compute_trace(ps.build_scenario("fig2"))
    t = trace.column("t").tolist()
    half, early = t.index(0.5), t.index(0.15)
    cases = [
        ((("F_free", half, 0.999),),
         "t=0.5: F_dd=0.9968324290474482, F_zeno=0.9825735016431768, "
         "F_free=0.999"),
        # the first violation is named
        ((("F_zeno", half, 0.125), ("F_free", half + 7, 0.999)),
         "t=0.5: F_dd=0.9968324290474482, F_zeno=0.125, "
         "F_free=0.9320178982366"),
        # within two periods any drop below the next curve is one
        ((("F_dd", early, trace.column("F_zeno")[early] - 1e-9),),
         "t=0.15: F_dd=0.9955864554137364, F_zeno=0.9955864564137363, "
         "F_free=0.9923571201131408"),
    ]
    for edits, where in cases:
        doctored = _doctored(trace, *edits)
        for table in (doctored, _as_lists(doctored)):
            with pytest.raises(ps.ValidationFailure) as info:
                ps.check_fig2_ordering(table)
            assert str(info.value) == f"protocol ordering violated at {where}"
    # before the first pulse period has passed the curves may cross
    ps.check_fig2_ordering(_doctored(trace, ("F_free", t.index(0.05), 0.999)))


def test_fig3_ordering_message():
    trace = ps.compute_trace(ps.build_scenario("fig3"))
    last = len(trace.column("t")) - 1
    cases = [
        ((("F_free", last, 0.999),),
         "t=1.0: F_free=0.999 > F_ddN10=0.9883767337924078"),
        # the last free-segment sample is the one compared
        ((("segment", last, ps.IN_PULSE_SEGMENT), ("F_ddN20", last, 0.0)),
         "t=0.98: F_ddN20=0.9884296697577007 > F_dd=0.9884044963958503"),
    ]
    for edits, where in cases:
        doctored = _doctored(trace, *edits)
        for table in (doctored, _as_lists(doctored)):
            with pytest.raises(ps.ValidationFailure) as info:
                ps.check_fig3_ordering(table)
            assert str(info.value) == f"terminal ordering violated at {where}"


@pytest.mark.parametrize("check, scenario, name", [
    (ps.check_fig2_ordering, "fig1", "F_free"),
    (ps.check_fig3_ordering, "fig2", "segment"),
], ids=["fig2-check-of-fig1", "fig3-check-of-fig2"])
def test_trace_column_names_a_missing_column(check, scenario, name):
    trace = ps.compute_trace(ps.build_scenario(scenario))
    with pytest.raises(ps.ConfigError,
                       match=f"the trace has no '{name}' column; it has t, "):
        check(trace)


def test_fig3_ordering_refuses_a_trace_with_no_free_sample():
    trace = ps.compute_trace(ps.build_scenario("fig3"))
    rows = len(trace.column("t"))
    doctored = _doctored(trace, *(("segment", row, ps.IN_PULSE_SEGMENT)
                                  for row in range(rows)))
    with pytest.raises(ps.ConfigError, match="needs a free-segment sample"):
        ps.check_fig3_ordering(doctored)


def test_fig2_ordering_refuses_a_trace_of_free_decay_alone():
    # no schedule has a period to wait for; max() of no periods raised a
    # raw ValueError
    cfg = ps.build_scenario("custom", {"schedules": "none"})
    trace = ps.compute_trace(cfg)
    with pytest.raises(ps.ConfigError, match="every schedule of the trace"):
        ps.check_fig2_ordering(trace)


def test_option_and_run_tables_agree():
    options, runs = scenarios._OPTIONS, scenarios._RUNS
    # every option is read by some run, and no run reads one flag twice
    assert set(options) == {key for row in runs.values() for key in row}
    for run, row in runs.items():
        flags = [options[key].flag for key in row]
        assert len(flags) == len(set(flags)), run
    # the kinds' argument keys and the sweep's axes are its numeric keys
    numeric = {key for key in runs["sweep"] if options[key].type is not str}
    assert {key for kind in scenarios._KINDS.values()
            for key in kind.keys} <= numeric
    values = {"n_duty": "10", "initial_state": "dark", "run_id": "probe"}
    axes = set()
    for key in runs["sweep"]:
        trace = ps.run_sweep({"tau": "0.1", key: values.get(key, "1.5")})
        axes |= set(trace.header) & set(runs["sweep"])
    assert axes == numeric


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


def test_sweep_single_cell_matches_fig2_terminals(case1):
    trace = ps.run_sweep({"tau": "0.1"})
    assert trace.header == ["tau", "F_free", "F_zeno", "F_dd"]
    assert len(trace.rows) == 1
    row = trace.rows[0]
    assert row[0] == 0.1
    assert row[1] == pytest.approx(ETA_10, abs=1e-13)
    assert row[2] == pytest.approx(ZENO_1, abs=1e-13)
    assert row[3] == pytest.approx(XI_1, abs=1e-13)
    # a given delta_t, not tau, sets the measurement interval
    trace = ps.run_sweep({"tau": "0.1", "delta_t": "0.05"})
    assert trace.header == ["delta_t", "tau", "F_free", "F_zeno", "F_dd"]
    (row,) = trace.rows
    state = ps.OddParityState.superradiant()
    assert row[3] == ps.zeno_fidelity(state, 1.0, ps.ZenoSchedule(0.05), case1)
    assert row[3] != pytest.approx(ZENO_1, abs=1e-6)
    assert row[4] == pytest.approx(XI_1, abs=1e-13)


def test_sweep_protection_monotone_in_interval():
    trace = ps.run_sweep({"tau": "0.05,0.1,0.2"})
    taus = trace.column("tau")
    assert list(taus) == sorted(taus)
    f_dd = trace.column("F_dd")
    assert all(a > b for a, b in zip(f_dd, f_dd[1:]))
    f_zeno = trace.column("F_zeno")
    assert all(a > b for a, b in zip(f_zeno, f_zeno[1:]))
    # delta_t alone describes measurement only
    trace = ps.run_sweep({"delta_t": "0.05,0.1"})
    assert trace.header == ["delta_t", "F_free", "F_zeno"]
    f_zeno = trace.column("F_zeno")
    assert all(a > b for a, b in zip(f_zeno, f_zeno[1:]))


def test_sweep_two_axes_lexicographic():
    trace = ps.run_sweep({"tau": "0.1,0.2", "n_duty": "20,10"})
    assert trace.header == ["n_duty", "tau", "F_free", "F_zeno", "F_dd",
                            "F_ddN"]
    coords = [(row[0], row[1]) for row in trace.rows]
    assert coords == [(10, 0.1), (10, 0.2), (20, 0.1), (20, 0.2)]
    assert trace.column("n_duty").dtype.kind == "i"


def test_sweep_row_is_the_closed_form_alone():
    # a column is one evaluation over all cells; each of its values must be
    # the bits of that cell's own closed-form call
    trace = ps.run_sweep({"r_rate": "0.5,1,3", "tau": "0.1,0.3",
                          "delta_t": "0.2,0.05", "n_duty": "4,10",
                          "t_max": "1,3.7",
                          "initial_state": "mixed(0.6,0.8j)"})
    assert trace.header == ["delta_t", "n_duty", "r_rate", "t_max", "tau",
                            "F_free", "F_zeno", "F_dd", "F_ddN"]
    assert [row[:5] for row in trace.rows] == list(itertools.product(
        [0.05, 0.2], [4, 10], [0.5, 1.0, 3.0], [1.0, 3.7], [0.1, 0.3]))
    state, _ = ps.parse_initial_state("mixed(0.6,0.8j)")
    branches = set()
    for delta_t, n_duty, rate, t, tau, *values in trace.rows:
        p = ps.ModelParams.from_effective_rate(2.0, rate)
        branches.add(p.branch)
        finite, _ = ps.fidelity(state, t, ps.FinitePulseSchedule(tau, n_duty),
                                p)
        assert values == [ps.free_fidelity(state, t, p),
                          ps.fidelity(state, t, ps.ZenoSchedule(delta_t), p),
                          ps.fidelity(state, t, ps.DdSchedule(tau), p),
                          finite]
    assert len(branches) == 3


def test_sweep_empty_and_capped(monkeypatch):
    empty = ps.run_sweep({})
    assert empty.rows == [] and empty.header == ["F_free"]
    assert [list(column) for column in empty.columns] == [[]]

    def built(*args):
        raise AssertionError("a record was built")
    monkeypatch.setattr(ps.ModelParams, "__post_init__", built)
    lams = ",".join(f"{1.0 + i / 1000}" for i in range(1001))
    taus = ",".join(f"{0.1 + i / 10000}" for i in range(1000))
    with pytest.raises(ps.ConfigError) as info:
        ps.run_sweep({"lam": lams, "tau": taus})
    assert str(info.value) == ("sweep has 1001000 cells, exceeding the cap "
                               "of 1000000")


@pytest.mark.parametrize("options", [
    {}, {"tau": "0.1"}, {"tau": "0.1,0.2", "n_duty": "20,10"},
    {"r_rate": "0.5,1", "delta_t": "0.05", "t_max": "1,2"}],
    ids=["empty", "one-cell", "duty", "rate"])
def test_sweep_columns_are_arrays(options):
    # the columns the sweep computed, not a list copy of them
    trace = ps.run_sweep(options)
    assert trace.columns and all(
        isinstance(column, np.ndarray) for column in trace.columns)


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


def test_sweep_builds_one_record_and_one_schedule_per_kind(monkeypatch):
    # the cells are columns: 10^4 cells run each __post_init__ as often as 4
    # cells do, once per sweep and kind
    counts = {}
    for cls in (ps.ModelParams, ps.ZenoSchedule, ps.DdSchedule,
                ps.FinitePulseSchedule):
        def counted(self, *args, real=cls.__post_init__, name=cls.__name__):
            counts[name] = counts.get(name, 0) + 1
            return real(self, *args)
        monkeypatch.setattr(cls, "__post_init__", counted)

    def runs(lams):
        counts.clear()
        trace = ps.run_sweep({"lam": ",".join(map(repr, lams)),
                              "omega": "0.5", "tau": "0.1,0.2",
                              "n_duty": "10,20", "t_max": "1"})
        assert len(trace.column("F_ddN")) == 4 * len(lams)
        return dict(counts)

    once = {"ModelParams": 1, "ZenoSchedule": 1, "DdSchedule": 1,
            "FinitePulseSchedule": 1}
    assert runs([2.0]) == runs(np.linspace(1.0, 3.0, 2500).tolist()) == once
