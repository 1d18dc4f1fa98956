from __future__ import annotations

import json
import math
import weakref
from pathlib import Path

import pytest

import parityshield as ps
from parityshield import oracle, validation
from parityshield.validation import _CHECKS

REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench"
             / "reference.json")

# the checks that run on the direct-quadrature backend or on no oracle
_QUADRATURE_ONLY = {
    "free_closed_form_vs_quadrature",
    "zeno_composition_identity",
    "zeno_quadratic_limit",
    "dd_slope_reversal",
    "dd_interval_ode_residual",
    "finite_window_edge_continuity",
    "finite_free_segment_ode_residual",
    "finite_instantaneous_limit",
    "finite_limit_monotone_in_n",
}

# the checks that run on the exact-augmented backend or on no oracle
_AUGMENTED_ONLY = {
    "free_closed_form_vs_augmented",
    "free_norm_monotone",
    "dark_state_frozen",
    "zeno_composition_identity",
    "zeno_quadratic_limit",
    "dd_recursion_vs_augmented",
    "dd_slope_reversal",
    "dd_interval_ode_residual",
    "finite_map_vs_oracle_n10",
    "finite_map_vs_oracle_n20",
    "finite_window_edge_continuity",
    "finite_free_segment_ode_residual",
    "finite_instantaneous_limit",
    "finite_limit_monotone_in_n",
    "dark_protected_all_protocols",
    "convergence_order_rk4",
    "convergence_order_rk2",
}


def test_both_backends_run_every_check():
    report = ps.run_validation()
    names = [r.name for r in report.results]
    assert sorted(names) == sorted(row.name for row in _CHECKS)
    assert len(names) == 20
    assert report.ok, [r.line() for r in report.results if not r.passed]


def test_report_order_matches_benchmark_reference():
    # the benchmark compares validate's lines with this recorded order
    checks = json.loads(REFERENCE.read_text())["validate"]["checks"]
    assert [r.name for r in ps.run_validation().results] == checks


def test_augmented_backend_alone():
    report = ps.run_validation(oracle_modes=(ps.EXACT_AUGMENTED,))
    names = [r.name for r in report.results]
    assert sorted(names) == sorted(_AUGMENTED_ONLY)
    assert report.ok, [r.line() for r in report.results if not r.passed]


def test_quadrature_backend_alone():
    report = ps.run_validation(oracle_modes=(ps.DIRECT_QUADRATURE,))
    names = [r.name for r in report.results]
    assert sorted(names) == sorted(_QUADRATURE_ONLY)
    assert report.ok, [r.line() for r in report.results if not r.passed]


def test_nan_tolerance_rejected():
    with pytest.raises(ps.ConfigError, match="dd_slope_reversal"):
        ps.run_validation({"dd_slope_reversal": math.nan})


@pytest.mark.parametrize("tol", ["1", None, 1j])
def test_non_numeric_tolerance_rejected(tol):
    with pytest.raises(ps.ConfigError, match="dd_slope_reversal"):
        ps.run_validation({"dd_slope_reversal": tol})


def test_non_numeric_step_rejected():
    with pytest.raises(ps.ConfigError, match="step"):
        ps.run_validation(dt_num="1e-4")


def test_infinite_tolerance_allowed():
    report = ps.run_validation({"dd_slope_reversal": math.inf},
                               oracle_modes=(ps.DIRECT_QUADRATURE,))
    slope = next(r for r in report.results if r.name == "dd_slope_reversal")
    assert slope.tolerance == math.inf and slope.passed


@pytest.mark.parametrize("modes", [(), ("rk45",),
                                   (ps.EXACT_AUGMENTED, "rk45")])
def test_bad_oracle_modes_rejected(modes):
    with pytest.raises(ps.ConfigError):
        ps.run_validation(oracle_modes=modes)


@pytest.mark.parametrize("modes", [ps.EXACT_AUGMENTED, "rk45", ""])
def test_bare_string_oracle_modes_rejected(modes):
    # a string is one name, not a set of its characters
    with pytest.raises(ps.ConfigError, match=f"need a tuple, got {modes!r}$"):
        ps.run_validation(oracle_modes=modes)


@pytest.mark.parametrize("modes, runs", [
    ((ps.EXACT_AUGMENTED, ps.DIRECT_QUADRATURE),
     {"_run_augmented": 12, "_run_quadrature": 2}),
    ((ps.EXACT_AUGMENTED,), {"_run_augmented": 12, "_run_quadrature": 0}),
    ((ps.DIRECT_QUADRATURE,), {"_run_augmented": 0, "_run_quadrature": 1}),
])
def test_each_oracle_run_integrated_once(monkeypatch, modes, runs):
    counts = dict.fromkeys(runs, 0)
    for name in runs:
        def counted(*args, _name=name, _run=getattr(oracle, name)):
            counts[_name] += 1
            return _run(*args)
        monkeypatch.setattr(oracle, name, counted)
    ps.run_validation(oracle_modes=modes)
    assert counts == runs


def test_trace_lives_from_first_to_last_reader(monkeypatch):
    # each oracle trace exists exactly while the rows that read it run
    made: dict = {}
    real_integrate = validation._integrate

    def integrate(run, dt_num):
        trace = real_integrate(run, dt_num)
        made[run] = weakref.ref(trace)
        return trace

    live: list[set] = []

    def watched(row):
        def measure(*args):
            live.append({run for run, ref in made.items()
                         if ref() is not None})
            return row.measure(*args)
        return row._replace(measure=measure)

    monkeypatch.setattr(validation, "_integrate", integrate)
    monkeypatch.setattr(validation, "_CHECKS", tuple(map(watched, _CHECKS)))
    ps.run_validation()
    runs = [{src for src in row.inputs if isinstance(src, validation._Run)}
            for row in _CHECKS]
    readers = {run: [i for i, rs in enumerate(runs) if run in rs]
               for run in set().union(*runs)}
    assert len(readers) == 14
    assert live == [{run for run, at in readers.items()
                     if at[0] <= i <= at[-1]} for i in range(len(_CHECKS))]
