from __future__ import annotations

import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

import parityshield as ps
from parityshield import oracle, validation
from parityshield.validation import _CHECKS

REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench"
             / "reference.json")


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


def test_nan_tolerance_rejected():
    with pytest.raises(ps.ConfigError, match="dd_slope_reversal"):
        ps.run_validation({"dd_slope_reversal": math.nan})


# True once ran as a tolerance of 1.0
@pytest.mark.parametrize("tol", ["1", None, 1j, True])
def test_non_numeric_tolerance_rejected(tol):
    with pytest.raises(ps.ConfigError, match="dd_slope_reversal"):
        ps.run_validation({"dd_slope_reversal": tol})


def test_infinite_tolerance_allowed():
    report = ps.run_validation({"dd_slope_reversal": math.inf})
    slope = next(r for r in report.results if r.name == "dd_slope_reversal")
    assert slope.tolerance == math.inf and slope.passed


@pytest.mark.parametrize("overrides", ["abc", 5, [("dd_slope_reversal",)]],
                         ids=["string", "number", "short-pair"])
def test_overrides_that_are_not_pairs_rejected(overrides):
    # refused before any check runs, not as a raw ValueError or TypeError
    with pytest.raises(ps.ConfigError, match="must be name-value pairs"):
        ps.run_validation(overrides)


def test_overrides_as_pairs_accepted():
    # a sequence of (name, tolerance) pairs works as a mapping does
    report = ps.run_validation([("dd_slope_reversal", math.inf)])
    slope = next(r for r in report.results if r.name == "dd_slope_reversal")
    assert slope.tolerance == math.inf and slope.passed


def test_each_oracle_run_integrated_once(monkeypatch):
    runs = {"_run_augmented": 12, "_run_quadrature": 2}
    counts = dict.fromkeys(runs, 0)
    for name in runs:
        def counted(*args, _name=name, _run=getattr(oracle, name)):
            counts[_name] += 1
            return _run(*args)
        monkeypatch.setattr(oracle, name, counted)
    ps.run_validation()
    assert counts == runs


def test_free_closed_form_on_the_trace_times_evaluated_once(monkeypatch):
    # both free closed-form rows read one evaluation, at the times of the
    # dt = 1e-4 traces on [0, 1]
    sizes = []

    def counted(t, params, _free=validation.free_survival):
        sizes.append(np.size(t))
        return _free(t, params)
    monkeypatch.setattr(validation, "free_survival", counted)
    ps.run_validation()
    assert sizes.count(10_001) == 1


def test_trace_lives_from_first_to_last_reader(monkeypatch):
    # each oracle trace exists exactly while the rows that read it run
    made: dict = {}
    real_integrate = validation._integrate

    def integrate(run):
        trace = real_integrate(run)
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
