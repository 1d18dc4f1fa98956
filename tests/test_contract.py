"""The type contract of every public entry: an argument of the wrong type is
refused with a ParityShieldError, never a raw exception or a warning.

Each row of _ROWS is a public entry with valid baseline arguments.  Every
argument is replaced in turn by each value of _WRONG; the call must return
or raise a ParityShieldError subclass, with every warning an error.  Left
to the numeric corpus of ROADMAP item 29: numbers past the float range
(10**400), arrays, +-inf and NaN in each argument, and the command line's
argv.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import astuple, fields
from types import SimpleNamespace

import numpy as np
import pytest

import parityshield as ps

_WRONG = ("x", None, [0.1], (0.1,), True, {}, object())

_P = ps.ModelParams.from_mode_splitting(2.0, 1.0)
_STATE = ps.OddParityState(0.6, 0.8)
_DD = ps.DdSchedule(0.1)
_F10 = ps.FinitePulseSchedule(0.2, 10)
_ZENO = ps.ZenoSchedule(0.1)
_ORACLE = ps.OracleConfig()
_FIG2 = ps.build_scenario("fig2", {"samples_per_unit_time": "100"})
# before the first window every curve is free decay, so the terminal
# ordering holds (past it, criterion 06 fails by design)
_FIG3 = ps.build_scenario("fig3", {"samples_per_unit_time": "100",
                                   "t_max": "0.15"})
_RESULT = ps.CheckResult("free_norm_monotone", 0.0, 1.0, "<=", True)
# stands for the path of a config file the test writes
_INI = object()

# entry name -> (entry, baseline arguments); a name with a dot is a
# classmethod or method
_ROWS = {
    **{name: (getattr(ps, name), ("message",)) for name in (
        "ParityShieldError", "ConfigError", "ParameterError", "StateError",
        "ValidationFailure")},
    "ModelParams": (ps.ModelParams, (2.0, 1.0, 0.6, 0.8)),
    "ModelParams.from_effective_rate": (ps.ModelParams.from_effective_rate,
                                        (2.0, 0.5)),
    "ModelParams.from_mode_splitting": (ps.ModelParams.from_mode_splitting,
                                        (2.0, 1.0)),
    "OddParityState": (ps.OddParityState, (0.6, 0.8)),
    "OddParityState.initial": (ps.OddParityState.initial, (0.6, 0.8)),
    "OddParityState.dark": (ps.OddParityState.dark, ()),
    "OddParityState.superradiant": (ps.OddParityState.superradiant, ()),
    "PhysicalAmplitudes": (ps.PhysicalAmplitudes, (0.6, 0.8)),
    "PhysicalAmplitudes.initial": (ps.PhysicalAmplitudes.initial, (0.6, 0.8)),
    "decompose": (ps.decompose, (ps.PhysicalAmplitudes(0.6, 0.8), _P)),
    "recompose": (ps.recompose, (_STATE, _P)),
    **{name: (getattr(ps, name), (0.5, sched, _P)) for name, sched in (
        ("survival", _DD), ("zeno_amplitude", _ZENO),
        ("dd_survival", _DD), ("finite_dd_survival", _F10))},
    **{name: (getattr(ps, name), (_STATE, 0.5, sched, _P))
       for name, sched in (
           ("fidelity", _DD), ("zeno_fidelity", _ZENO),
           ("dd_fidelity", _DD), ("finite_dd_fidelity", _F10))},
    **{name: (getattr(ps, name), (3, sched, _P)) for name, sched in (
        ("coefficients", _DD), ("dd_coefficients", _DD),
        ("finite_dd_coefficients", _F10))},
    "free_survival": (ps.free_survival, (0.5, _P)),
    "free_survival_slope": (ps.free_survival_slope, (0.5, _P)),
    "free_fidelity": (ps.free_fidelity, (_STATE, 0.5, _P)),
    "ZenoSchedule": (ps.ZenoSchedule, (0.1,)),
    "DdSchedule": (ps.DdSchedule, (0.1,)),
    "FinitePulseSchedule": (ps.FinitePulseSchedule, (0.2, 10)),
    "FinitePulseSchedule.segment_of": (_F10.segment_of, (0.5,)),
    "RecursionCoeffs": (ps.RecursionCoeffs, (1.0, 0.0, 0)),
    "RecursionCoeffs.from_state": (ps.RecursionCoeffs.from_state,
                                   (1.0, 0.0, 0, _P)),
    "OracleConfig": (ps.OracleConfig, (1e-4, 4, ps.EXACT_AUGMENTED)),
    "OracleTrace": (ps.OracleTrace, astuple(
        ps.integrate_free(_P, 0.01, _ORACLE))),
    **{name: (getattr(ps, name), (_P, sched, 0.01, _ORACLE, _STATE))
       for name, sched in (("integrate", _DD), ("integrate_dd", _DD),
                           ("integrate_finite", _F10))},
    "integrate_free": (ps.integrate_free, (_P, 0.01, _ORACLE, _STATE)),
    "ScenarioConfig": (ps.ScenarioConfig, tuple(
        getattr(_FIG2, f.name) for f in fields(_FIG2))),
    "EvolutionTrace": (ps.EvolutionTrace, (["t"], [np.zeros(1)], {})),
    "build_scenario": (ps.build_scenario, ("fig2", {"tau": "0.2"})),
    "compute_trace": (ps.compute_trace, (_FIG2,)),
    "time_grid": (ps.time_grid, (_FIG2,)),
    "parse_schedule": (ps.parse_schedule, ("dd(0.1)",)),
    "format_schedule": (ps.format_schedule, (_DD,)),
    "parse_initial_state": (ps.parse_initial_state, ("mixed(0.6,0.8)",)),
    "load_config": (ps.load_config, (_INI,)),
    "run_sweep": (ps.run_sweep, ({"tau": "0.1,0.2"},)),
    "check_fig2_ordering": (ps.check_fig2_ordering,
                            (ps.compute_trace(_FIG2),)),
    "check_fig3_ordering": (ps.check_fig3_ordering,
                            (ps.compute_trace(_FIG3),)),
    "CheckResult": (ps.CheckResult, astuple(_RESULT)),
    "ValidationReport": (ps.ValidationReport, ([_RESULT],)),
    "run_validation": (ps.run_validation, ({"free_norm_monotone": 1.0},)),
}


def _public_entries():
    """Every callable of the package's __all__ and the classmethods of its
    classes."""
    for name in ps.__all__:
        entry = getattr(ps, name)
        if not callable(entry):
            continue
        yield name
        if inspect.isclass(entry):
            yield from (f"{name}.{key}" for key, value in vars(entry).items()
                        if isinstance(value, classmethod))


def test_every_public_entry_has_a_row():
    assert sorted(set(_public_entries()) - set(_ROWS)) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(_ROWS))
def test_wrong_types_are_refused(name, tmp_path):
    entry, args = _ROWS[name]
    ini = tmp_path / "run.ini"
    ini.write_text("[fig1]\ntau = 0.2\n", encoding="utf-8")
    args = tuple(ini if a is _INI else a for a in args)
    raw = []
    for i, wrong in [(None, None), *itertools.product(range(len(args)),
                                                       _WRONG)]:
        call = args if i is None else (*args[:i], wrong, *args[i + 1:])
        try:
            entry(*call)
        except ps.ParityShieldError:
            if i is None:
                raise
        except Exception as exc:
            raw.append(f"argument {i} = {wrong!r}: {type(exc).__name__}: "
                       f"{exc}")
    assert raw == []


@pytest.mark.filterwarnings("error")
def test_single_and_half_precision_inputs_give_their_float64_values():
    # a Python float constant takes the type of a float32 or float16
    # operand (NEP 50): 2.0 ** 511 and 1e7 overflowed it with "RuntimeWarning:
    # overflow encountered in cast"
    tau, p64 = float(np.float32(0.1)), ps.ModelParams(2.0, 1.0, 0.6, 0.8)
    want = ps.survival(0.5, ps.DdSchedule(tau), p64)
    assert ps.survival(0.5, ps.DdSchedule(np.float32(0.1)), p64) == want
    # a cycle of float32 durations reaches the time positions as it is
    cycle32 = ps.model.Cycle(np.float32(0.1), ((np.float32(0.1), 0.0, -1.0),))
    assert ps.survival(0.5, SimpleNamespace(cycle=cycle32), p64) == want
    p32 = ps.ModelParams(np.float32(2.0), np.float32(1.0), 0.6, 0.8)
    assert ps.survival(0.5, _DD, p32) == pytest.approx(
        ps.survival(0.5, _DD, p64), rel=1e-6)
    np.testing.assert_array_equal(
        ps.integrate(_P, None, np.float16(0.5), _ORACLE).beta2,
        ps.integrate(_P, None, 0.5, _ORACLE).beta2)
