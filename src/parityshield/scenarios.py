"""Experiment scenarios: named comparison runs, sweeps, config plumbing.

A scenario bundles model parameters, a set of protocol schedules, a time
grid, and an initial state.  The three canonical comparison runs are:

* fig1: instantaneous pulses vs repeated measurement at equal interval.
* fig2: those two against free decay, with an ordering check.
* fig3: finite-duration pulses (two duty settings) against the
  instantaneous limit and free decay, with a terminal ordering check.

Every scenario runs the same way: ``compute_trace`` evaluates one column
per schedule, and the CLI writes it out and applies the scenario's
ordering check, if it has one.

Configs are flat INI files, one section per scenario; a run reads the
keys its row of the run table lists, each also the command-line flag the
option table gives it, and refuses any other.  Schedules serialize as
compact descriptors: none | zeno(dt) | dd(tau) | dd-finite(tau,N).
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import re
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import astuple, dataclass

import numpy as np

from ._version import __version__
from .errors import ConfigError, StateError, ValidationFailure, expect, refuse
from .model import ModelParams, OddParityState
from .transfer import (FREE_SEGMENT, IN_PULSE_SEGMENT, DdSchedule,
                       FinitePulseSchedule, ZenoSchedule, dd_fidelity,
                       finite_dd_fidelity, free_fidelity, zeno_fidelity)

SCENARIO_IDS = ("fig1", "fig2", "fig3", "custom")

# merging tolerance when snapping schedule boundaries into the time grid
_MERGE_TOL = 1e-12

# most points in a time grid: at 0.67 KiB a point (five schedules), 6.5 GiB
_MAX_GRID_POINTS = 1e7

# most cells in a sweep: four columns took 43.5 MiB at 10^4 cells and 138.2
# MiB at 10^5 (ru_maxrss), about 1.1 KiB a cell, so 10^6 take about 1.1 GiB
MAX_SWEEP_CELLS = 10 ** 6

# descriptor kind -> (schedule class, column name, sweep keys supplying the
# arguments, each of its key's type) in trace column order; free decay is the
# schedule None (type(None)() is None); a trace appends the duty parameter.
_Kind = namedtuple("_Kind", "cls column keys")
_KINDS = {
    "none": _Kind(type(None), "F_free", ()),
    "zeno": _Kind(ZenoSchedule, "F_zeno", ("delta_t",)),
    "dd": _Kind(DdSchedule, "F_dd", ("tau",)),
    "dd-finite": _Kind(FinitePulseSchedule, "F_ddN", ("tau", "n_duty")),
}
_KIND_OF = {row.cls: kind for kind, row in _KINDS.items()}

# longest kind first, so dd-finite is not read as dd
_SCHEDULE_RE = re.compile(r"^\s*(%s)\s*(?:\((.*)\))?\s*$"
                          % "|".join(sorted(_KINDS, key=len, reverse=True)))


# ---------------------------------------------------------------------------
# descriptors

def parse_schedule(text: str):
    """Descriptor -> schedule object (None stands for free evolution)."""
    expect(ConfigError, text, str, "a schedule descriptor is a str")
    m = _SCHEDULE_RE.match(text)
    if not m:
        raise ConfigError(f"unrecognized schedule descriptor {text!r}")
    kind, args = m.groups()
    cls, _, keys = _KINDS[kind]
    parts = [p.strip() for p in args.split(",")] if args else []
    if len(parts) != len(keys):
        raise ConfigError(
            f"{kind!r} takes {len(keys)} argument(s), got {text!r}")
    texts = dict(zip(keys, parts))
    try:
        values = [_number(texts, key) for key in keys]
    except ConfigError as exc:
        raise ConfigError(f"bad schedule descriptor {text!r}: {exc}") from exc
    return cls(*values)


def format_schedule(sched) -> str:
    kind = _KIND_OF.get(type(sched))
    if kind is None:
        raise ConfigError(f"unknown schedule object {sched!r}")
    if sched is None:
        return kind
    return f"{kind}({','.join(map(repr, astuple(sched)))})"


def parse_initial_state(text: str) -> tuple[OddParityState, str]:
    """Named initial state -> (state, canonical name)."""
    expect(ConfigError, text, str, "an initial state is a str")
    body = text.strip()
    if body in ("dark", "superradiant"):
        return getattr(OddParityState, body)(), body
    m = re.match(r"^mixed\((.+),(.+)\)$", body)
    if m:
        try:
            b1 = complex(m.group(1).strip())
            b2 = complex(m.group(2).strip())
        except ValueError as exc:
            raise ConfigError(f"bad mixed-state amplitudes in {text!r}") from exc
        state = OddParityState.initial(b1, b2)
        return state, f"mixed({b1!r},{b2!r})"
    raise ConfigError(f"unrecognized initial state {text!r}")


# ---------------------------------------------------------------------------
# scenario configuration

@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    params: ModelParams
    schedules: tuple
    t_max: float
    samples_per_unit_time: int
    initial_state: OddParityState
    initial_state_name: str
    run_id: str

    def __post_init__(self):
        expect(ConfigError, self.schedules, (tuple, list),
               "schedules are a tuple or list of schedules")
        for key in ("t_max", "samples_per_unit_time"):
            expect(ConfigError, getattr(self, key), (numbers.Real, np.ndarray),
                   f"{key} must be a real number")
        if self.scenario not in SCENARIO_IDS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not (0.0 < self.t_max < math.inf):
            raise ConfigError(f"t_max must be finite and positive, got {self.t_max}")
        if self.t_max <= _MERGE_TOL:  # the grid would merge it into t = 0
            raise ConfigError(f"t_max must be above the grid merge tolerance "
                              f"{_MERGE_TOL}, got {self.t_max}")
        if any(type(sched) not in _KIND_OF for sched in self.schedules):
            raise ConfigError(f"unknown schedule object in {self.schedules!r}")
        if self.samples_per_unit_time < 100:
            raise ConfigError(
                "samples_per_unit_time must be at least 100, got "
                f"{self.samples_per_unit_time}")


# option key -> (flag, value type, help); a numeric key of type int reads
# whole numbers ("10", not "10.0")
_Option = namedtuple("_Option", "flag type help")
_OPTIONS = {key: _Option(*row) for key, *row in (
    ("lam", "--lambda", float, "reservoir correlation decay rate"),
    ("omega", "--omega", float, "effective mode splitting"),
    ("r_rate", "--r-rate", float,
     "collective coupling rate (alternative to --omega)"),
    ("tau", "--tau", float, "pulse repetition interval"),
    ("delta_t", "--delta-t", float,
     "measurement interval (defaults to --tau)"),
    ("n_duty", "--n-duty", int, "duty parameter (single value or axis list)"),
    ("n_duty_values", "--n-duty", int, "comma-separated duty parameters"),
    ("t_max", "--t-max", float, "evolution horizon"),
    ("samples_per_unit_time", "--samples-per-unit-time", int,
     "uniform sampling density of the output table"),
    ("initial_state", "--initial-state", str,
     "dark | superradiant | mixed(b1,b2)"),
    ("run_id", "--run-id", str, "identifier recorded in the output metadata"),
    ("schedules", "--schedules", str, "pipe-separated descriptors, e.g. "
     "'none|zeno(0.1)|dd(0.1)|dd-finite(0.2,10)'"),
)}

# run -> every key it reads, in flag order, with its default text (None: no
# default); a key outside the row is refused.  The sweep reads the
# scenarios' shared keys but samples_per_unit_time, with their defaults.
_RUNS = {run: {"lam": "2.0", "omega": "1.0", "r_rate": None, "t_max": "1.0",
               "samples_per_unit_time": "2000",
               "initial_state": "superradiant", "run_id": None, **own}
         for run, own in (("fig1", {"tau": "0.1", "delta_t": None}),
                          ("fig2", {"tau": "0.1", "delta_t": None}),
                          ("fig3", {"tau": "0.2", "n_duty_values": "10,20"}),
                          ("custom", {"schedules": "none"}))}
_RUNS["sweep"] = {key: _RUNS["custom"].get(key) for key in (
    "lam", "omega", "r_rate", "tau", "delta_t", "n_duty", "t_max",
    "initial_state", "run_id")}


def option_keys(kind: str) -> dict[str, str | None]:
    """The row of a run of kind (a scenario id or "sweep"): each key it
    reads, in flag order, with its default text or None."""
    if kind not in _RUNS:
        raise ConfigError(f"unknown scenario {kind!r}")
    return dict(_RUNS[kind])


def option_flag(key: str) -> tuple[str, str]:
    """(flag, help) of an option key."""
    return _OPTIONS[key].flag, _OPTIONS[key].help


def _merged(kind: str, options: dict | None) -> tuple[dict, set[str]]:
    """(defaults updated by the given options, the given keys) for a run
    of kind; options that are not a mapping or None, or a key the run does
    not read, are refused."""
    expect(ConfigError, options, (Mapping, type(None)),
           f"{kind} options are a mapping of keys to texts, or None")
    options = options or {}
    row = option_keys(kind)
    unread = sorted(set(options) - set(row))
    if unread:
        raise ConfigError(f"{kind} does not read {', '.join(unread)}; "
                          f"it reads {', '.join(row)}")
    given = {k: v for k, v in options.items() if v is not None}
    defaults = {k: v for k, v in row.items() if v is not None}
    return {**defaults, **given}, set(given)


def _number(opts: dict, key: str, many: bool = False):
    """Text opts[key] as its key's type; many: (number, stripped text) pairs
    of comma-separated text by number.  ConfigError names a bad text's key."""
    text, kind = opts[key], _OPTIONS[key].type
    try:
        if many:
            return sorted(((kind(p), p.strip()) for p in text.split(",")),
                          key=lambda pair: pair[0])
        return kind(text)
    except (AttributeError, TypeError, ValueError) as exc:
        noun = "number" if kind is float else "whole number"
        what = f"comma-separated {noun}s" if many else f"a {noun}"
        raise ConfigError(f"{key} must be {what}, got {text!r}") from exc


def _rate(given: set[str]):
    """(rate key, ModelParams constructor): r_rate if given, else omega."""
    if "r_rate" not in given:
        return "omega", ModelParams.from_mode_splitting
    if "omega" in given:
        raise ConfigError("give either omega or r_rate, not both")
    return "r_rate", ModelParams.from_effective_rate


def build_scenario(scenario: str, options: dict[str, str] | None = None) -> ScenarioConfig:
    """Assemble a ScenarioConfig from merged config/CLI key-value options;
    ConfigError for a run kind that is not a scenario, as "sweep" is."""
    if scenario not in SCENARIO_IDS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    opts, given = _merged(scenario, options)
    lam, (rate_key, make_params) = _number(opts, "lam"), _rate(given)
    params = make_params(lam, _number(opts, rate_key))
    state, state_name = parse_initial_state(opts["initial_state"])

    if scenario == "custom":
        schedules = tuple(parse_schedule(s)
                          for s in opts["schedules"].split("|"))
    else:
        tau = _number(opts, "tau")
        # unless given, measure at the pulse interval (equal frequency)
        delta_t = _number(opts, "delta_t" if "delta_t" in opts else "tau")
        if scenario == "fig1":
            schedules = (ZenoSchedule(delta_t), DdSchedule(tau))
        elif scenario == "fig2":
            schedules = (None, ZenoSchedule(delta_t), DdSchedule(tau))
        else:
            ns = _number(opts, "n_duty_values", many=True)
            schedules = (None, *(FinitePulseSchedule(tau, n) for n, _ in ns),
                         DdSchedule(tau))
    return ScenarioConfig(
        scenario=scenario,
        params=params,
        schedules=schedules,
        t_max=_number(opts, "t_max"),
        samples_per_unit_time=_number(opts, "samples_per_unit_time"),
        initial_state=state,
        initial_state_name=state_name,
        run_id=opts.get("run_id", scenario),
    )


def load_config(path) -> dict[str, dict[str, str]]:
    """Parse a flat INI config in UTF-8: one section per scenario, string
    values."""
    expect(ConfigError, path, (str, bytes, os.PathLike),
           "a config path is a str, bytes or os.PathLike")
    # imported here, the one place that reads an INI: only --config does
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


# ---------------------------------------------------------------------------
# time grid and trace assembly

def time_grid(cfg: ScenarioConfig) -> np.ndarray:
    """Uniform samples up to t_max, t_max, and every segment end up to t_max
    of every cycle starting by t_max; a strictly increasing array.  A grid
    counted (in float, before any of it is built) past _MAX_GRID_POINTS is
    refused."""
    expect(ConfigError, cfg, ScenarioConfig,
           "time_grid takes a ScenarioConfig")
    spu, t_max = cfg.samples_per_unit_time, cfg.t_max
    cycles = [astuple(s.cycle) for s in cfg.schedules if s is not None]
    count = t_max * spu + sum((t_max / period + 1.0) * len(segments)
                              for period, segments in cycles)
    if count > _MAX_GRID_POINTS:
        raise ConfigError(f"a time grid of {count:.3g} points is over "
                          f"{_MAX_GRID_POINTS:.0e}; reduce t_max, "
                          "samples_per_unit_time or the schedules' cycle rates")
    uniform = np.arange(round(t_max * spu) + 1) / spu
    parts = [uniform[uniform <= t_max + _MERGE_TOL]]
    if parts[0][-1] < t_max - _MERGE_TOL:
        parts.append(np.array([t_max]))
    for period, segments in cycles:
        m1 = np.arange(t_max // period + 3.0)  # m - 1, with a margin
        with np.errstate(over="ignore"):  # a start past the range is inf
            m1 = m1[m1 * period <= t_max]  # the cycles that start by t_max
        inner = itertools.accumulate(s[0] for s in segments[:-1])
        ends = np.concatenate([(m1 + 1.0) * period,
                               *(m1 * period + e for e in inner)])
        parts.append(np.minimum(ends[ends <= t_max + _MERGE_TOL], t_max))
    candidates = np.sort(np.concatenate(parts))
    # a point past a gap over tol is kept (rounding is monotone); walk the rest
    keep = np.append(True, np.diff(candidates) > _MERGE_TOL)
    for j in np.flatnonzero(~keep).tolist():
        if keep[j - 1]:
            last = candidates[j - 1]
        keep[j] = candidates[j] - last > _MERGE_TOL
    return candidates[keep]


@dataclass(frozen=True)
class EvolutionTrace:
    """Result table with metadata: one numpy array per header name, in
    header order, ready for CSV export."""

    header: list[str]
    columns: list
    metadata: dict[str, str]

    def column(self, name: str):
        if name not in self.header:
            raise ConfigError(f"the trace has no {name!r} column; it has "
                              f"{', '.join(self.header)}")
        return self.columns[self.header.index(name)]

    @property
    def rows(self) -> list[tuple]:
        """The table row by row, zipped from the columns."""
        return list(zip(*self.columns))


def _trace_metadata(cfg: ScenarioConfig) -> dict[str, str]:
    p = cfg.params
    return {
        "tool": "parityshield",
        "version": __version__,
        "run_id": cfg.run_id,
        "scenario": cfg.scenario,
        "initial_state": cfg.initial_state_name,
        "lam": repr(p.lam),
        "omega": repr(p.omega),
        "r_rate": repr(p.r_rate),
        "branch": p.branch,
        "t_max": repr(cfg.t_max),
        "samples_per_unit_time": str(cfg.samples_per_unit_time),
        "schedules": "|".join(format_schedule(s) for s in cfg.schedules),
    }


def _require_unit_interval(name: str, values) -> None:
    """StateError naming the column unless every fidelity is in [0, 1]."""
    array = np.asarray(values)
    bad = ~((0.0 <= array) & (array <= 1.0))
    if np.count_nonzero(bad):
        raise StateError(f"{name} left the unit interval: "
                         f"worst value {np.max(array[bad])}")


def _fidelity(state: OddParityState, t: np.ndarray, sched, params):
    """(fidelity, tags or None) arrays under sched (one cell or a batch)."""
    # each name is transfer.fidelity under its schedule, but the benchmark's
    # tracer counts calls (one per trace or sweep column) per name bound
    # here, and tests/test_benchmark_tracer requires each counter
    if sched is None:
        return free_fidelity(state, t, params), None
    if isinstance(sched, ZenoSchedule):
        return zeno_fidelity(state, t, sched, params), None
    if isinstance(sched, DdSchedule):
        return dd_fidelity(state, t, sched, params), None
    return finite_dd_fidelity(state, t, sched, params)


def compute_trace(cfg: ScenarioConfig) -> EvolutionTrace:
    """Evaluate one fidelity column per schedule over the scenario grid.

    Columns follow the kind table's order, finite pulses by duty parameter.
    """
    expect(ConfigError, cfg, ScenarioConfig,
           "compute_trace takes a ScenarioConfig")
    grid = time_grid(cfg)
    header, columns = ["t"], [grid]
    # a sample counts as free only if it is free for every finite schedule
    # present; comparisons are restricted to those points
    in_pulse = None
    for sched in sorted(cfg.schedules, key=lambda s: (
            list(_KIND_OF).index(type(s)), getattr(s, "n_duty", 0))):
        name = (_KINDS[_KIND_OF[type(sched)]].column
                + str(getattr(sched, "n_duty", "")))
        values, tags = _fidelity(cfg.initial_state, grid, sched, cfg.params)
        if tags is not None:
            tagged = tags == IN_PULSE_SEGMENT
            in_pulse = tagged if in_pulse is None else in_pulse | tagged
        if name in header:
            raise ConfigError(f"duplicate column {name}: "
                              f"{format_schedule(sched)}")
        _require_unit_interval(name, values)
        header.append(name)
        columns.append(values)

    if in_pulse is not None:
        header.append("segment")
        columns.append(np.where(in_pulse, IN_PULSE_SEGMENT, FREE_SEGMENT))
    return EvolutionTrace(header, columns, _trace_metadata(cfg))


# ---------------------------------------------------------------------------
# ordering checks

def check_fig2_ordering(trace: EvolutionTrace) -> None:
    """Pulse curve above measurement curve above free decay once every
    schedule has acted (before that the curves coincide); strictly
    separated past twice the longest period.  A trace of free decay alone
    has no period and is refused."""
    expect(ConfigError, trace, EvolutionTrace,
           "the ordering check takes an EvolutionTrace")
    periods = [sched.cycle.period
               for sched in map(parse_schedule,
                                trace.metadata["schedules"].split("|"))
               if sched is not None]
    if not periods:
        raise ConfigError("the ordering check needs a measurement or pulse "
                          "schedule; every schedule of the trace is free")
    period = max(periods)
    t, f_dd, f_zeno, f_free = (np.asarray(trace.column(name), float)
                               for name in ("t", "F_dd", "F_zeno", "F_free"))
    floor = np.where(t > 2.0 * period + _MERGE_TOL, 1e-6, -1e-12)
    bad = ~(t <= period + _MERGE_TOL) & ((f_dd - f_zeno < floor)
                                        | (f_zeno - f_free < floor))
    refuse(ValidationFailure, [(~bad, "protocol ordering violated at t={}: "
                                "F_dd={}, F_zeno={}, F_free={}", t, f_dd,
                                f_zeno, f_free)])


def check_fig3_ordering(trace: EvolutionTrace) -> None:
    """Terminal ordering: free decay, then finite-duration curves in
    increasing duty parameter, then the instantaneous curve, evaluated at
    the last free-segment sample; a trace with none is refused."""
    expect(ConfigError, trace, EvolutionTrace,
           "the ordering check takes an EvolutionTrace")
    free = np.flatnonzero(np.asarray(trace.column("segment")) == FREE_SEGMENT)
    if not free.size:
        raise ConfigError("terminal ordering needs a free-segment sample; "
                          "every sample of the trace is in a pulse")
    idx = free[-1]
    t = float(trace.column("t")[idx])
    finite_names = sorted((n for n in trace.header if n.startswith("F_ddN")),
                          key=lambda n: int(n[5:]))
    chain = ["F_free", *finite_names, "F_dd"]
    values = [(name, float(trace.column(name)[idx])) for name in chain]
    for (name_lo, lo), (name_hi, hi) in zip(values, values[1:]):
        if lo > hi + 1e-12:
            raise ValidationFailure(
                f"terminal ordering violated at t={t}: {name_lo}={lo} > "
                f"{name_hi}={hi}")


# ---------------------------------------------------------------------------
# parameter sweeps

def run_sweep(options: dict[str, str]) -> EvolutionTrace:
    """Grid sweep over any subset of the model/schedule parameters.

    Every user-supplied sweepable key becomes a grid axis (values may be a
    comma-separated list); remaining keys are held at their defaults.  One
    row per cell with the terminal fidelity of every protocol the keys
    describe; rows are ordered lexicographically in the sorted axis
    coordinates, values ascending; each column is a numpy array, empty for
    an empty axis set.  ``n_duty`` without ``tau`` is refused (no column
    would depend on it), and so is a grid over MAX_SWEEP_CELLS cells.
    A fidelity outside [0, 1] raises StateError, as in compute_trace.
    """
    base, given = _merged("sweep", options)
    if "n_duty" in given and "tau" not in given:
        raise ConfigError("n_duty needs tau: without a pulse interval no "
                          "protocol depends on the duty parameter")

    # axis name -> (value, text as given) pairs in ascending value, by name
    axes = {key: _number(base, key, many=True)
            for key in sorted(given) if _OPTIONS[key].type is not str}
    metadata = {
        "tool": "parityshield",
        "version": __version__,
        "run_id": base.get("run_id", "sweep"),
        "scenario": "sweep",
        "axes": "|".join(f"{k}={','.join(text for _, text in axes[k])}"
                         for k in axes),
    }

    # a kind takes part when the keys that supply its arguments are given;
    # delta_t, unless given, is tau: measure at the pulse interval
    keyed = given | ({"delta_t"} if "tau" in given else set())
    kinds = [kind for kind in _KINDS.values() if keyed.issuperset(kind.keys)]
    header = [*axes, *(kind.column for kind in kinds)]
    if not axes:
        return EvolutionTrace(header, [np.array([]) for _ in header], metadata)

    total = math.prod(map(len, axes.values()))
    if total > MAX_SWEEP_CELLS:
        raise ConfigError(
            f"sweep has {total} cells, exceeding the cap of {MAX_SWEEP_CELLS}")

    state, _ = parse_initial_state(base["initial_state"])
    rate_key, make_params = _rate(given)
    # key -> an axis's column (a number per cell, in row order) or a number
    cells = {key: _number(base, key)
             for key in ("lam", rate_key, "t_max") if key not in axes}
    cells.update(zip(axes, (column.ravel() for column in np.meshgrid(
        *([value for value, _ in pairs] for pairs in axes.values()),
        indexing="ij"))))
    cells.setdefault("delta_t", cells.get("tau"))
    # one record and one schedule per kind, all built before any evaluation
    params = make_params(cells["lam"], cells[rate_key])
    scheds = [kind.cls(*map(cells.get, kind.keys)) for kind in kinds]
    times = np.broadcast_to(cells["t_max"], (total,))
    fidelities = [_fidelity(state, times, s, params)[0] for s in scheds]
    for name, column in zip(header[len(axes):], fidelities):
        _require_unit_interval(name, column)
    return EvolutionTrace(header, [*map(cells.get, axes), *fidelities],
                          metadata)
