"""Experiment scenarios: named comparison runs, sweeps, config plumbing.

A scenario bundles model parameters, a set of protocol schedules, a time
grid, and an initial state.  The three canonical comparison runs are:

* fig1: instantaneous pulses vs repeated measurement at equal interval.
* fig2: those two against free decay, with an ordering check.
* fig3: finite-duration pulses (two duty settings) against the
  instantaneous limit and free decay, with a terminal ordering check.

Configs are flat INI files, one section per scenario; every key can be
overridden from the command line.  Schedules serialize as compact
descriptors: none | zeno(dt) | dd(tau) | dd-finite(tau,N).
"""

from __future__ import annotations

import configparser
import io
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .decoupling import DdSchedule, dd_fidelity
from .errors import ConfigError, StateError, ValidationFailure
from .finite_pulse import (FREE_SEGMENT, IN_PULSE_SEGMENT, FinitePulseSchedule,
                           finite_dd_fidelity)
from .free_evolution import free_fidelity
from .model import ModelParams, OddParityState
from .zeno import ZenoSchedule, zeno_fidelity

SCENARIO_IDS = ("fig1", "fig2", "fig3", "custom")

# merging tolerance when snapping schedule boundaries into the time grid
_MERGE_TOL = 1e-12

_SCHEDULE_RE = re.compile(r"^\s*(none|zeno|dd-finite|dd)\s*(?:\((.*)\))?\s*$")


# ---------------------------------------------------------------------------
# descriptors

def parse_schedule(text: str):
    """Descriptor -> schedule object (None stands for free evolution)."""
    m = _SCHEDULE_RE.match(text)
    if not m:
        raise ConfigError(f"unrecognized schedule descriptor {text!r}")
    kind, args = m.group(1), m.group(2)
    parts = [p.strip() for p in args.split(",")] if args else []
    try:
        if kind == "none":
            if parts:
                raise ConfigError(f"'none' takes no arguments, got {text!r}")
            return None
        if kind == "zeno":
            (dt,) = parts
            return ZenoSchedule(float(dt))
        if kind == "dd":
            (tau,) = parts
            return DdSchedule(float(tau))
        (tau, n) = parts
        return FinitePulseSchedule(float(tau), int(n))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad schedule descriptor {text!r}: {exc}") from exc


def format_schedule(sched) -> str:
    if sched is None:
        return "none"
    if isinstance(sched, ZenoSchedule):
        return f"zeno({sched.delta_t!r})"
    if isinstance(sched, DdSchedule):
        return f"dd({sched.tau!r})"
    if isinstance(sched, FinitePulseSchedule):
        return f"dd-finite({sched.tau!r},{sched.n_duty})"
    raise ConfigError(f"unknown schedule object {sched!r}")


def parse_initial_state(text: str) -> tuple[OddParityState, str]:
    """Named initial state -> (state, canonical name)."""
    body = text.strip()
    if body == "dark":
        return OddParityState.dark(), "dark"
    if body == "superradiant":
        return OddParityState.superradiant(), "superradiant"
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
        if self.scenario not in SCENARIO_IDS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not (self.t_max > 0.0):
            raise ConfigError(f"t_max must be positive, got {self.t_max}")
        if self.samples_per_unit_time < 100:
            raise ConfigError(
                "samples_per_unit_time must be at least 100, got "
                f"{self.samples_per_unit_time}")


_COMMON_DEFAULTS = {
    "lam": "2.0",
    "omega": "1.0",
    "t_max": "1.0",
    "samples_per_unit_time": "2000",
    "initial_state": "superradiant",
}

_SCENARIO_DEFAULTS = {
    "fig1": {"tau": "0.1"},
    "fig2": {"tau": "0.1"},
    "fig3": {"tau": "0.2", "n_duty_values": "10,20"},
    "custom": {"schedules": "none"},
}


def _params_from_options(opts: dict[str, str],
                         user_keys: set[str]) -> ModelParams:
    # defaults always carry omega, so r_rate can only appear user-supplied;
    # reject the ambiguous case of both given explicitly
    lam = float(opts["lam"])
    if "r_rate" in opts:
        if "omega" in user_keys:
            raise ConfigError("give either omega or r_rate, not both")
        return ModelParams.from_effective_rate(lam, float(opts["r_rate"]))
    return ModelParams.from_mode_splitting(lam, float(opts["omega"]))


def build_scenario(scenario: str, options: dict[str, str] | None = None) -> ScenarioConfig:
    """Assemble a ScenarioConfig from merged config/CLI key-value options."""
    if scenario not in SCENARIO_IDS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    opts = dict(_COMMON_DEFAULTS)
    opts.update(_SCENARIO_DEFAULTS[scenario])
    user_keys = set()
    if options:
        given = {k: v for k, v in options.items() if v is not None}
        opts.update(given)
        user_keys = set(given)
    params = _params_from_options(opts, user_keys)
    state, state_name = parse_initial_state(opts["initial_state"])

    if scenario == "custom":
        schedules = tuple(parse_schedule(s)
                          for s in opts["schedules"].split("|"))
    else:
        tau = float(opts["tau"])
        delta_t = float(opts.get("delta_t", tau))   # measurement interval
        # defaults to the pulse interval for an equal-frequency comparison
        if scenario == "fig1":
            schedules = (ZenoSchedule(delta_t), DdSchedule(tau))
        elif scenario == "fig2":
            schedules = (None, ZenoSchedule(delta_t), DdSchedule(tau))
        else:
            ns = [int(x) for x in opts["n_duty_values"].split(",")]
            schedules = (None,
                         *(FinitePulseSchedule(tau, n) for n in sorted(ns)),
                         DdSchedule(tau))
    return ScenarioConfig(
        scenario=scenario,
        params=params,
        schedules=schedules,
        t_max=float(opts["t_max"]),
        samples_per_unit_time=int(opts["samples_per_unit_time"]),
        initial_state=state,
        initial_state_name=state_name,
        run_id=opts.get("run_id", scenario),
    )


def load_config(path) -> dict[str, dict[str, str]]:
    """Parse a flat INI config: one section per scenario, string values."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def dump_config(cfg: dict[str, dict[str, str]]) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    for section in cfg:
        parser[section] = cfg[section]
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# time grid and trace assembly

def time_grid(cfg: ScenarioConfig) -> list[float]:
    """Uniform grid plus every schedule boundary, strictly increasing."""
    spu = cfg.samples_per_unit_time
    n = round(cfg.t_max * spu)
    candidates = [j / spu for j in range(n + 1)]
    if candidates[-1] < cfg.t_max - _MERGE_TOL:
        candidates.append(cfg.t_max)
    for sched in cfg.schedules:
        if sched is None:
            continue
        cycle = sched.cycle
        period = cycle.period
        ends = list(itertools.accumulate(d for d, _ in cycle.segments))[:-1]
        m = 1
        while m * period <= cfg.t_max + _MERGE_TOL:
            candidates.append(min(m * period, cfg.t_max))
            for e in ends:
                b = (m - 1) * period + e
                if b <= cfg.t_max + _MERGE_TOL:
                    candidates.append(min(b, cfg.t_max))
            m += 1
    candidates.sort()
    grid = [candidates[0]]
    for t in candidates[1:]:
        if t - grid[-1] > _MERGE_TOL:
            grid.append(t)
    return grid


@dataclass(frozen=True)
class EvolutionTrace:
    """Column-oriented result table with metadata, ready for CSV export."""

    header: list[str]
    rows: list[tuple]
    metadata: dict[str, str]

    def column(self, name: str) -> list:
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]


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


def compute_trace(cfg: ScenarioConfig) -> EvolutionTrace:
    """Evaluate one fidelity column per schedule over the scenario grid."""
    grid = np.array(time_grid(cfg))
    state = cfg.initial_state
    params = cfg.params

    columns: dict[str, np.ndarray] = {"t": grid}
    finite_scheds: list[FinitePulseSchedule] = []
    # a sample counts as free only if it is free for every finite schedule
    # present; comparisons are restricted to those points
    in_pulse = np.zeros(grid.shape, bool)
    for sched in cfg.schedules:
        if sched is None:
            if "F_free" in columns:
                raise ConfigError("duplicate free-evolution entry")
            columns["F_free"] = np.array(free_fidelity(state, grid, params))
        elif isinstance(sched, ZenoSchedule):
            if "F_zeno" in columns:
                raise ConfigError("duplicate measurement schedule")
            columns["F_zeno"] = np.array(
                zeno_fidelity(state, grid, sched, params))
        elif isinstance(sched, DdSchedule):
            if "F_dd" in columns:
                raise ConfigError("duplicate instantaneous pulse schedule")
            columns["F_dd"] = np.array(dd_fidelity(state, grid, sched, params))
        else:
            name = f"F_ddN{sched.n_duty}"
            if name in columns:
                raise ConfigError(f"duplicate duty setting {sched.n_duty}")
            values, tags = zip(*finite_dd_fidelity(state, grid, sched, params))
            columns[name] = np.array(values)
            in_pulse |= np.array(tags, dtype=object) == IN_PULSE_SEGMENT
            finite_scheds.append(sched)

    header = ["t"]
    for name in ("F_free", "F_zeno", "F_dd"):
        if name in columns:
            header.append(name)
    for sched in sorted(finite_scheds, key=lambda s: s.n_duty):
        header.append(f"F_ddN{sched.n_duty}")
    if finite_scheds:
        header.append("segment")
        segment = np.full(grid.shape, FREE_SEGMENT, dtype=object)
        segment[in_pulse] = IN_PULSE_SEGMENT
        columns["segment"] = segment

    for name in header[1:]:
        if name == "segment":
            continue
        values = columns[name]
        bad = ~((0.0 <= values) & (values <= 1.0))
        if np.count_nonzero(bad):
            raise StateError(f"{name} left the unit interval: "
                             f"worst value {np.max(values[bad])}")

    rows = list(zip(*(columns[name].tolist() for name in header)))
    return EvolutionTrace(header, rows, _trace_metadata(cfg))


# ---------------------------------------------------------------------------
# canonical runs

def _require_scenario(cfg: ScenarioConfig, expected: str):
    if cfg.scenario != expected:
        raise ConfigError(
            f"configuration is for {cfg.scenario!r}, expected {expected!r}")


def run_fig1(cfg: ScenarioConfig) -> EvolutionTrace:
    """Instantaneous pulses vs repeated measurement at equal interval."""
    _require_scenario(cfg, "fig1")
    return compute_trace(cfg)


def check_fig2_ordering(trace: EvolutionTrace) -> None:
    """Pulse curve above measurement curve above free decay past the
    first operation; strictly separated beyond t = 0.2."""
    t = trace.column("t")
    f_dd = trace.column("F_dd")
    f_zeno = trace.column("F_zeno")
    f_free = trace.column("F_free")
    for i, ti in enumerate(t):
        if ti <= 0.1 + _MERGE_TOL:
            continue
        strict = ti > 0.2 + _MERGE_TOL
        floor = 1e-6 if strict else -1e-12
        if f_dd[i] - f_zeno[i] < floor or f_zeno[i] - f_free[i] < floor:
            raise ValidationFailure(
                f"protocol ordering violated at t={ti}: "
                f"F_dd={f_dd[i]}, F_zeno={f_zeno[i]}, F_free={f_free[i]}")


def run_fig2(cfg: ScenarioConfig, check: bool = True) -> EvolutionTrace:
    """Free decay vs measurement vs instantaneous pulses, with ordering check."""
    _require_scenario(cfg, "fig2")
    trace = compute_trace(cfg)
    if check:
        check_fig2_ordering(trace)
    return trace


def check_fig3_ordering(trace: EvolutionTrace) -> None:
    """Terminal ordering: free decay, then finite-duration curves in
    increasing duty parameter, then the instantaneous curve, evaluated at
    the last free-segment sample."""
    seg = trace.column("segment")
    idx = max(i for i, s in enumerate(seg) if s == FREE_SEGMENT)
    t = trace.column("t")[idx]
    finite_names = sorted((n for n in trace.header if n.startswith("F_ddN")),
                          key=lambda n: int(n[5:]))
    chain = ["F_free", *finite_names, "F_dd"]
    values = [(name, trace.column(name)[idx]) for name in chain]
    for (name_lo, lo), (name_hi, hi) in zip(values, values[1:]):
        if lo > hi + 1e-12:
            raise ValidationFailure(
                f"terminal ordering violated at t={t}: {name_lo}={lo} > "
                f"{name_hi}={hi}")


def run_fig3(cfg: ScenarioConfig, check: bool = True) -> EvolutionTrace:
    """Finite-duration pulses vs the instantaneous limit vs free decay."""
    _require_scenario(cfg, "fig3")
    trace = compute_trace(cfg)
    if check:
        check_fig3_ordering(trace)
    return trace


def run_custom(cfg: ScenarioConfig) -> EvolutionTrace:
    _require_scenario(cfg, "custom")
    return compute_trace(cfg)


# ---------------------------------------------------------------------------
# parameter sweeps

_AXIS_KEYS = ("lam", "omega", "r_rate", "tau", "delta_t", "n_duty", "t_max")


def run_sweep(options: dict[str, str], max_cells: int = 200) -> EvolutionTrace:
    """Grid sweep over any subset of the model/schedule parameters.

    Every user-supplied sweepable key becomes a grid axis (values may be a
    comma-separated list); remaining keys are held at their defaults.  One
    row per cell with the terminal fidelity of every protocol the keys
    describe; rows are ordered lexicographically in the sorted axis
    coordinates, values ascending.  An empty axis set yields an empty table.
    """
    given = {k: v for k, v in options.items() if v is not None}

    axes: dict[str, list[str]] = {}
    for key, value in given.items():
        if key in _AXIS_KEYS:
            axes[key] = sorted((p.strip() for p in str(value).split(",")),
                               key=float)

    base = dict(_COMMON_DEFAULTS)
    base.update({k: v for k, v in given.items() if k not in axes})

    axis_names = sorted(axes)
    metadata = {
        "tool": "parityshield",
        "version": __version__,
        "run_id": given.get("run_id", "sweep"),
        "scenario": "sweep",
        "axes": "|".join(f"{k}={','.join(axes[k])}" for k in axis_names),
    }

    has_zeno = "delta_t" in given or "tau" in given
    has_dd = "tau" in given
    has_finite = "tau" in given and "n_duty" in given
    header = list(axis_names) + ["F_free"]
    if has_zeno:
        header.append("F_zeno")
    if has_dd:
        header.append("F_dd")
    if has_finite:
        header.append("F_ddN")

    if not axis_names:
        return EvolutionTrace(header, [], metadata)

    total = math.prod(len(axes[k]) for k in axis_names)
    if total > max_cells:
        raise ConfigError(
            f"sweep has {total} cells, exceeding the cap of {max_cells}")

    rows: list[tuple] = []
    for combo in itertools.product(*(axes[k] for k in axis_names)):
        cell = dict(base)
        cell.update(dict(zip(axis_names, combo)))
        params = _params_from_options(cell, set(given) | set(axis_names))
        state, _ = parse_initial_state(cell["initial_state"])
        t_max = float(cell["t_max"])
        row: list = [int(v) if k == "n_duty" else float(v)
                     for k, v in zip(axis_names, combo)]
        row.append(free_fidelity(state, t_max, params))
        if has_zeno:
            delta_t = float(cell["delta_t"] if "delta_t" in cell
                            else cell["tau"])
            row.append(zeno_fidelity(state, t_max, ZenoSchedule(delta_t),
                                     params))
        if has_dd:
            row.append(dd_fidelity(state, t_max, DdSchedule(float(cell["tau"])),
                                   params))
        if has_finite:
            sched = FinitePulseSchedule(float(cell["tau"]),
                                        int(cell["n_duty"]))
            row.append(finite_dd_fidelity(state, t_max, sched, params)[0])
        rows.append(tuple(row))

    return EvolutionTrace(header, rows, metadata)
