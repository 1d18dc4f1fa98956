"""Cross-validation suite: every closed form against the brute-force integrator.

Each check produces one report line (name, measured value, tolerance,
PASS/FAIL).  Tolerances can be overridden per check, which also provides
the negative control: tightening one to an unreachable value must flip the
run to failure.

The suite covers the module-level guarantees: closed forms vs both oracle
backends, backend cross-agreement, the pulse-instant slope reversal, the
interval equation residuals, window-edge continuity, the instantaneous
limit of the finite-duration protocol, integrator convergence orders, and
probability bookkeeping.

The checks are the rows of `_CHECKS`, in report order, all run on every
call.  `run_validation` computes each row's inputs (oracle runs at their
own backend and step, or a closed-form quantity two rows share) once per
call and drops each after the last row that reads it.  Closed forms and
integrators are read by their module-level names at call time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, number
from .model import ModelParams, OddParityState
from .oracle import (DIRECT_QUADRATURE, EXACT_AUGMENTED, OracleConfig,
                     integrate_dd, integrate_finite, integrate_free)
from .transfer import (FREE_SEGMENT, DdSchedule, FinitePulseSchedule,
                       ZenoSchedule, dd_survival, finite_dd_fidelity,
                       finite_dd_survival, free_survival, zeno_amplitude)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    comparator: str        # "<=" or ">="
    passed: bool

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.name:<42} {self.measured:12.4e} {self.comparator} "
                f"{self.tolerance:10.3e}  {verdict}")


@dataclass(frozen=True)
class ValidationReport:
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        n_fail = sum(not r.passed for r in self.results)
        out.append(f"{len(self.results)} checks, {n_fail} failed")
        return out


# canonical parameter sets used throughout the comparisons
_CASE1 = ModelParams.from_mode_splitting(2.0, 1.0)
_CASE1_TAU = 0.1
_CASE2_TAU = 0.2
_R_SQ = _CASE1.r_rate ** 2
_DD = DdSchedule(_CASE1_TAU)
_F10 = FinitePulseSchedule(_CASE2_TAU, 10)
_F20 = FinitePulseSchedule(_CASE2_TAU, 20)
_SUPER = OddParityState.superradiant()
_MIXED = OddParityState.initial(math.sqrt(0.5), math.sqrt(0.5))
_HH = 1e-4             # central-difference step of the ODE residuals


class _Run(NamedTuple):
    """One oracle integration of the canonical point on [0, 1]."""

    sched: object                   # None for free decay
    backend: str = EXACT_AUGMENTED
    state: OddParityState = _SUPER
    step: float = 1e-4
    order: int = 4


def _integrate(run: _Run):
    cfg = OracleConfig(run.step, run.order, run.backend)
    if run.sched is None:
        return integrate_free(_CASE1, 1.0, cfg, run.state)
    # one name per protocol: perfbench/tracer.py spans each name apart
    integrator = (integrate_dd if isinstance(run.sched, DdSchedule)
                  else integrate_finite)
    return integrator(_CASE1, run.sched, 1.0, cfg, run.state)


def _gap(tr, values) -> float:
    return float(np.max(np.abs(tr.beta2 - values)))


def _vs_free(tr) -> float:
    return _gap(tr, free_survival(tr.times, _CASE1))


def _free_closed_form() -> np.ndarray:
    """The free closed form at the trace times of a run at the default
    step, which two rows share."""
    step = _Run._field_defaults["step"]
    return free_survival(np.arange(round(1.0 / step) + 1) * step, _CASE1)


def _agreement(a, b) -> float:
    return _gap(a, b.beta2)


def _dark_drift(*traces) -> float:
    return max(float(np.max(np.abs(tr.beta1 - tr.beta1[0]))) for tr in traces)


def _finite_map(tr, sched) -> float:
    values, tags = finite_dd_survival(tr.times, sched, _CASE1)
    # np.hypot rounds as Python's abs; np.abs can be an ulp off
    d = (tr.beta2 - values)[tags == FREE_SEGMENT]
    return float(np.max(np.hypot(d.real, d.imag)))


def _ode_residual(points, amplitude) -> float:
    """Largest |f'' + lam f' + R^2 f| at the points by central differences;
    amplitude(times) evaluates f on every (t0 - h, t0, t0 + h) at once."""
    values = amplitude([t for t0 in points for t in (t0 - _HH, t0, t0 + _HH)])
    worst = 0.0
    for f0, f1, f2 in zip(values[0::3], values[1::3], values[2::3]):
        second = (f2 - 2 * f1 + f0) / _HH ** 2
        first = (f2 - f0) / (2 * _HH)
        worst = max(worst, abs(second + _CASE1.lam * first + _R_SQ * f1))
    return worst


def _slope_reversal() -> float:
    """Slope reversal defect at the pulse instants over its allowed band."""
    h = 1e-6
    instants = [m * _CASE1_TAU for m in range(1, 10)]
    xi = dd_survival([t0 + d for t0 in instants
                      for d in (-2 * h, -h, 0.0, h, 2 * h)], _DD, _CASE1)
    worst = 0.0
    for j in range(0, len(xi), 5):
        back2, back1, here, ahead1, ahead2 = xi[j:j + 5]
        right = (-3 * here + 4 * ahead1 - ahead2) / (2 * h)
        left = (3 * here - 4 * back1 + back2) / (2 * h)
        worst = max(worst, abs(right + left) / (1e-5 * abs(left) + 1e-9))
    return worst


def _dd_interval_residual() -> float:
    interior = [t0 for t0 in np.linspace(0.02, 0.98, 33)
                if min(abs(t0 - round(t0 / _CASE1_TAU) * _CASE1_TAU),
                       abs(t0 % _CASE1_TAU)) >= 3 * _HH]
    return _ode_residual(interior, lambda ts: dd_survival(ts, _DD, _CASE1))


def _edge_jump() -> float:
    """Largest jump of the amplitude modulus across a window edge."""
    edges = [edge for m in range(5)
             for edge in (m * _CASE2_TAU + _F10.free_length,
                          (m + 1) * _CASE2_TAU)]
    sides = [abs(value) for value, _ in finite_dd_survival(
        [t for edge in edges for t in (edge - 1e-9, edge + 1e-9)],
        _F10, _CASE1)]
    return max(abs(hi - lo) for lo, hi in zip(sides[0::2], sides[1::2]))


def _finite_free_residual() -> float:
    points = [t0 for t0 in (0.05, 0.25, 0.31, 0.52, 0.71, 0.93)
              if _F10.segment_of(t0)[0] == FREE_SEGMENT]
    return _ode_residual(points, lambda ts: [
        value for value, _ in finite_dd_survival(ts, _F10, _CASE1)])


def _n_deviations() -> dict[int, float]:
    """Per N, the largest free-segment gap to instantaneous pulses."""
    ts = np.linspace(0.0, 1.0, 501)
    inst_mod = np.abs(dd_survival(ts, DdSchedule(_CASE2_TAU), _CASE1))
    devs = {}
    for n_duty in (10, 20, 40, 80, 10000):
        fids, tags = finite_dd_fidelity(
            _SUPER, ts, FinitePulseSchedule(_CASE2_TAU, n_duty), _CASE1)
        devs[n_duty] = float(np.max(np.abs(fids - inst_mod)[
            tags == FREE_SEGMENT]))
    return devs


class _Check(NamedTuple):
    name: str
    tolerance: float                # default; run_validation may override
    comparator: str                 # "<=" or ">="
    inputs: tuple                   # _Run oracle runs or shared quantities
    measure: Callable[..., float]   # the inputs' values -> measured value


_CHECKS = (
    _Check("free_closed_form_vs_augmented", 1e-6, "<=",
           (_Run(None), _free_closed_form), _gap),
    _Check("free_norm_monotone", 1e-12, "<=", (_Run(None),),
           lambda tr: np.max(np.diff(abs(tr.r1) ** 2 + abs(tr.r2) ** 2))),
    _Check("free_closed_form_vs_quadrature", 1e-6, "<=",
           (_Run(None, DIRECT_QUADRATURE, order=2), _free_closed_form), _gap),
    _Check("free_backend_agreement", 5e-5, "<=",
           (_Run(None), _Run(None, DIRECT_QUADRATURE, order=2)), _agreement),
    _Check("dark_state_frozen", 1e-8, "<=",
           (_Run(None, state=OddParityState.dark()),),
           lambda tr: max(float(np.max(np.abs(tr.beta2))), _dark_drift(tr))),
    _Check("zeno_composition_identity", 1e-12, "<=", (),
           lambda: abs(zeno_amplitude(1.0, ZenoSchedule(_CASE1_TAU), _CASE1)
                       - free_survival(_CASE1_TAU, _CASE1) ** 10)),
    _Check("zeno_quadratic_limit", 0.05, "<=", (),
           lambda: abs((1.0 - free_survival(1e-3, _CASE1))
                       / (_R_SQ * 1e-3 ** 2 / 2.0) - 1.0)),
    _Check("dd_recursion_vs_augmented", 1e-6, "<=", (_Run(_DD),),
           lambda tr: _gap(tr, dd_survival(tr.times, _DD, _CASE1))),
    _Check("dd_backend_agreement", 5e-5, "<=",
           (_Run(_DD), _Run(_DD, DIRECT_QUADRATURE, order=2)), _agreement),
    _Check("dd_slope_reversal", 1.0, "<=", (), _slope_reversal),
    _Check("dd_interval_ode_residual", 1e-5, "<=", (), _dd_interval_residual),
    _Check("finite_map_vs_oracle_n10", 1e-4, "<=", (_Run(_F10),),
           lambda tr: _finite_map(tr, _F10)),
    _Check("finite_map_vs_oracle_n20", 1e-4, "<=", (_Run(_F20),),
           lambda tr: _finite_map(tr, _F20)),
    _Check("finite_window_edge_continuity", 1e-6, "<=", (), _edge_jump),
    _Check("finite_free_segment_ode_residual", 1e-5, "<=", (),
           _finite_free_residual),
    # N -> infinity reproduces instantaneous pulses; approach is monotone
    _Check("finite_instantaneous_limit", 1e-3, "<=", (_n_deviations,),
           lambda devs: devs[10000]),
    _Check("finite_limit_monotone_in_n", 0.0, ">=", (_n_deviations,),
           lambda devs: min(devs[a] - devs[b]
                            for a, b in ((10, 20), (20, 40), (40, 80)))),
    # mixed state: dark amplitude untouched by any protocol
    _Check("dark_protected_all_protocols", 1e-8, "<=",
           (_Run(None, state=_MIXED), _Run(_DD, state=_MIXED),
            _Run(_F10, state=_MIXED)), _dark_drift),
    # fixed-step convergence orders against the closed free solution
    _Check("convergence_order_rk4", 8.0, ">=",
           (_Run(None, step=0.04), _Run(None, step=0.02)),
           lambda coarse, fine: _vs_free(coarse) / _vs_free(fine)),
    _Check("convergence_order_rk2", 3.5, ">=",
           (_Run(None, step=0.04, order=2), _Run(None, step=0.02, order=2)),
           lambda coarse, fine: _vs_free(coarse) / _vs_free(fine)),
)


def run_validation(tolerance_overrides: dict[str, float] | None = None,
                   ) -> ValidationReport:
    """Run every check; tolerance_overrides is a mapping or a sequence of
    (check name, tolerance) pairs.  Returns one result per check."""
    try:
        overrides = dict(tolerance_overrides or {})
    except (TypeError, ValueError) as exc:
        raise ConfigError("tolerance overrides must be name-value pairs, "
                          f"got {tolerance_overrides!r}") from exc
    unknown = set(overrides) - {row.name for row in _CHECKS}
    if unknown:
        raise ConfigError(f"unknown check names: {sorted(unknown)}")
    for name, tol in overrides.items():
        # a NaN bound would fail its check whatever the measurement, and a
        # bool is not a bound
        if not number(tol, types=numbers.Number) or math.isnan(tol):
            raise ConfigError(f"tolerance of {name} is not a number")

    last_reader = {src: i for i, row in enumerate(_CHECKS)
                   for src in row.inputs}
    made: dict = {}
    results: list[CheckResult] = []
    for i, row in enumerate(_CHECKS):
        for src in row.inputs:
            if src not in made:
                made[src] = (_integrate(src) if isinstance(src, _Run)
                             else src())
        measured = float(row.measure(*(made[src] for src in row.inputs)))
        tol = overrides.get(row.name, row.tolerance)
        ok = measured <= tol if row.comparator == "<=" else measured >= tol
        results.append(CheckResult(row.name, measured, float(tol),
                                   row.comparator, ok))
        made = {src: v for src, v in made.items() if last_reader[src] > i}
    return ValidationReport(results)
