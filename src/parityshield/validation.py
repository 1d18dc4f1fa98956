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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
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

_DEFAULT_TOLS = {
    "free_closed_form_vs_augmented": 1e-6,
    "free_closed_form_vs_quadrature": 1e-6,
    "free_backend_agreement": 5e-5,
    "free_norm_monotone": 1e-12,
    "dark_state_frozen": 1e-8,
    "dark_protected_all_protocols": 1e-8,
    "zeno_composition_identity": 1e-12,
    "zeno_quadratic_limit": 0.05,
    "dd_recursion_vs_augmented": 1e-6,
    "dd_backend_agreement": 5e-5,
    "dd_slope_reversal": 1.0,
    "dd_interval_ode_residual": 1e-5,
    "finite_map_vs_oracle_n10": 1e-4,
    "finite_map_vs_oracle_n20": 1e-4,
    "finite_window_edge_continuity": 1e-6,
    "finite_free_segment_ode_residual": 1e-5,
    "finite_instantaneous_limit": 1e-3,
    "finite_limit_monotone_in_n": 0.0,
    "convergence_order_rk4": 8.0,
    "convergence_order_rk2": 3.5,
}


def _ode_residual(values, step, lam, r_sq):
    """Largest |f'' + lam f' + R^2 f| by central differences, over
    consecutive (f(t0 - step), f(t0), f(t0 + step)) triples of values."""
    worst = 0.0
    for f0, f1, f2 in zip(values[0::3], values[1::3], values[2::3]):
        second = (f2 - 2 * f1 + f0) / step ** 2
        first = (f2 - f0) / (2 * step)
        worst = max(worst, abs(second + lam * first + r_sq * f1))
    return worst


def run_validation(tolerance_overrides: dict[str, float] | None = None,
                   dt_num: float = 1e-4,
                   oracle_modes: tuple[str, ...] = (EXACT_AUGMENTED,
                                                    DIRECT_QUADRATURE),
                   ) -> ValidationReport:
    """Run the check suite; returns a report with one result per check.

    Restricting ``oracle_modes`` to a single backend skips the checks
    that need the other one; closed-form-only checks always run.
    """
    tols = dict(_DEFAULT_TOLS)
    if tolerance_overrides:
        unknown = set(tolerance_overrides) - set(tols)
        if unknown:
            raise ConfigError(f"unknown check names: {sorted(unknown)}")
        tols.update(tolerance_overrides)
    bad = set(oracle_modes) - {EXACT_AUGMENTED, DIRECT_QUADRATURE}
    if bad or not oracle_modes:
        raise ConfigError(f"invalid oracle modes: {sorted(bad)}")
    use_aug = EXACT_AUGMENTED in oracle_modes
    use_quad = DIRECT_QUADRATURE in oracle_modes

    params = _CASE1
    r_sq = params.r_rate ** 2
    lam = params.lam
    sched_dd = DdSchedule(_CASE1_TAU)
    results: list[CheckResult] = []

    def check(name, measured, comparator="<="):
        tol = tols[name]
        ok = measured <= tol if comparator == "<=" else measured >= tol
        results.append(CheckResult(name, float(measured), float(tol),
                                   comparator, ok))

    cfg_fast = OracleConfig(dt_num=dt_num, method_order=4,
                            history_mode=EXACT_AUGMENTED)
    cfg_slow = OracleConfig(dt_num=dt_num, method_order=2,
                            history_mode=DIRECT_QUADRATURE)

    # free decay: closed form vs both backends, and backend vs backend
    if use_aug:
        tr_aug = integrate_free(params, 1.0, cfg_fast)
        check("free_closed_form_vs_augmented", np.max(np.abs(
            tr_aug.beta2 - free_survival(tr_aug.times, params))))
        norm = np.abs(tr_aug.r1) ** 2 + np.abs(tr_aug.r2) ** 2
        check("free_norm_monotone", float(np.max(np.diff(norm))))
    if use_quad:
        tr_quad = integrate_free(params, 1.0, cfg_slow)
        check("free_closed_form_vs_quadrature", np.max(np.abs(
            tr_quad.beta2 - free_survival(tr_quad.times, params))))
    if use_aug and use_quad:
        check("free_backend_agreement",
              np.max(np.abs(tr_aug.beta2 - tr_quad.beta2)))

    # dark state decouples entirely
    if use_aug:
        tr_dark = integrate_free(params, 1.0, cfg_fast,
                                 state0=OddParityState.dark())
        check("dark_state_frozen", max(
            float(np.max(np.abs(tr_dark.beta2))),
            float(np.max(np.abs(tr_dark.beta1 - tr_dark.beta1[0])))))

    # measurement protocol closed form
    sched_z = ZenoSchedule(_CASE1_TAU)
    composed = free_survival(_CASE1_TAU, params) ** 10
    check("zeno_composition_identity",
          abs(zeno_amplitude(1.0, sched_z, params) - composed))
    dt_small = 1e-3
    ratio = (1.0 - free_survival(dt_small, params)) / (r_sq * dt_small ** 2 / 2.0)
    check("zeno_quadratic_limit", abs(ratio - 1.0))

    # instantaneous pulses: closed form vs oracle, backend agreement
    if use_aug:
        tr_dd = integrate_dd(params, sched_dd, 1.0, cfg_fast)
        check("dd_recursion_vs_augmented", np.max(np.abs(
            tr_dd.beta2 - dd_survival(tr_dd.times, sched_dd, params))))
        if use_quad:
            tr_dd_q = integrate_dd(params, sched_dd, 1.0, cfg_slow)
            check("dd_backend_agreement",
                  np.max(np.abs(tr_dd.beta2 - tr_dd_q.beta2)))

    # slope reverses sign at each pulse instant; one-sided second-order
    # differences, defect normalized by the allowed band
    h = 1e-6
    instants = [m * _CASE1_TAU for m in range(1, 10)]
    xi = dd_survival([t0 + d for t0 in instants
                      for d in (-2 * h, -h, 0.0, h, 2 * h)], sched_dd, params)
    worst = 0.0
    for j in range(0, len(xi), 5):
        back2, back1, here, ahead1, ahead2 = xi[j:j + 5]
        right = (-3 * here + 4 * ahead1 - ahead2) / (2 * h)
        left = (3 * here - 4 * back1 + back2) / (2 * h)
        band = 1e-5 * abs(left) + 1e-9
        worst = max(worst, abs(right + left) / band)
    check("dd_slope_reversal", worst)

    # interval equation residual away from the pulse instants
    hh = 1e-4
    interior = [t0 for t0 in np.linspace(0.02, 0.98, 33)
                if min(abs(t0 - round(t0 / _CASE1_TAU) * _CASE1_TAU),
                       abs(t0 % _CASE1_TAU)) >= 3 * hh]
    worst = _ode_residual(
        dd_survival([t for t0 in interior for t in (t0 - hh, t0, t0 + hh)],
                    sched_dd, params), hh, lam, r_sq)
    check("dd_interval_ode_residual", worst)

    # finite-duration pulses: map vs oracle on free-segment samples
    if use_aug:
        for n_duty, name in ((10, "finite_map_vs_oracle_n10"),
                             (20, "finite_map_vs_oracle_n20")):
            sched_f = FinitePulseSchedule(_CASE2_TAU, n_duty)
            tr_f = integrate_finite(params, sched_f, 1.0, cfg_fast)
            closed_f = finite_dd_survival(tr_f.times, sched_f, params)
            worst = max(abs(complex(b2) - value)
                        for b2, (value, tag) in zip(tr_f.beta2, closed_f)
                        if tag == FREE_SEGMENT)
            check(name, worst)

    # amplitude modulus continuous across window edges
    sched_f = FinitePulseSchedule(_CASE2_TAU, 10)
    eps = 1e-9
    edges = [edge for m in range(5)
             for edge in (m * _CASE2_TAU + sched_f.free_length,
                          (m + 1) * _CASE2_TAU)]
    sides = [abs(value) for value, _ in finite_dd_survival(
        [t for edge in edges for t in (edge - eps, edge + eps)],
        sched_f, params)]
    worst = max(abs(hi - lo) for lo, hi in zip(sides[0::2], sides[1::2]))
    check("finite_window_edge_continuity", worst)

    # free-segment piece of the finite protocol still solves the interval ODE
    free_points = [t0 for t0 in (0.05, 0.25, 0.31, 0.52, 0.71, 0.93)
                   if sched_f.segment_of(t0)[0] == FREE_SEGMENT]
    worst = _ode_residual(
        [value for value, _ in finite_dd_survival(
            [t for t0 in free_points for t in (t0 - hh, t0, t0 + hh)],
            sched_f, params)], hh, lam, r_sq)
    check("finite_free_segment_ode_residual", worst)

    # N -> infinity reproduces instantaneous pulses; approach is monotone
    state = OddParityState.superradiant()
    sched_i = DdSchedule(_CASE2_TAU)
    ts = np.linspace(0.0, 1.0, 501)
    inst = dd_survival(ts, sched_i, params)
    devs = {}
    for n_duty in (10, 20, 40, 80, 10000):
        sched_n = FinitePulseSchedule(_CASE2_TAU, n_duty)
        devs[n_duty] = max(
            abs(f - abs(x))
            for (f, tag), x in zip(
                finite_dd_fidelity(state, ts, sched_n, params), inst)
            if tag == FREE_SEGMENT)
    check("finite_instantaneous_limit", devs[10000])
    drops = [devs[a] - devs[b] for a, b in ((10, 20), (20, 40), (40, 80))]
    check("finite_limit_monotone_in_n", min(drops), ">=")

    # mixed state: dark amplitude untouched by any protocol
    if use_aug:
        mixed = OddParityState.initial(math.sqrt(0.5), math.sqrt(0.5))
        worst = 0.0
        for tr in (integrate_free(params, 1.0, cfg_fast, state0=mixed),
                   integrate_dd(params, sched_dd, 1.0, cfg_fast,
                                state0=mixed),
                   integrate_finite(params, sched_f, 1.0, cfg_fast,
                                    state0=mixed)):
            worst = max(worst,
                        float(np.max(np.abs(tr.beta1 - tr.beta1[0]))))
        check("dark_protected_all_protocols", worst)

    # fixed-step convergence orders against the closed free solution
    if use_aug:
        def max_err(order: int, dt: float) -> float:
            cfg = OracleConfig(dt_num=dt, method_order=order)
            tr = integrate_free(params, 1.0, cfg)
            return float(np.max(np.abs(
                tr.beta2 - free_survival(tr.times, params))))

        check("convergence_order_rk4", max_err(4, 0.04) / max_err(4, 0.02),
              ">=")
        check("convergence_order_rk2", max_err(2, 0.04) / max_err(2, 0.02),
              ">=")

    return ValidationReport(results)
