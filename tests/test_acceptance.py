"""Acceptance gate: ten numbered criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
terminal-ordering half of criterion 6 states a chain the actual dynamics
does not satisfy (the finite-duration curves approach the instantaneous
limit from above, not below); it is asserted as stated and fails honestly.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import parityshield as ps
from parityshield.cli import main

CASE1 = ps.ModelParams.from_mode_splitting(2.0, 1.0)
TAU1 = 0.1
TAU2 = 0.2


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{desc}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({desc}): {detail}"


def _closed_free(times):
    return np.array(ps.free_survival(times, CASE1))


def test_criterion_01_free_oracle_both_backends():
    worst = 0.0
    slowest = 0.0
    for order, mode in ((4, ps.EXACT_AUGMENTED), (2, ps.DIRECT_QUADRATURE)):
        cfg = ps.OracleConfig(dt_num=1e-4, method_order=order,
                              history_mode=mode)
        t0 = time.perf_counter()
        tr = ps.integrate_free(CASE1, 1.0, cfg)
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, float(np.max(np.abs(tr.beta2
                                               - _closed_free(tr.times)))))
    ok = worst < 1e-6 and slowest < 5.0
    _report(1, "free decay vs both integrator backends", ok,
            f"max err {worst:.3e} < 1e-6, slowest run {slowest:.2f}s < 5s")


def test_criterion_02_measurement_composition():
    amp = ps.zeno_amplitude(1.0, ps.ZenoSchedule(TAU1), CASE1)
    composed = 1.0
    for _ in range(10):
        composed *= ps.free_survival(TAU1, CASE1)
    dev_ref = abs(amp - 0.9654)
    dev_comp = abs(amp - composed)
    ok = dev_ref < 1e-4 and dev_comp < 1e-12
    _report(2, "ten measurement rounds", ok,
            f"|amp-0.9654| {dev_ref:.2e} < 1e-4, "
            f"|amp-composed| {dev_comp:.1e} < 1e-12")


def test_criterion_03_pulse_recursion_vs_oracle():
    sched = ps.DdSchedule(TAU1)
    cfg = ps.OracleConfig(dt_num=1e-4, method_order=4)
    t0 = time.perf_counter()
    tr = ps.integrate_dd(CASE1, sched, 1.0, cfg)
    elapsed = time.perf_counter() - t0
    closed = np.array(ps.dd_survival(tr.times, sched, CASE1))
    err = float(np.max(np.abs(tr.beta2 - closed)))
    ok = err < 1e-6 and elapsed < 10.0
    _report(3, "pulse recursion vs oracle", ok,
            f"max err {err:.3e} < 1e-6, runtime {elapsed:.2f}s < 10s")


def test_criterion_04_protocol_ordering():
    state = ps.OddParityState.superradiant()
    sched_z = ps.ZenoSchedule(TAU1)
    sched_d = ps.DdSchedule(TAU1)
    ts = [j / 1000 for j in range(1001)]
    f_dd = ps.dd_fidelity(state, ts, sched_d, CASE1)
    f_z = ps.zeno_fidelity(state, ts, sched_z, CASE1)
    f_fr = ps.free_fidelity(state, ts, CASE1)
    zeno_end = f_z[-1]
    ok = min(f_dd) > zeno_end
    worst_gap = math.inf
    for t, fd, fz, ff in zip(ts, f_dd, f_z, f_fr):
        if t <= TAU1 + 1e-12:
            continue
        floor = 1e-6 if t > 0.2 + 1e-12 else -1e-12
        worst_gap = min(worst_gap, fd - fz, fz - ff)
        if fd - fz < floor or fz - ff < floor:
            ok = False
    _report(4, "pulses beat measurement beat free decay", ok,
            f"min F_dd {min(f_dd):.6f} > F_zeno(1) {zeno_end:.6f}, "
            f"min gap past first interval {worst_gap:.2e}")


def test_criterion_05_slope_reversal_at_pulses():
    sched = ps.DdSchedule(TAU1)
    h = 1e-6
    worst = 0.0
    ok = True
    for m in range(1, 10):
        t0 = m * TAU1
        xi = lambda x: ps.dd_survival(x, sched, CASE1)
        right = (-3 * xi(t0) + 4 * xi(t0 + h) - xi(t0 + 2 * h)) / (2 * h)
        left = (3 * xi(t0) - 4 * xi(t0 - h) + xi(t0 - 2 * h)) / (2 * h)
        defect = abs(right + left)
        bound = 1e-5 * abs(left) + 1e-9
        worst = max(worst, defect / bound)
        if defect >= bound:
            ok = False
    _report(5, "slope flips at every pulse instant", ok,
            f"worst defect/bound ratio {worst:.2e} < 1")


def test_criterion_06_finite_pulse_map_vs_oracle():
    cfg = ps.OracleConfig(dt_num=1e-4, method_order=4)
    worst = 0.0
    for n in (10, 20):
        sched = ps.FinitePulseSchedule(TAU2, n)
        tr = ps.integrate_finite(CASE1, sched, 1.0, cfg)
        closed, _ = ps.finite_dd_survival(tr.times, sched, CASE1)
        for t, b2, value in zip(tr.times, tr.beta2, closed):
            if sched.segment_of(float(t))[0] != ps.FREE_SEGMENT:
                continue
            worst = max(worst, abs(complex(b2) - value))
    ok = worst < 1e-4
    _report(6, "finite-pulse map vs oracle, N in {10, 20}", ok,
            f"max free-segment err {worst:.3e} < 1e-4")


def test_criterion_06_terminal_ordering():
    # stated chain: F_free <= F_N10 <= F_N20 <= F_instant at t = 1.
    # The measured dynamics puts the finite-duration curves above the
    # instantaneous limit (approach from above), so this fails honestly.
    state = ps.OddParityState.superradiant()
    f_free = ps.free_fidelity(state, 1.0, CASE1)
    f_n10 = ps.finite_dd_fidelity(state, 1.0,
                                  ps.FinitePulseSchedule(TAU2, 10), CASE1)[0]
    f_n20 = ps.finite_dd_fidelity(state, 1.0,
                                  ps.FinitePulseSchedule(TAU2, 20), CASE1)[0]
    f_inst = ps.dd_fidelity(state, 1.0, ps.DdSchedule(TAU2), CASE1)
    ok = f_free <= f_n10 <= f_n20 <= f_inst
    _report(6, "terminal ordering free <= N10 <= N20 <= instantaneous", ok,
            f"F_free {f_free:.7f}, F_N10 {f_n10:.7f}, "
            f"F_N20 {f_n20:.7f}, F_inst {f_inst:.7f}")


def test_criterion_07_instantaneous_limit():
    state = ps.OddParityState.superradiant()
    sched = ps.FinitePulseSchedule(TAU2, 10000)
    inst = ps.DdSchedule(TAU2)
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 501):
        t = float(t)
        if sched.segment_of(t)[0] != ps.FREE_SEGMENT:
            continue
        f_n = ps.finite_dd_fidelity(state, t, sched, CASE1)[0]
        f_i = abs(ps.dd_survival(t, inst, CASE1))
        worst = max(worst, abs(f_n - f_i))
    ok = worst < 1e-3
    _report(7, "duty parameter 10^4 reaches the instantaneous limit", ok,
            f"max gap {worst:.3e} < 1e-3")


def test_criterion_08_dark_amplitude_frozen():
    mixed = ps.OddParityState.initial(math.sqrt(0.5), math.sqrt(0.5))
    cfg = ps.OracleConfig(dt_num=1e-4, method_order=4)
    traces = (
        ps.integrate_free(CASE1, 1.0, cfg, state0=mixed),
        ps.integrate_dd(CASE1, ps.DdSchedule(TAU1), 1.0, cfg, state0=mixed),
        ps.integrate_finite(CASE1, ps.FinitePulseSchedule(TAU2, 10), 1.0,
                            cfg, state0=mixed),
    )
    worst = max(float(np.max(np.abs(tr.beta1 - tr.beta1[0])))
                for tr in traces)
    ok = worst < 1e-8
    _report(8, "dark amplitude constant under every protocol", ok,
            f"max |beta1 drift| {worst:.2e} < 1e-8")


def test_criterion_09_short_time_quadratic_loss():
    p = ps.ModelParams.from_effective_rate(2.0, math.sqrt(3.0) / 2.0)
    dt = 1e-3
    ratio = (1.0 - ps.free_survival(dt, p)) / (p.r_rate ** 2 * dt ** 2 / 2.0)
    ok = 0.95 <= ratio <= 1.05
    _report(9, "loss is quadratic at short times", ok,
            f"ratio {ratio:.4f} in [0.95, 1.05]")


def test_criterion_10_deterministic_output(tmp_path):
    a = tmp_path / "one" / "fig2.csv"
    b = tmp_path / "two" / "fig2.csv"
    code_a = main(["fig2", "--out", str(a)])
    code_b = main(["fig2", "--out", str(b)])
    ok = code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    _report(10, "repeated runs are byte-identical", ok,
            f"exit codes {code_a}/{code_b}, "
            f"{a.stat().st_size} bytes each, equal={a.read_bytes() == b.read_bytes()}")
