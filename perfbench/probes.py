"""Layer probes, each run in a fresh interpreter after a traced workload.

Usage: probes.py KIND SEED SIDECAR

* ``warm`` -- per-call time of ``dd_fidelity`` and ``finite_dd_fidelity``
  once their coefficient memo covers the grid (what ``trace-long`` pays per
  sample).
* ``cold`` -- per-cycle time of a first far-horizon call (t = 200) on a
  fresh schedule, with parameters drawn from SEED that no earlier call
  used, so no memo entry is reused (what ``sweep-far`` pays per cell).
* ``oracle`` -- both oracle backends timed at two step counts; reports
  the exponent of time against step count between them (1 is linear).

Repeated timings report their fastest repeat, in raw wall time.  Writes
SIDECAR as a JSON object of metric name -> value.
"""

import json
import math
import random
import statistics
import sys
from time import perf_counter

from parityshield import (DdSchedule, FinitePulseSchedule, ModelParams,
                          OddParityState, OracleConfig, dd_fidelity,
                          finite_dd_fidelity, integrate_free)
from parityshield.oracle import DIRECT_QUADRATURE, EXACT_AUGMENTED

STATE = OddParityState.superradiant()
REPEATS = 5


def _fresh_params(rng: random.Random) -> ModelParams:
    lam = rng.uniform(2.0, 4.0)
    return ModelParams.from_mode_splitting(lam, rng.uniform(0.1, 0.9) * lam)


def warm(seed: int) -> dict:
    params = _fresh_params(random.Random(seed))
    grid = [j / 200 for j in range(4001)]           # t in [0, 20]
    out = {}
    for layer, fn, sched in (
            ("decoupling", dd_fidelity, DdSchedule(0.1)),
            ("finite_pulse", finite_dd_fidelity, FinitePulseSchedule(0.2, 10))):
        for t in grid:                               # fill the memo
            fn(STATE, t, sched, params)
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            for t in grid:
                fn(STATE, t, sched, params)
            times.append(perf_counter() - t0)
        out[f"{layer}.warm_call_us"] = min(times) / len(grid) * 1e6
    return out


def cold(seed: int) -> dict:
    rng = random.Random(seed)
    t_far = 200.0
    per_cycle = {"decoupling": [], "finite_pulse": []}
    for _ in range(REPEATS):
        params = _fresh_params(rng)
        for tau in (0.05, 0.1, 0.2):
            cycles = round(t_far / tau)
            t0 = perf_counter()
            dd_fidelity(STATE, t_far, DdSchedule(tau), params)
            per_cycle["decoupling"].append((perf_counter() - t0) / cycles)
            for n_duty in (10, 20):
                sched = FinitePulseSchedule(tau, n_duty)
                t0 = perf_counter()
                finite_dd_fidelity(STATE, t_far, sched, params)
                per_cycle["finite_pulse"].append((perf_counter() - t0) / cycles)
    return {f"{layer}.cold_cycle_us": statistics.median(v) * 1e6
            for layer, v in per_cycle.items()}


def oracle(seed: int) -> dict:
    del seed                     # canonical validation parameters
    params = ModelParams.from_mode_splitting(2.0, 1.0)
    dt = 1e-4
    counts = (2000, 4000)
    out = {}
    for backend, order, short in ((EXACT_AUGMENTED, 4, "augmented"),
                                  (DIRECT_QUADRATURE, 2, "quadrature")):
        cfg = OracleConfig(dt_num=dt, method_order=order, history_mode=backend)
        best = [math.inf] * len(counts)
        for _ in range(REPEATS):      # alternate so both counts see one load
            for i, n in enumerate(counts):
                t0 = perf_counter()
                integrate_free(params, n * dt, cfg)
                best[i] = min(best[i], perf_counter() - t0)
        out[f"oracle.{short}_growth"] = (math.log(best[1] / best[0])
                                         / math.log(counts[1] / counts[0]))
    return out


def main() -> None:
    kind, seed, sidecar = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    result = {"warm": warm, "cold": cold, "oracle": oracle}[kind](seed)
    with open(sidecar, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
