"""Smoke test of the benchmark itself, at its shortest run length.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs with ``--seconds 1`` (two CLI runs, or one untraced and
one traced run, plus the probe), untraced and traced; every metric named in
BENCHMARK.json must come out with its unit, and the correctness gate must
pass.  The workloads keep their real sizes, since reference outputs exist
only for those.  Takes about a minute, most of it in ``validate``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-module metrics that must be nonzero on the workload that exercises them
EXERCISED = {
    "trace-long": ("scenarios.grid_points", "scenarios.compute_trace_self_s",
                   "finite_pulse.calls", "decoupling.warm_call_us",
                   "output.csv_bytes", "output.svg_bytes"),
    "sweep-far": ("scenarios.sweep_cells", "scenarios.run_sweep_self_s",
                  "finite_pulse.cold_cycle_us", "decoupling.cold_cycle_us"),
    "validate": ("oracle.calls", "oracle.quadrature_step_us",
                 "oracle.quadrature_growth", "oracle.max_norm_defect",
                 "validation.checks"),
}


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        for name, m in result["metrics"].items():
            assert m["value"] > 0, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "sweep-far", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
