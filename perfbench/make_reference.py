"""Record the reference outputs that the benchmark's correctness gate uses.

Runs every workload once per parameter-table entry with the parityshield
in ``src/`` and writes ``reference.json``.  Run it from the repository root
only when the program's outputs are meant to change:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def make_inputs(index: int) -> dict[str, str]:
    """Deterministic overdamped inputs for one table entry."""
    rng = random.Random(index)
    lam = rng.randint(1500, 4000) / 1000
    omega = round(lam * rng.randint(200, 800) / 1000, 3)
    lams = sorted(rng.sample(range(200, 401), 5))
    omegas = sorted(rng.sample(range(20, 181), 4))
    return {
        "lam": f"{lam:.3f}",
        "omega": f"{omega:.3f}",
        # every sweep omega (<= 1.8) lies below every sweep lam (>= 2.0)
        "sweep_lams": ",".join(f"{v / 100:.2f}" for v in lams),
        "sweep_omegas": ",".join(f"{v / 100:.2f}" for v in omegas),
    }


def run_cli(argv: list[str], cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "parityshield.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def summary_of(name: str, inputs: dict, out_dir: Path) -> dict:
    workload = workloads.WORKLOADS[name]
    stdout = run_cli(workload.argv(inputs, out_dir), out_dir)
    if stdout.rstrip("\n").split("\n")[-1] != \
            workload.expected_final_line(out_dir):
        raise SystemExit(f"{name}: unexpected output {stdout!r}")
    return workloads.summarize(workload, out_dir, stdout)


def main() -> None:
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for index in range(workloads.TABLE_SIZE):
            inputs = make_inputs(index)
            entries.append({
                "inputs": inputs,
                "trace-long": summary_of("trace-long", inputs, out_dir),
                "sweep-far": summary_of("sweep-far", inputs, out_dir),
            })
            print(f"entry {index}: {inputs}", file=sys.stderr)
        validate = summary_of("validate", {}, out_dir)
    reference = {"validate": validate, "entries": entries}
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
