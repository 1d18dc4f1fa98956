"""Workload definitions, reference data and output checks for the benchmark.

Each workload is one parityshield CLI command, run the way a user runs it.
The seed picks an entry of a fixed table of overdamped parameters
(``0 < omega < lam``); the amount of work never depends on the seed.
The table and the reference outputs for every entry were recorded with
``make_reference.py`` and live in ``reference.json``.

Why these workloads:

* ``trace-long`` -- a dense fidelity trace: ``custom`` with fig3's schedules
  plus Zeno and instantaneous pulses, t_max = 20 at 2000 samples per unit
  time (40 001 grid points x 5 columns).  It stresses warm per-sample
  closed forms, ``compute_trace`` assembly and ``output``.  Recursions stay
  short (at most 200 cycles) and the oracle is not used.  ``custom`` is
  used instead of ``fig3`` because ``fig3`` exits 2 by design (its terminal
  ordering check, acceptance criterion 06, contradicts the dynamics).
* ``sweep-far`` -- terminal fidelities over lam (5) x omega (4) x tau (3) x
  n_duty (2) = 120 cells at t_max = 200.  Same closed-form modules as
  ``trace-long`` used the opposite way: one far-horizon sample per cold
  schedule, so cost is recursion length and memo growth, and output is
  negligible.  Every omega is below every lam, because finite pulses reject
  non-overdamped parameters with exit 1.
* ``validate`` -- the 20-check validation suite with both oracle backends
  at the default step.  It is the only workload that exercises ``oracle``
  and ``validation``.  Its inputs are canonical, so the seed does not apply.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
TABLE_SIZE = 16

TRACE_SCHEDULES = "none|zeno(0.1)|dd(0.1)|dd-finite(0.2,10)|dd-finite(0.2,20)"
SWEEP_TAUS = "0.05,0.1,0.2"
SWEEP_N_DUTY = "10,20"

# absolute tolerances against the recorded reference; loose enough for a
# reordered or vectorised closed form, far below any physical difference
VALUE_TOL = 1e-9       # per fidelity value
SUM_TOL = 1e-6         # per column sum over all 40 001 trace rows
TRACE_STRIDE = 1000    # every 1000th trace row is compared value by value

VALIDATE_FINAL = "20 checks, 0 failed"


@dataclass(frozen=True)
class Workload:
    name: str
    unit_label: str      # what one unit of units_per_s is

    def argv(self, inputs: dict, out_dir: Path) -> list[str]:
        if self.name == "trace-long":
            return ["custom", "--schedules", TRACE_SCHEDULES, "--t-max", "20",
                    "--lambda", inputs["lam"], "--omega", inputs["omega"],
                    "--out", str(out_dir / "trace-long.csv")]
        if self.name == "sweep-far":
            return ["sweep", "--lambda", inputs["sweep_lams"],
                    "--omega", inputs["sweep_omegas"], "--tau", SWEEP_TAUS,
                    "--n-duty", SWEEP_N_DUTY, "--t-max", "200",
                    "--out", str(out_dir / "sweep-far.csv")]
        return ["validate"]

    def expected_final_line(self, out_dir: Path) -> str:
        if self.name == "trace-long":
            return f"wrote {out_dir / 'trace-long.svg'}"
        if self.name == "sweep-far":
            return f"wrote {out_dir / 'sweep-far.csv'} (120 cells)"
        return VALIDATE_FINAL

    def output_files(self, out_dir: Path) -> list[Path]:
        if self.name == "trace-long":
            return [out_dir / "trace-long.csv", out_dir / "trace-long.svg"]
        if self.name == "sweep-far":
            return [out_dir / "sweep-far.csv"]
        return []


WORKLOADS = {w.name: w for w in (
    Workload("trace-long", "fidelity values written"),
    Workload("sweep-far", "sweep cells"),
    Workload("validate", "validation checks"),
)}


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a parityshield CSV, metadata lines skipped.

    Deliberately not ``parityshield.output.read_csv``: the check must not
    share code with the program it checks.
    """
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            cells = line.rstrip("\n").split(",")
            if header:
                rows.append(cells)
            else:
                header = cells
    return header, rows


def summarize(workload: Workload, out_dir: Path, stdout: str) -> dict:
    """The part of one run's output that is compared with the reference."""
    if workload.name == "validate":
        lines = stdout.rstrip("\n").split("\n")
        return {"checks": [ln.split()[0] for ln in lines[:-1]],
                "verdicts": [ln.split()[-1] for ln in lines[:-1]],
                "final": lines[-1]}
    header, rows = read_table(out_dir / f"{workload.name}.csv")
    numeric = [i for i, name in enumerate(header) if name != "segment"]
    if workload.name == "sweep-far":
        return {"header": header, "rows": len(rows),
                "values": [[float(r[i]) for i in numeric] for r in rows]}
    sums = [0.0] * len(numeric)
    for r in rows:
        for k, i in enumerate(numeric):
            sums[k] += float(r[i])
    return {"header": header, "rows": len(rows),
            "in_pulse": sum(r[-1] == "in_pulse" for r in rows),
            "sample": [[float(rows[j][i]) for i in numeric]
                       for j in range(0, len(rows), TRACE_STRIDE)],
            "sums": sums}


def _close(got: list, want: list, tol: float) -> bool:
    return len(got) == len(want) and all(
        abs(g - w) <= tol for g, w in zip(got, want))


def compare(summary: dict, reference: dict) -> str | None:
    """None if the run matches the reference, else the first mismatch."""
    for key in ("header", "rows", "in_pulse", "checks", "verdicts", "final"):
        if key in reference and summary.get(key) != reference[key]:
            return f"{key}: got {summary.get(key)!r}, want {reference[key]!r}"
    for key, tol in (("values", VALUE_TOL), ("sample", VALUE_TOL)):
        if key in reference:
            for j, (got, want) in enumerate(zip(summary[key], reference[key])):
                if not _close(got, want, tol):
                    return f"{key} row {j}: got {got}, want {want} (tol {tol})"
            if len(summary[key]) != len(reference[key]):
                return f"{key}: {len(summary[key])} rows, want {len(reference[key])}"
    if "sums" in reference and not _close(summary["sums"], reference["sums"],
                                          SUM_TOL):
        return f"column sums {summary['sums']} differ from {reference['sums']}"
    return None


def units(workload: Workload, summary: dict) -> int:
    """Work done by one run: fidelity values, sweep cells or checks."""
    if workload.name == "validate":
        return len(summary["checks"])
    if workload.name == "sweep-far":
        return summary["rows"]
    fidelity_columns = sum(h.startswith("F_") for h in summary["header"])
    return summary["rows"] * fidelity_columns


def digest(workload: Workload, out_dir: Path, stdout: str) -> str:
    """Hash of every output byte; equal digests mean byte-identical runs."""
    h = hashlib.sha256(stdout.encode())
    for path in workload.output_files(out_dir):
        h.update(path.read_bytes())
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def entry_for_seed(reference: dict, seed: int) -> dict:
    """Inputs and reference summaries for a seed (validate takes no inputs)."""
    entry = dict(reference["entries"][seed % TABLE_SIZE])
    entry["validate"] = reference["validate"]
    return entry
