"""The benchmark's per-layer tracer still finds every binding it wraps.

``perfbench/tracer.py`` replaces functions by the name a module binds them
under (``cli.write_csv``, ``scenarios.time_grid``, ...) and reads result
attributes such as ``len(trace.rows)``.  A refactor that renames such a
binding does not break the benchmark; its per-layer metrics silently read
zero.  This test runs the CLI under the tracer in a fresh interpreter and
requires every span and counter the benchmark reads to be non-zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
from tracer import Tracer
from parityshield import cli

out = sys.argv[1]
tracer = Tracer()
tracer.install()
codes = [
    cli.main(["sweep", "--tau", "0.1,0.2", "--n-duty", "10",
              "--out", out + "/sweep.csv"]),
    cli.main(["custom", "--schedules",
              "none|zeno(0.1)|dd(0.1)|dd-finite(0.2,10)", "--t-max", "0.4",
              "--out", out + "/custom.csv"]),
]
# scenarios and validation bind the closed forms separately; the counters
# are shared, so they are read once between the two
scenario_counters = tracer.record()["counters"]
codes.append(cli.main(["validate", "--oracle-mode", "exact-augmented"]))
with open(out + "/record.json", "w") as fh:
    json.dump({"codes": codes, "scenario_counters": scenario_counters,
               **tracer.record()}, fh)
"""

_SPANS = ("scenarios.compute_trace", "scenarios.time_grid", "output.write_csv",
          "output.render_svg", "scenarios.run_sweep",
          "validation.run_validation", "oracle.integrate_free",
          "oracle.integrate_dd", "oracle.integrate_finite")


def test_tracer_sees_every_layer(tmp_path):
    # no bytecode cache is written next to the benchmark's sources
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["codes"] == [0, 0, 0]

    spans: dict[str, list[dict]] = {}
    for span in record["spans"]:
        spans.setdefault(span["name"], []).append(span)
    for name in _SPANS:
        assert name in spans, name
        assert all(s["end"] > s["start"] for s in spans[name]), name
    assert [s["attrs"]["cells"] for s in spans["scenarios.run_sweep"]] == [2]
    assert all(s["attrs"]["points"] > 0 for s in spans["scenarios.time_grid"])
    for name in ("output.write_csv", "output.render_svg"):
        assert all(s["attrs"]["bytes"] > 0 for s in spans[name]), name
    for name in ("oracle.integrate_free", "oracle.integrate_dd",
                 "oracle.integrate_finite"):
        assert all(s["attrs"]["steps"] > 0 for s in spans[name]), name

    before, after = record["scenario_counters"], record["counters"]
    for module in ("free_evolution", "zeno", "decoupling", "finite_pulse"):
        assert before[module]["calls"] > 0, module
        assert before[module]["busy_s"] > 0.0, module
        assert after[module]["calls"] > before[module]["calls"], module
