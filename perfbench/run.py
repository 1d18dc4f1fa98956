"""parityshield benchmark: CLI workloads timed end to end and per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload trace-long|sweep-far|validate \\
        --seed N --seconds S --trace 0|1

Every timed run is ``parityshield.cli.main(argv)`` in a fresh interpreter,
because the coefficient memos in ``decoupling`` and ``finite_pulse`` live as
long as the process and CLI users always start cold.  Runs repeat one after
another for S seconds; each run's exit code, final stdout line and output
are checked (see ``workloads.py``), and every run must be byte-identical
to the first.

``--trace 0`` reports the end-to-end metrics, each the median over the
runs: ``run_s`` (time of cli.main), ``setup_s`` (spawn to the end of
imports), ``units_per_s`` (work over ``run_s``), ``peak_rss_mib`` (per
child from ``os.wait4``) and ``ok_ratio`` (runs that passed the checks over
runs attempted).  ``run_s`` and ``setup_s`` are host-speed-normalised: on a
shared host, other tenants slow every instruction by up to 2x for seconds
to minutes, so each wall time is divided by the slowdown of a fixed
calibration pass timed in the same process (after imports for set-up, and
every 0.1 s during cli.main for the run; see ``child.py``) against
its time on the reference host when quiet.  They read as the seconds the
run would take there.  The raw wall-time medians are printed too, as
``run_wall_s`` and ``setup_wall_s``.  ``--trace 1`` alternates untraced
and traced runs, reports the per-module decomposition of the fastest traced
run in raw wall time (see ``tracer.py``) and ``trace_overhead_s``, and runs
the workload's probe (see ``probes.py``).

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give every
metric with its unit, the machine and versions; the full record, spans
included, goes to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BENCH_SPEC = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 60.0
MIN_RUNS = 2                  # the byte-identity check needs two runs
PROBE_FOR = {"trace-long": "warm", "sweep-far": "cold", "validate": "oracle"}
# one BLAS/OpenMP thread per child: the parent waits while a child runs, so
# the load stays within the two cores this benchmark is sized for
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# time of one child.calibration_pass on the reference host at its quiet
# speed (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4): right after imports,
# and sampled during a run, where the program's data has evicted part of
# the pass from the caches
CAL_SETUP_REFERENCE_S = 1.1e-3
CAL_RUN_REFERENCE_S = 1.25e-3


class ChildFailed(Exception):
    """A child process did not finish its command as expected."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env.pop("PARITYSHIELD_OUT", None)
    for name in PINNED_THREADS:
        env[name] = "1"
    return env


def spawn(args: list[str], cwd: Path, env: dict, stdout_path: Path) -> dict:
    """Run one child to completion; exit code, spawn instant, peak RSS."""
    with open(stdout_path, "w") as out, \
            open(stdout_path.with_suffix(".err"), "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=out, stderr=err)
        deadline = t_spawn + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "t_spawn": t_spawn,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mib": usage.ru_maxrss / 1024.0}


def build(tmp: Path, env: dict) -> None:
    """Import the package once: a broken package fails before any timing,
    and byte-code (where Python writes it) is compiled before the first run."""
    out = tmp / "build.out"
    result = spawn(["-c", "import parityshield.cli"], tmp, env, out)
    if result["rc"] != 0:
        raise SystemExit("parityshield does not import:\n"
                         + out.with_suffix(".err").read_text())


class Session:
    """Runs one workload repeatedly and checks every run's output."""

    def __init__(self, workload, entry: dict, tmp: Path, env: dict):
        self.workload = workload
        self.entry = entry
        self.tmp = tmp
        self.env = env
        self.out_dir = tmp / "out"
        self.out_dir.mkdir()
        self.argv = workload.argv(entry["inputs"], self.out_dir)
        self.first_digest: str | None = None
        self.units = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, trace: bool) -> dict | None:
        """One timed CLI run; its record, or None if it failed."""
        self.attempted += 1
        sidecar = self.tmp / "sidecar.json"
        stdout_path = self.tmp / "child.out"
        sidecar.unlink(missing_ok=True)
        try:
            result = spawn([str(HERE / "child.py"), str(sidecar),
                            "1" if trace else "0", "--", *self.argv],
                           self.out_dir, self.env, stdout_path)
            self.check(result["rc"], stdout_path.read_text(), sidecar)
        except ChildFailed as exc:
            self.failures.append(f"run {self.attempted}: {exc}")
            return None
        with open(sidecar) as fh:
            record = json.load(fh)
        record["setup_wall_s"] = record["t_ready"] - result["t_spawn"]
        # the sampler's handler ran inside cli.main; its time is not the
        # program's
        record["run_wall_s"] = (record["t_exit"] - record["t_enter"]
                                - record["handler_s"])
        setup_slowdown = (statistics.mean(record["cal_pre"])
                          / CAL_SETUP_REFERENCE_S)
        # the first sample, 0.1 s into cli.main, reads up to 1.7x slower
        # than the rest on some workloads
        during = record["cal_during"][1:]
        run_slowdown = (statistics.mean(during) / CAL_RUN_REFERENCE_S
                        if during else setup_slowdown)
        record["setup_s"] = record["setup_wall_s"] / setup_slowdown
        record["run_s"] = record["run_wall_s"] / run_slowdown
        record["peak_rss_mib"] = result["peak_rss_mib"]
        return record

    def check(self, rc: int, stdout: str, sidecar: Path) -> None:
        if rc != 0:
            err = (self.tmp / "child.err").read_text().strip()
            raise ChildFailed(f"exit code {rc}: {err[-500:]}")
        final = stdout.rstrip("\n").split("\n")[-1]
        if final != self.workload.expected_final_line(self.out_dir):
            raise ChildFailed(f"unexpected final line {final!r}")
        if not sidecar.is_file():
            raise ChildFailed("no timing record written")
        digest = workloads.digest(self.workload, self.out_dir, stdout)
        if self.first_digest is None:
            summary = workloads.summarize(self.workload, self.out_dir, stdout)
            mismatch = workloads.compare(summary,
                                         self.entry[self.workload.name])
            if mismatch:
                raise ChildFailed(f"output differs from reference: {mismatch}")
            self.first_digest = digest
            self.units = workloads.units(self.workload, summary)
        elif digest != self.first_digest:
            raise ChildFailed("output is not byte-identical to the first run")

    def probe(self, kind: str, seed: int) -> dict:
        self.attempted += 1
        sidecar = self.tmp / "probe.json"
        result = spawn([str(HERE / "probes.py"), kind, str(seed),
                        str(sidecar)], self.tmp, self.env,
                       self.tmp / "probe.out")
        if result["rc"] != 0:
            err = (self.tmp / "probe.err").read_text().strip()
            self.failures.append(f"probe {kind}: exit code {result['rc']}: "
                                 f"{err[-500:]}")
            return {}
        with open(sidecar) as fh:
            return json.load(fh)


def end_to_end(session: Session, records: list[dict]) -> dict[str, float]:
    run_s = statistics.median(r["run_s"] for r in records)
    return {
        "run_s": run_s,
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "units_per_s": session.units / run_s,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in records),
        "ok_ratio": 1.0 - len(session.failures) / session.attempted,
    }


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-module metrics of one traced run, from its spans and counters."""
    spans = record["spans"]
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["self"] = s["dur"] - s["child_s"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key="dur"):
        return sum(s[key] for s in named(name))

    def attr(name, key):
        return sum(s["attrs"][key] for s in named(name))

    out = {"trace.run_s": total("cli.main"),
           "cli.self_s": total("cli.main", "self"),
           "scenarios.time_grid_s": total("scenarios.time_grid"),
           "scenarios.grid_points": attr("scenarios.time_grid", "points"),
           "scenarios.compute_trace_s": total("scenarios.compute_trace"),
           "scenarios.compute_trace_self_s":
               total("scenarios.compute_trace", "self"),
           "scenarios.run_sweep_s": total("scenarios.run_sweep"),
           "scenarios.run_sweep_self_s": total("scenarios.run_sweep", "self"),
           "scenarios.sweep_cells": attr("scenarios.run_sweep", "cells"),
           "output.write_csv_s": total("output.write_csv"),
           "output.render_svg_s": total("output.render_svg"),
           "output.csv_bytes": attr("output.write_csv", "bytes"),
           "output.svg_bytes": attr("output.render_svg", "bytes"),
           "validation.self_s": total("validation.run_validation", "self"),
           "validation.checks": attr("validation.run_validation", "checks"),
           "validation.checks_failed":
               attr("validation.run_validation", "failed"),
           "validation.min_margin_log10":
               attr("validation.run_validation", "min_margin_log10")}
    for layer in ("free_evolution", "zeno", "decoupling", "finite_pulse"):
        counter = record["counters"].get(layer, {"calls": 0, "busy_s": 0.0})
        out[f"{layer}.calls"] = counter["calls"]
        out[f"{layer}.busy_s"] = counter["busy_s"]

    oracle = [s for s in spans if s["name"].startswith("oracle.")]
    out["oracle.calls"] = len(oracle)
    out["oracle.steps"] = sum(s["attrs"]["steps"] for s in oracle)
    for backend, short in (("exact-augmented", "augmented"),
                           ("direct-quadrature", "quadrature")):
        mine = [s for s in oracle if s["attrs"]["backend"] == backend]
        busy = sum(s["dur"] for s in mine)
        steps = sum(s["attrs"]["steps"] for s in mine)
        out[f"oracle.{short}_busy_s"] = busy
        out[f"oracle.{short}_step_us"] = busy / steps * 1e6 if steps else 0.0
    out["oracle.max_norm_defect"] = max(
        (s["attrs"]["max_norm_defect"] for s in oracle), default=0.0)

    # every second of the root span is in exactly one self time or one
    # aggregated busy time; a gap here is a tracer defect
    attributed = (sum(s["self"] for s in spans)
                  + sum(c["busy_s"] for c in record["counters"].values()))
    residual = out["trace.run_s"] - attributed
    if abs(residual) > 1e-6:
        raise RuntimeError(f"traced time does not add up: residual {residual}")
    return out


def per_layer(session: Session, plain: list[dict], traced: list[dict],
              seed: int) -> dict[str, float]:
    """Decomposition of the fastest traced run, so its parts add up."""
    out = min((layer_metrics(r) for r in traced),
              key=lambda m: m["trace.run_s"])
    out["trace_overhead_s"] = (out["trace.run_s"]
                               - min(r["run_wall_s"] for r in plain))
    for name in ("decoupling.warm_call_us", "finite_pulse.warm_call_us",
                 "decoupling.cold_cycle_us", "finite_pulse.cold_cycle_us",
                 "oracle.augmented_growth", "oracle.quadrature_growth"):
        out[name] = 0.0
    out.update(session.probe(PROBE_FOR[session.workload.name], seed))
    return out


def machine(numpy_version: str, seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy_version,
            "seed": seed,
            "blas_threads": {name: "1" for name in PINNED_THREADS}}


def measure(args, tmp: Path) -> tuple[dict, dict]:
    env = child_env()
    build(tmp, env)
    workload = workloads.WORKLOADS[args.workload]
    entry = workloads.entry_for_seed(workloads.load_reference(), args.seed)
    session = Session(workload, entry, tmp, env)
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + args.seconds
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            record = session.run(trace)
            if record is not None:
                (traced if trace else plain).append(record)
        if time.monotonic() >= deadline and (
                args.trace or session.attempted >= MIN_RUNS):
            break
    numpy_version = (plain or traced or [{"numpy": "unknown"}])[0]["numpy"]
    if args.trace:
        metrics = per_layer(session, plain, traced, args.seed) \
            if plain and traced else {}
    else:
        metrics = end_to_end(session, plain) if plain else {}
    record = {"workload": args.workload, "trace": args.trace,
              "machine": machine(numpy_version, args.seed),
              "inputs": entry["inputs"], "argv": session.argv,
              "failures": session.failures, "metrics": metrics,
              "runs": [{k: v for k, v in r.items() if k != "spans"}
                       for r in plain + traced],
              "spans": [r["spans"] for r in traced]}
    result = {"correct": not session.failures and bool(metrics),
              "attempted": session.attempted,
              "failed": len(session.failures),
              "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "parityshield" / "cli.py").is_file():
        print(f"no parityshield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(BENCH_SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        result, record = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if result["metrics"]:
        missing = set(units) - set(result["metrics"])
        if missing:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": units[name]}
                         for name in units if name in result["metrics"]}
    out_file = work / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={result['attempted']} record={out_file.relative_to(ROOT)}")
    print(f"# one unit of units_per_s is one of the "
          f"{workloads.WORKLOADS[args.workload].unit_label}")
    print(f"# machine {json.dumps(record['machine'])}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    if not args.trace:
        failed_ratio = result["failed"] / result["attempted"]
        print(f"{'failed_ratio':<34} {failed_ratio:>16.6g} ratio")
        runs = record["runs"]
        for key in ("run_wall_s", "setup_wall_s"):
            if runs:
                value = statistics.median(r[key] for r in runs)
                print(f"{key + ' median of ' + str(len(runs)):<34} "
                      f"{value:>16.6g} s")
    for name, m in result["metrics"].items():
        print(f"{name:<34} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
