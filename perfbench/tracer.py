"""In-memory spans around parityshield's public functions, for one process.

``Tracer.install`` replaces public functions in the namespace of the module
that calls them (``cli.write_csv``, ``scenarios.finite_dd_fidelity``,
``validation.integrate_dd``, ...), so the package itself is not edited.
Calls between layers become spans with a name, start, end and parent; the
hundreds of thousands of per-sample closed-form calls are aggregated into a
call count and busy time per module instead.  Every span keeps the time its
children and aggregated calls took, so a span's self time is its duration
minus that, and the self times of all spans plus the aggregated busy times
add up to the root span.  Nothing is written until ``record`` is called at
the end of the run.
"""

from __future__ import annotations

import math
import os
from time import perf_counter

import numpy as np


def _margin_log10(check) -> float | None:
    """log10 of how far a passing check is from its tolerance."""
    num, den = ((check.tolerance, check.measured) if check.comparator == "<="
                else (check.measured, check.tolerance))
    return math.log10(num / den) if num > 0.0 and den > 0.0 else None


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, child seconds, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, list] = {}     # module -> [calls, busy_s]

    def span(self, name, fn, attrs_of=None):
        """Wrap fn so each call is a span; attrs_of(args, result) -> dict."""
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, {}]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]
            if attrs_of is not None:
                rec[5] = attrs_of(args, result)
            return result
        return wrapped

    def counted(self, module, fn):
        """Wrap fn so its calls add to one count and busy time per module."""
        counter = self.counters.setdefault(module, [0, 0.0])
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                counter[0] += 1
                counter[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt
        return wrapped

    def install(self) -> None:
        from parityshield import cli, scenarios, validation
        from parityshield.oracle import OracleConfig

        def oracle_attrs(args, trace):
            cfg = next(a for a in args if isinstance(a, OracleConfig))
            return {"backend": cfg.history_mode,
                    "steps": round(float(trace.times[-1]) / cfg.dt_num),
                    "max_norm_defect": float(np.max(np.abs(trace.norm_defect)))}

        def report_attrs(args, report):
            margins = [m for m in map(_margin_log10, report.results)
                       if m is not None]
            return {"checks": len(report.results),
                    "failed": sum(not r.passed for r in report.results),
                    "min_margin_log10": min(margins, default=0.0)}

        cli.compute_trace = self.span("scenarios.compute_trace",
                                      cli.compute_trace)
        cli.run_sweep = self.span("scenarios.run_sweep", cli.run_sweep,
                                  lambda a, tr: {"cells": len(tr.rows)})
        cli.write_csv = self.span("output.write_csv", cli.write_csv,
                                  lambda a, _: {"path": str(a[0])})
        cli.render_svg = self.span("output.render_svg", cli.render_svg,
                                   lambda a, _: {"path": str(a[1])})
        cli.run_validation = self.span("validation.run_validation",
                                       cli.run_validation, report_attrs)
        scenarios.time_grid = self.span("scenarios.time_grid",
                                        scenarios.time_grid,
                                        lambda a, grid: {"points": len(grid)})
        for name in ("integrate_free", "integrate_dd", "integrate_finite"):
            setattr(validation, name, self.span(
                f"oracle.{name}", getattr(validation, name), oracle_attrs))
        # closed forms, by the name the caller binds -> module doing the work
        for module, names in (
                (scenarios, {"free_fidelity": "free_evolution",
                             "zeno_fidelity": "zeno",
                             "dd_fidelity": "decoupling",
                             "finite_dd_fidelity": "finite_pulse"}),
                (validation, {"free_survival": "free_evolution",
                              "zeno_amplitude": "zeno",
                              "dd_survival": "decoupling",
                              "finite_dd_survival": "finite_pulse",
                              "finite_dd_fidelity": "finite_pulse"})):
            for name, layer in names.items():
                setattr(module, name, self.counted(layer, getattr(module, name)))

    def record(self) -> dict:
        """Spans and counters as JSON-ready data; file sizes read now."""
        spans = []
        for name, start, end, parent, child_s, attrs in self.spans:
            if "path" in attrs:
                attrs = {"bytes": os.path.getsize(attrs["path"])}
            spans.append({"name": name, "start": start, "end": end,
                          "parent": parent, "child_s": child_s,
                          "attrs": attrs})
        return {"spans": spans,
                "counters": {k: {"calls": c, "busy_s": b}
                             for k, (c, b) in self.counters.items()}}
