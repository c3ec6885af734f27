"""Spans around clocktree's layer boundaries, recorded from outside the program.

`Tracer.install` replaces each public layer function with a wrapper at every
module attribute its callers look it up through (for example `phase.q5_solutions`
for `classify_point` and `cli.q5_solutions` for `clocktree solve`), so no
library code changes.  A wrapper records a span -- name, start, end, parent
span and item id -- in compact arrays kept in memory; `layer_metrics`
derives counts, ratios and per-layer self time from them after the timed
region.  A span's self time is its duration minus the durations of its
direct children; a layer's self time sums the self times of its spans, so
time in an unwrapped helper counts toward the wrapped function that called it.
"""
from __future__ import annotations

import functools
import statistics
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("spectral", "basis", "recursion", "fixedpoint", "phase", "cli")
REGIMES = ("INFEASIBLE", "NO_PT", "PT_AND_RPT", "PT_NOT_RPT", "CRITICAL")


def _lambda1_key(args, kwargs):
    return ("lambda1", kwargs.get("lambda1", args[0] if args else None))


def _point_key(args, kwargs):
    return ("point",) + tuple(args[:3])


def _count_levels(tracer, result):
    tracer.counts["probe_levels"] += getattr(result, "levels_used", len(result.distances) - 1)


def _count_newton(tracer, result):
    tracer.counts["newton_ok"] += result is not None


def _count_rejected(tracer, result):
    tracer.counts["rejected"] += len(getattr(result, "rejected", ()))


def _count_sweep(tracer, result):
    for p in result:
        tracer.counts["regime." + p.regime.value] += 1
        if (p.regime.value == "CRITICAL" and not p.feasible) or getattr(p, "error", None):
            tracer.counts["failed_points"] += 1


# span name -> (module attributes it is looked up through, item key, result hook).
# An item key makes the outermost such span start a new item (a grid point,
# or a lambda1 of the transition line); nested spans inherit the open item.
WRAPPED = {
    "spectral.transform": (("spectral.row_from_eigenvalues", "spectral.eigenvalues_from_row"), None, None),
    "spectral.spec_from_lambdas": (
        ("spectral.spec_from_lambdas", "phase.spec_from_lambdas", "fixedpoint.spec_from_lambdas"), None, None),
    "spectral.validate_non_increasing": (
        ("spectral.validate_non_increasing", "phase.validate_non_increasing",
         "fixedpoint.validate_non_increasing"), None, None),
    "spectral.weakened_row": (("spectral.weakened_row", "recursion.weakened_row"), None, None),
    "basis.raw_coefficients": (("basis.raw_coefficients", "spectral.raw_coefficients"), None, None),
    "basis.convert_coefficients": (("basis.convert_coefficients", "spectral.convert_coefficients"), None, None),
    "basis.pointwise_from_raw": (("basis.pointwise_from_raw",), None, None),
    "basis.a_norm": (("basis.a_norm", "recursion.a_norm"), None, None),
    "recursion.mode_map": (("fixedpoint.mode_map", "fixedpoint.mode_map_q5"), None, None),
    "recursion.rpt_probe": (("recursion.rpt_probe",), None, _count_levels),
    "recursion.pt_probe": (("phase.pt_probe",), None, None),
    "fixedpoint.q4_solutions": (("phase.q4_solutions", "cli.q4_solutions"), None, _count_rejected),
    "fixedpoint.q5_solutions": (("phase.q5_solutions", "cli.q5_solutions"), _lambda1_key, _count_rejected),
    "fixedpoint.q5_solutions_at_critical": (
        ("fixedpoint.q5_solutions_at_critical", "cli.q5_solutions_at_critical"), None, _count_rejected),
    "fixedpoint.newton_solve": (("fixedpoint.newton_solve", "phase.newton_solve"), None, _count_newton),
    "fixedpoint.q5_jacobian": (("fixedpoint.q5_jacobian", "phase.q5_jacobian"), None, None),
    "fixedpoint.classify_quartic": (("fixedpoint.classify_quartic", "cli.classify_quartic"), None, None),
    "fixedpoint.q5_alpha2_from_alpha1": (("fixedpoint.q5_alpha2_from_alpha1",), None, None),
    "fixedpoint.q5_special_case": (("fixedpoint.q5_special_case",), None, None),
    "phase.classify_point": (("phase.classify_point",), _point_key, None),
    "phase.sweep": (("phase.sweep",), None, _count_sweep),
    "phase.q5_transition_line": (("phase.q5_transition_line",), None, None),
}


UNITS = {
    "spectral.spec_builds_per_item": "count",
    "spectral.transform_self_s": "s",
    "spectral.feasibility_checks_per_item": "count",
    "basis.coeff_calls": "count",
    "recursion.probe_levels": "count",
    "recursion.levels_per_s": "1/s",
    "recursion.mode_map_calls_per_item": "count",
    "fixedpoint.q4_solve_calls": "count",
    "fixedpoint.q4_solve_self_s": "s",
    "fixedpoint.q5_solve_calls": "count",
    "fixedpoint.q5_solve_self_s": "s",
    "fixedpoint.newton_calls_per_item": "count",
    "fixedpoint.newton_iters_per_call": "count",
    "fixedpoint.newton_success_ratio": "ratio",
    "fixedpoint.critical_solves_per_q5_solve": "ratio",
    "fixedpoint.rejected_candidates": "count",
    "phase.point_p50_us": "us",
    "phase.point_p99_us": "us",
    "phase.point_samples": "count",
    "phase.probe_fallbacks": "count",
    "phase.failed_points": "count",
    "cli.bytes_out": "bytes",
    "trace.items": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
    **{"phase.regime." + r: "count" for r in REGIMES},
    **{layer + ".self_s": "s" for layer in LAYERS},
}


class Tracer:
    """Spans of one traced repetition, stored column by column."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._items: dict = {}
        self._current_item = -1

    def wrap(self, name: str, fn, item_key=None, on_result=None):
        """`fn` with a span named `name` recorded around every call."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            outer_item = self._current_item
            if item_key is not None and outer_item < 0:
                key = item_key(args, kwargs)
                self._current_item = self._items.setdefault(key, len(self._items))
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.item.append(self._current_item)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
                self._current_item = outer_item
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every binding in WRAPPED that exists in `modules` (name -> module).

        A binding that a later version of the library no longer has is
        skipped; its counts then read 0.
        """
        for name, (bindings, item_key, on_result) in WRAPPED.items():
            for binding in bindings:
                mod_name, attr = binding.split(".")
                module = modules.get(mod_name)
                if module is not None and hasattr(module, attr):
                    wrapped = self.wrap(name, getattr(module, attr), item_key, on_result)
                    setattr(module, attr, wrapped)

    def call_item(self, key, name: str, fn, *args):
        """Call `fn(*args)` as one item of its own, inside a span named `name`."""
        return self.wrap(name, fn, lambda _a, _k: key)(*args)

    def layer_metrics(self, items: int) -> dict[str, float]:
        """Per-layer metrics of the recorded spans; `items` is the workload's item count."""
        n = len(self.start)
        names = [self.names[k] for k in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_t = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_t[p] -= dur[i]
        # which solver a span runs under; parents precede their children
        solver = [""] * n
        for i in range(n):
            nm = names[i]
            if nm == "fixedpoint.q4_solutions":
                solver[i] = "q4"
            elif nm in ("fixedpoint.q5_solutions", "fixedpoint.q5_solutions_at_critical"):
                solver[i] = "q5"
            elif self.parent[i] >= 0:
                solver[i] = solver[self.parent[i]]

        calls = Counter(names)
        layer_self = Counter()
        by_name_self = Counter()
        q4_self = q5_self = 0.0
        newton_iters = 0
        points = []
        for i in range(n):
            nm = names[i]
            layer = nm.split(".", 1)[0]
            layer_self[layer] += self_t[i]
            by_name_self[nm] += self_t[i]
            if layer == "fixedpoint":
                if solver[i] == "q4":
                    q4_self += self_t[i]
                elif solver[i] == "q5":
                    q5_self += self_t[i]
            if nm == "fixedpoint.q5_jacobian" and self.parent[i] >= 0 \
                    and names[self.parent[i]] == "fixedpoint.newton_solve":
                newton_iters += 1
            elif nm == "phase.classify_point":
                points.append(dur[i] * 1e6)

        probe_time = sum(dur[i] for i in range(n) if names[i] == "recursion.rpt_probe")
        newton_calls = calls["fixedpoint.newton_solve"]
        q5_calls = calls["fixedpoint.q5_solutions"]
        pct = statistics.quantiles(points, n=100, method="inclusive") if len(points) > 1 else None
        m = {
            "spectral.spec_builds_per_item": calls["spectral.transform"] / items,
            "spectral.transform_self_s": by_name_self["spectral.transform"],
            "spectral.feasibility_checks_per_item": calls["spectral.validate_non_increasing"] / items,
            "basis.coeff_calls": sum(calls[k] for k in calls if k.startswith("basis.")),
            "recursion.probe_levels": self.counts["probe_levels"],
            "recursion.levels_per_s": self.counts["probe_levels"] / probe_time if probe_time else 0.0,
            "recursion.mode_map_calls_per_item": calls["recursion.mode_map"] / items,
            "fixedpoint.q4_solve_calls": calls["fixedpoint.q4_solutions"],
            "fixedpoint.q4_solve_self_s": q4_self,
            "fixedpoint.q5_solve_calls": q5_calls,
            "fixedpoint.q5_solve_self_s": q5_self,
            "fixedpoint.newton_calls_per_item": newton_calls / items,
            "fixedpoint.newton_iters_per_call": newton_iters / newton_calls if newton_calls else 0.0,
            "fixedpoint.newton_success_ratio": self.counts["newton_ok"] / newton_calls if newton_calls else 0.0,
            "fixedpoint.critical_solves_per_q5_solve":
                calls["fixedpoint.q5_solutions_at_critical"] / q5_calls if q5_calls else 0.0,
            "fixedpoint.rejected_candidates": self.counts["rejected"],
            "phase.point_p50_us": pct[49] if pct else (points[0] if points else 0.0),
            "phase.point_p99_us": pct[98] if pct else (points[0] if points else 0.0),
            "phase.point_samples": len(points),
            "phase.probe_fallbacks": calls["recursion.pt_probe"],
            "phase.failed_points": self.counts["failed_points"],
            "cli.bytes_out": self.counts["bytes_out"],
            "trace.items": len(self._items),
            "trace.spans": n,
        }
        for regime in REGIMES:
            m["phase.regime." + regime] = self.counts["regime." + regime]
        for layer in LAYERS:
            m[layer + ".self_s"] = layer_self[layer]
        return m
