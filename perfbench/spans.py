"""Span tracing of polylens from outside the package.

``Tracer.install`` replaces each public function in ``TARGETS`` with a
wrapper that records a span (name, start, end, parent span, operation id).
It patches the attribute on the defining module and every binding another
polylens module made with ``from .module import name``; ``eval_grid``
methods are patched on their class.  ``uninstall`` restores the originals.
Spans stay in memory until ``dump``; ``layer_metrics`` reduces them to the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from .workloads import VERIFY_SUITES


@dataclass(frozen=True)
class Target:
    span: str            # span name, also the prefix of its metrics
    module: str          # defining module
    attr: str            # function name, or "Class.method"
    has_children: bool   # whether traced spans can nest inside it (-> .self_s)


TARGETS = (
    Target("cli.main", "polylens.cli", "main", True),
    Target("expr.parse", "polylens.expr", "parse", False),
    Target("expr.to_laurent", "polylens.expr", "to_laurent", False),
    Target("expr.MeroExpr.eval_grid", "polylens.expr", "MeroExpr.eval_grid", False),
    Target("laurent.LaurentPoly.eval_grid", "polylens.laurent", "LaurentPoly.eval_grid", False),
    Target("laurent.decompose", "polylens.laurent", "decompose", False),
    Target("laurent.variance_exact", "polylens.laurent", "variance_exact", True),
    Target("laurent.inner_product_exact", "polylens.laurent", "inner_product_exact", False),
    Target("quadrature.sample_torus", "polylens.quadrature", "sample_torus", True),
    Target("quadrature.laurent_coefficient", "polylens.quadrature", "laurent_coefficient", False),
    Target("quadrature.adaptive_coefficients", "polylens.quadrature", "adaptive_coefficients", True),
    Target("quadrature.spectral_summary", "polylens.quadrature", "spectral_summary", True),
    Target("quadrature.first_order_summary", "polylens.quadrature", "first_order_summary", True),
    Target("quadrature.expectation_numeric", "polylens.quadrature", "expectation_numeric", True),
    Target("quadrature.inner_product_numeric", "polylens.quadrature", "inner_product_numeric", True),
    Target("analysis.variance_sweep", "polylens.analysis", "variance_sweep", True),
    Target("analysis.empirical_optimal_scale", "polylens.analysis", "empirical_optimal_scale", True),
    Target("morphs.morph_validate", "polylens.morphs", "morph_validate", True),
    Target("morphs.pullback", "polylens.morphs", "pullback", False),
    Target("morphs.verify_transform", "polylens.morphs", "verify_transform", True),
    Target("morphs.pole_feedthrough", "polylens.morphs", "pole_feedthrough", True),
    Target("slices.slice_measure", "polylens.slices", "slice_measure", False),
    Target("slices.product_measure", "polylens.slices", "product_measure", True),
    Target("slices.arc_integral_check", "polylens.slices", "arc_integral_check", False),
    # run_suite spans are named after the suite they run.
    Target("verify.suite", "polylens.verify", "run_suite", True),
    Target("verify.uncertainty_floor_sweep", "polylens.verify", "check_bound_sweep", True),
)

SAMPLE = "quadrature.sample_torus"
ADAPTIVE = "quadrature.adaptive_coefficients"
SUMMARY = "quadrature.spectral_summary"
SWEEP = "analysis.variance_sweep"
GOLDEN = "analysis.empirical_optimal_scale"

# Bytes per sampled point and component: one complex128 value.
BYTES_PER_POINT = 16


def span_names() -> list[tuple[str, bool]]:
    """(span name, has_children) of every span a traced run can record."""
    names = []
    for t in TARGETS:
        if t.span == "verify.suite":
            names += [(f"verify.suite.{s}", t.has_children) for s in VERIFY_SUITES]
        else:
            names.append((t.span, t.has_children))
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for name, has_children in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if has_children:
            units[f"{name}.self_s"] = "s"
    units[f"{SAMPLE}.points"] = "count"
    units[f"{SAMPLE}.bytes_computed"] = "bytes"
    units[f"{ADAPTIVE}.levels"] = "count"
    units["quadrature.useful_point_ratio"] = "ratio"
    units["analysis.golden_share"] = "ratio"
    return units


def _points(args, kwargs) -> int:
    """N**n * k sampled points, from the arguments of sample_torus(f, lam, N)."""
    f = args[0] if args else kwargs["f"]
    N = args[2] if len(args) > 2 else kwargs["N"]
    return N**f.n * f.k


def _suite_name(args, kwargs) -> str:
    return "verify.suite." + (args[0] if args else kwargs["name"])


class Tracer:
    """Records spans while ``active``; a wrapper called while inactive (for
    example inside a reference check) records nothing."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index, op, points]
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _wrapper(self, fn: Callable, span: str) -> Callable:
        spans, stack = self.spans, self._stack
        name_of = _suite_name if span == "verify.suite" else None
        points_of = _points if span == SAMPLE else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name_of(args, kwargs) if name_of else span, 0.0, 0.0,
                      stack[-1] if stack else -1, self.op, 0]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if points_of:
                record[5] = points_of(args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        import polylens.cli  # noqa: F401  (cli and verify are not imported by the package)
        import polylens.verify  # noqa: F401

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "polylens" or name.startswith("polylens."))]
        for t in TARGETS:
            owner = sys.modules[t.module]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrapper(original, t.span))
                continue
            original = getattr(owner, t.attr)
            wrapper = self._wrapper(original, t.span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- output

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON: name table plus one row per span."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[s[0]], round(s[1], 9), round(s[2], 9), s[3], s[4], s[5]] for s in self.spans]
        with gzip.open(path, "wt") as handle:
            json.dump({"columns": ["name", "start", "end", "parent", "op", "points"],
                       "names": names, "spans": rows}, handle)


def layer_metrics(spans: list) -> dict[str, float]:
    """Reduce spans to per-layer metrics.

    ``.s`` is inclusive time, counting a span nested in a span of the same
    name once; ``.self_s`` subtracts the time covered by direct child spans.
    """
    units = metric_units()
    out = {name: 0.0 for name in units}
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    golden = swept = 0
    useful = sampled = 0
    levels = 0
    for i, (name, start, end, parent, _, points) in enumerate(spans):
        duration = end - start
        out[f"{name}.calls"] += 1
        if name not in ancestors(i):
            out[f"{name}.s"] += duration
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += duration - child_time[i]
        if name == SAMPLE:
            out[f"{SAMPLE}.points"] += points
        elif name == ADAPTIVE:
            grids = [spans[c][5] for c in children[i] if spans[c][0] == SAMPLE]
            levels += len(grids)
            if grids:
                useful += grids[-1]
                sampled += sum(grids)
        elif name == SUMMARY:
            above = set(ancestors(i))
            swept += SWEEP in above
            golden += GOLDEN in above
    out[f"{SAMPLE}.bytes_computed"] = out[f"{SAMPLE}.points"] * BYTES_PER_POINT
    calls = out[f"{ADAPTIVE}.calls"]
    out[f"{ADAPTIVE}.levels"] = levels / calls if calls else 0.0
    out["quadrature.useful_point_ratio"] = useful / sampled if sampled else 0.0
    out["analysis.golden_share"] = golden / swept if swept else 0.0
    return out
