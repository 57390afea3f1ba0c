"""Span tracing of tract's public functions, installed from outside.

The tracer rebinds each target function in every ``tract`` module that holds
it (``from .x import f`` copies the reference, so patching only the defining
module would miss the inner calls).  Each call records a span: name, start,
end, parent (kept per thread), an element count and a tag.  Spans stay in
memory; :meth:`Tracer.export` writes them out as plain tuples, and
:func:`layer_metrics` turns exported spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# (name, start, end, parent index or -1, count, tag)
Span = tuple


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    name: str | Callable  # fixed span name, or f(args, kwargs) -> name
    count: Callable | None = None  # f(args, kwargs, result) -> int


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _stop(result) -> str:
    status = result.status.value
    if status == "Certified":
        return "certified"
    if status == "DivergenceCertified":
        return "divergent"
    return "heuristic" if result.converged else "budget"


SUM_FUNCTIONS = tuple(
    f"sum_{kind}_{case}" for kind in ("spt", "pt", "qpt", "wt") for case in ("alg", "exp")
)

TARGETS = (
    Target("tract.cli", "main", "cli.main"),
    Target("tract.cli", "load_config", "cli.load_config"),
    Target(
        "tract.classifier",
        "classify_all",
        lambda a, k: f"classifier.classify_all.threads{_arg(a, k, 4, 'workers', 1)}",
    ),
    Target("tract.classifier", "decide", lambda a, k: f"classifier.decide.{_arg(a, k, 1, 'notion').kind}"),
    Target("tract.classifier", "exponent_bracket", "classifier.exponent_bracket"),
    *(Target("tract.criteria", fn, f"criteria.{fn}") for fn in SUM_FUNCTIONS),
    Target("tract.criteria", "evaluate_sum", "criteria.evaluate_sum"),
    Target("tract.criteria", "sup_over_d", "criteria.sup_over_d"),
    Target("tract.criteria", "convergence_plan", "criteria.convergence_plan"),
    Target("tract.criteria", "uwt_statistic", "criteria.uwt_statistic"),
    Target("tract.summation", "certified_sum", "summation.certified_sum", lambda a, k, r: r.terms_used),
    Target("tract.complexity", "info_complexity", "complexity.info_complexity"),
    Target("tract.complexity", "count_oracle", "complexity.count_oracle"),
    Target("tract.boundcheck", "verify_domination", "boundcheck.verify_domination", lambda a, k, r: len(r.rows)),
    Target("tract.eigenmodel", "eigenvalue", "eigenmodel.eigenvalue"),
    Target("tract.eigenmodel", "eigenvalues", "eigenmodel.eigenvalues", lambda a, k, r: len(r)),
    Target("tract.eigenmodel", "log_ratios", "eigenmodel.log_ratios", lambda a, k, r: len(r)),
    Target("tract.eigenmodel", "ratio", "eigenmodel.ratio"),
    Target("tract.eigenmodel", "ratio_envelope", "eigenmodel.ratio_envelope"),
    Target("tract.eigenmodel", "validate", "eigenmodel.validate"),
    Target("tract.exprdsl", "evaluate", "exprdsl.evaluate"),
    Target("tract.exprdsl", "compile_array", "exprdsl.compile_array"),
    Target("tract.exprdsl", "parse", "exprdsl.parse"),
)


class Tracer:
    """In-memory span recorder; parents are tracked per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, clock, stack_of = self.spans, time.perf_counter, self._stack
        name, count = target.name, target.count
        is_sum = target.name == "summation.certified_sum"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name if isinstance(name, str) else name(args, kwargs), 0.0, 0.0,
                    stack[-1] if stack else None, 0, ""]
            spans.append(span)
            if is_sum:
                args = (self._wrap_terms(args[0]),) + args[1:]
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            if is_sum:
                span[5] = _stop(result)
            return result

        return traced

    def _wrap_terms(self, terms: Callable) -> Callable:
        spans, clock, stack_of = self.spans, time.perf_counter, self._stack

        def traced_terms(j0, j1):
            stack = stack_of()
            span = ["summation.terms_fn", 0.0, 0.0, stack[-1] if stack else None, j1 - j0, ""]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                return terms(j0, j1)
            finally:
                span[2] = clock()
                stack.pop()

        return traced_terms

    def export(self) -> list[Span]:
        """Spans as (name, start, end, parent index, count, tag) tuples."""
        spans = list(self.spans)
        index = {id(s): i for i, s in enumerate(spans)}
        return [
            (s[0], s[1], s[2], -1 if s[3] is None else index[id(s[3])], s[4], s[5])
            for s in spans
        ]


class Patch:
    """The module attributes a traced run rebound, with their originals."""

    def __init__(self):
        self.bindings: list[tuple[object, str, Callable]] = []

    def restore(self) -> None:
        for module, attr, original in reversed(self.bindings):
            setattr(module, attr, original)
        self.bindings.clear()


def install(tracer: Tracer, targets=TARGETS) -> Patch:
    """Wrap every target and rebind it wherever a tract module holds it."""
    for target in targets:
        importlib.import_module(target.module)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "tract" or n.startswith("tract.")]
    patch = Patch()
    for target in targets:
        original = getattr(sys.modules[target.module], target.attr)
        wrapper = tracer.wrap(target, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patch.bindings.append((module, attr, original))
    return patch


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(i, []), start, end)
        for i, (_, start, end, _, _, _) in enumerate(spans)
    ]


class Totals:
    """Per-name sums over one or more exported span lists."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self = defaultdict(float)
        self.count = defaultdict(int)
        self.tags = defaultdict(int)
        self.child_calls = defaultdict(int)  # (parent name, child name) -> calls
        self.child_count = defaultdict(int)  # (parent name, child name) -> summed counts

    def add(self, spans: list[Span]) -> None:
        for (name, start, end, parent, count, tag), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self[name] += own
            self.count[name] += count
            if tag:
                self.tags[f"{name}.stop.{tag}"] += 1
            if parent >= 0:
                key = (spans[parent][0], name)
                self.child_calls[key] += 1
                self.child_count[key] += count


def layer_metrics(totals: Totals, passes: int) -> dict[str, float]:
    """Per-layer metrics for one pass over the op set (totals / passes)."""
    per = 1.0 / max(passes, 1)
    out: dict[str, float] = {}

    def put(name: str, value: float) -> None:
        out[name] = value * per

    put("cli.load_config.self_s", totals.self["cli.load_config"])
    put("cli.main.self_s", totals.self["cli.main"])
    for workers in (1, 2):
        put(f"classifier.classify_all.threads{workers}.total_s",
            totals.total[f"classifier.classify_all.threads{workers}"])
    for kind in ("SPT", "PT", "QPT", "WT", "UWT"):
        put(f"classifier.decide.{kind}.calls", totals.calls[f"classifier.decide.{kind}"])
        put(f"classifier.decide.{kind}.total_s", totals.total[f"classifier.decide.{kind}"])
    for name in ("classifier.exponent_bracket", "criteria.sup_over_d", "boundcheck.verify_domination",
                 "eigenmodel.validate"):
        put(f"{name}.calls", totals.calls[name])
        put(f"{name}.total_s", totals.total[name])
    for fn in SUM_FUNCTIONS:
        put(f"criteria.{fn}.calls", totals.calls[f"criteria.{fn}"])
        put(f"criteria.{fn}.total_s", totals.total[f"criteria.{fn}"])
    put("criteria.sums.self_s",
        sum(totals.self[f"criteria.{fn}"] for fn in SUM_FUNCTIONS + ("evaluate_sum",)))
    for name in ("criteria.convergence_plan", "criteria.uwt_statistic", "complexity.info_complexity",
                 "complexity.count_oracle", "summation.certified_sum", "eigenmodel.eigenvalue",
                 "eigenmodel.eigenvalues", "eigenmodel.log_ratios", "eigenmodel.ratio",
                 "eigenmodel.ratio_envelope", "exprdsl.evaluate", "exprdsl.compile_array"):
        put(f"{name}.calls", totals.calls[name])
        put(f"{name}.self_s", totals.self[name])
    put("exprdsl.parse.calls", totals.calls["exprdsl.parse"])
    put("boundcheck.verify_domination.points", totals.count["boundcheck.verify_domination"])
    put("eigenmodel.eigenvalues.elements", totals.count["eigenmodel.eigenvalues"])
    put("eigenmodel.log_ratios.elements", totals.count["eigenmodel.log_ratios"])

    sums = "summation.certified_sum"
    put(f"{sums}.terms", totals.count[sums])
    put(f"{sums}.chunks", totals.child_calls[(sums, "summation.terms_fn")])
    put("summation.terms_fn.self_s", totals.self["summation.terms_fn"])
    for stop in ("certified", "heuristic", "divergent", "budget"):
        put(f"{sums}.stop.{stop}", totals.tags[f"{sums}.stop.{stop}"])
    out[f"{sums}.terms_per_s"] = (
        totals.count[sums] / totals.total[sums] if totals.total[sums] > 0 else 0.0
    )
    calls = totals.calls[sums]
    out["summation.certified_ratio"] = totals.tags[f"{sums}.stop.certified"] / calls if calls else 0.0

    info = "complexity.info_complexity"
    probes = totals.child_calls[(info, "eigenmodel.eigenvalue")]
    put(f"{info}.probes", probes)
    out[f"{info}.probes_per_call"] = probes / totals.calls[info] if totals.calls[info] else 0.0
    put("complexity.count_oracle.elements",
        totals.child_count[("complexity.count_oracle", "eigenmodel.eigenvalues")])
    return out
