"""Spans around the public functions of each g3arg module, installed from outside.

A wrapper replaces a function at every module attribute that binds it, for
example g3arg.translate.enumerate_complete as well as g3arg.af's own. The
recursive functions (format_formula, classical_eval) are wrapped only where
other modules bind them, so a span covers one top-level call and not every
formula node; eval_world and eval_pred are never wrapped. Spans carry a
name, start, end, the index of the enclosing span and the item they belong
to. They stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = {
    "document": ("parse_document",),
    "syntax": ("parse_prop", "parse_pred", "format_formula"),
    "translate": (
        "prop_theory", "und_free_theories", "pred_theory", "domain_diagram",
        "instantiated_models", "instantiation_patterns",
        "verify_prop_theory", "verify_und_free", "verify_pred_theory",
        "verify_domain_diagram",
    ),
    "prop": ("enumerate_models", "is_valid"),
    "pred": ("enumerate_interps", "classical_eval"),
    "af": ("enumerate_complete", "classify", "enumerate_complete_determined"),
    "meta": ("star_theory", "solve_higher"),
    "aaf": ("aaf_extensions", "encode_adf", "encode_conjunctive", "encode_disjunctive"),
    "cli": ("main",),
}
RECURSIVE = {"format_formula", "classical_eval"}


def _clauses(theories, args):
    if not isinstance(theories, tuple):
        theories = (theories,)
    return sum(len(t.clauses) for t in theories)


def _results(result, args):
    return len(result)


# Work counted from a call's arguments or result: span name -> (metric, count).
COUNTS = {
    "document.parse_document": ("document.parse_document.bytes",
                                lambda result, args: len(args[0].encode())),
    "translate.prop_theory": ("translate.clauses", _clauses),
    "translate.und_free_theories": ("translate.clauses", _clauses),
    "translate.pred_theory": ("translate.clauses", _clauses),
    "prop.enumerate_models": ("prop.enumerate_models.models", _results),
    "pred.enumerate_interps": ("pred.enumerate_interps.interps", _results),
    "af.enumerate_complete": ("af.enumerate_complete.labellings", _results),
    "af.enumerate_complete_determined": ("af.enumerate_complete_determined.labellings",
                                         _results),
    "meta.solve_higher": ("meta.solve_higher.models", _results),
    "aaf.aaf_extensions": ("aaf.aaf_extensions.relations", _results),
}

MODULES = tuple(TRACED)

# Per-layer metrics of a traced pass, with their units. Times and counts
# are totals over one pass of the workload's traced items.
PER_LAYER = (
    ("document.parse_document.ms", "ms"),
    ("document.parse_document.calls", "count"),
    ("document.parse_document.bytes", "bytes"),
    ("syntax.parse_prop.ms", "ms"),
    ("syntax.parse_pred.ms", "ms"),
    ("syntax.parse.calls", "count"),
    ("syntax.format_formula.ms", "ms"),
    ("syntax.format_formula.calls", "count"),
    ("translate.prop_theory.ms", "ms"),
    ("translate.und_free_theories.ms", "ms"),
    ("translate.domain_diagram.ms", "ms"),
    ("translate.clauses", "count"),
    ("translate.verify_prop_theory.ms", "ms"),
    ("translate.verify_und_free.ms", "ms"),
    ("translate.verify_pred_theory.ms", "ms"),
    ("translate.verify_domain_diagram.ms", "ms"),
    ("prop.enumerate_models.ms", "ms"),
    ("prop.enumerate_models.calls", "count"),
    ("prop.enumerate_models.models", "count"),
    ("prop.is_valid.ms", "ms"),
    ("prop.is_valid.calls", "count"),
    ("pred.enumerate_interps.ms", "ms"),
    ("pred.enumerate_interps.calls", "count"),
    ("pred.enumerate_interps.interps", "count"),
    ("pred.classical_eval.ms", "ms"),
    ("pred.classical_eval.calls", "count"),
    ("af.enumerate_complete.ms", "ms"),
    ("af.enumerate_complete.calls", "count"),
    ("af.enumerate_complete.labellings", "count"),
    ("af.classify.ms", "ms"),
    ("af.enumerate_complete_determined.ms", "ms"),
    ("af.enumerate_complete_determined.labellings", "count"),
    ("meta.star_theory.ms", "ms"),
    ("meta.solve_higher.ms", "ms"),
    ("meta.solve_higher.calls", "count"),
    ("meta.solve_higher.models", "count"),
    ("aaf.aaf_extensions.ms", "ms"),
    ("aaf.aaf_extensions.relations", "count"),
    ("aaf.encode_adf.ms", "ms"),
    ("aaf.encode_conjunctive.ms", "ms"),
    ("cli.main.ms", "ms"),
    ("cli.output_bytes", "bytes"),
    ("cli.exit_nonzero", "count"),
) + tuple((f"{m}.self_ms", "ms") for m in MODULES) + (
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._item: int | None = None
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counted = COUNTS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else None, self._item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counted:
                counts[counted[0]] += counted[1](result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def item(self, index: int, kind: str, call):
        """Run one item's call under a root span that its spans hang from."""
        self._item = index
        return self.wrap(f"item.{kind}", call)()

    def install(self) -> None:
        bound = [m for name, m in sys.modules.items() if name.startswith("g3arg.")]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"g3arg.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for module in bound:
                    if getattr(module, fn_name, None) is not original:
                        continue
                    if module is home and fn_name in RECURSIVE:
                        continue
                    setattr(module, fn_name, wrapper)
                    self._installed.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._installed):
            setattr(module, fn_name, original)
        self._installed.clear()

    def self_times(self) -> tuple[list[int], dict[str, int]]:
        """Duration of each span, and self time summed per module."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        covered = [0] * len(self.spans)
        for span, d in zip(self.spans, durations):
            if span[3] is not None:
                covered[span[3]] += d
        per_module: dict[str, int] = defaultdict(int)
        for span, d, c in zip(self.spans, durations, covered):
            per_module[span[0].split(".")[0]] += d - c
        return durations, per_module

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the trace.overhead_ratio."""
        durations, per_module = self.self_times()
        values: dict[str, float] = defaultdict(float)
        for span, d in zip(self.spans, durations):
            values[f"{span[0]}.ms"] += d / 1e6
            values[f"{span[0]}.calls"] += 1
        for module, ns in per_module.items():
            values[f"{module}.self_ms"] = ns / 1e6
        values.update(self.counts)
        values["syntax.parse.calls"] = (
            values["syntax.parse_prop.calls"] + values["syntax.parse_pred.calls"])
        values["trace.spans"] = len(self.spans)
        return {name: values[name] for name, _ in PER_LAYER
                if name != "trace.overhead_ratio"}
