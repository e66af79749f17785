"""The traced layers: which functions the launcher wraps, and how their
spans fold into the per-layer metrics.

A span is ``[name, start, end, self_s, thread, depth]``.  Self time is the
span's duration minus its child spans.  A function that re-enters itself
on the same thread is traced once, at the outermost call, so ``calls``
counts outermost calls.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

#: (module, attribute, span name).  ``Class.method`` attributes are wrapped
#: on the class; a ``*`` attribute wraps every public function the module
#: defines.  Backend spans are named after the backend instance.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.parser.parser", "parse_program", "core.parser.parse_program"),
    ("repro.frontend.fpcore", "parse_fpcore", "frontend.fpcore.parse_fpcore"),
    ("repro.frontend.compiler", "compile_expression", "frontend.compiler.compile_expression"),
    ("repro.core.ast", "intern_term", "core.ast.intern_term"),
    ("repro.core.inference", "infer", "core.inference.infer"),
    ("repro.analysis.analyzer", "analyze_term", "analysis.analyzer.analyze_term"),
    ("repro.analysis.bounds", "*", "analysis.bounds"),
    ("repro.core.semantics.evaluator", "evaluate", "core.semantics.evaluate"),
    ("repro.floats.exactmath", "rp_distance_enclosure", "floats.exactmath.rp_distance_enclosure"),
    ("repro.floats.exactmath", "sqrt_round", "floats.exactmath.sqrt_round"),
    ("repro.validation.backends", "GradedInferenceBackend.bound", "validation.backends"),
    ("repro.validation.backends", "IntervalBackend.bound", "validation.backends"),
    ("repro.validation.backends", "TaylorBackend.bound", "validation.backends"),
    ("repro.validation.backends", "StandardBackend.bound", "validation.backends"),
    ("repro.validation.sampling", "sample_point", "validation.sampling.sample_point"),
    ("repro.tuning.search", "probe_subject", "tuning.search.probe_subject"),
    ("repro.tuning.search", "certify_candidate", "tuning.search.certify_candidate"),
    ("repro.tuning.empirical", "sample_point_mixed", "tuning.empirical.sample_point_mixed"),
    ("repro.analysis.cache", "AnalysisCache.get", "analysis.cache.get"),
    ("repro.analysis.cache", "AnalysisCache.put", "analysis.cache.put"),
    ("repro.analysis.batch", "analyze_item", "service.engine"),
    ("repro.service.server", "AnalysisService._report_bytes", "service.server.report_bytes"),
)

BACKENDS = ("lnum", "gappa_like", "fptaylor_like", "standard_bounds")

#: Every per-layer metric, in output order, with its unit.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("startup.import_s", "s"),
    ("core.parser.parse_program.calls", "count"),
    ("core.parser.parse_program.self_s", "s"),
    ("core.parser.parse_program.nodes_per_s", "1/s"),
    ("frontend.fpcore.parse_fpcore.self_s", "s"),
    ("frontend.compiler.compile_expression.self_s", "s"),
    ("frontend.compiler.compile_expression.nodes_per_s", "1/s"),
    ("core.ast.intern_term.calls", "count"),
    ("core.ast.intern_term.self_s", "s"),
    ("core.inference.infer.calls", "count"),
    ("core.inference.infer.self_s", "s"),
    ("core.inference.infer.nodes_per_s", "1/s"),
    ("analysis.analyzer.analyze_term.self_s", "s"),
    ("analysis.bounds.self_s", "s"),
    ("core.semantics.evaluate.calls", "count"),
    ("core.semantics.evaluate.ideal_s", "s"),
    ("core.semantics.evaluate.fp_s", "s"),
    ("floats.exactmath.rp_distance_enclosure.calls", "count"),
    ("floats.exactmath.rp_distance_enclosure.self_s", "s"),
    ("floats.exactmath.rp_distance_enclosure.distinct_args_ratio", "ratio"),
    ("floats.exactmath.rp_distance_enclosure.arg_bits_p50", "bits"),
    ("floats.exactmath.sqrt_round.self_s", "s"),
) + tuple(
    (f"validation.backends.{backend}.bound.self_s", "s") for backend in BACKENDS
) + (
    ("validation.sampling.sample_point.calls", "count"),
    ("validation.sampling.sample_point.self_s", "s"),
    ("tuning.search.probe_subject.self_s", "s"),
    ("tuning.search.certify_candidate.calls", "count"),
    ("tuning.search.certify_candidate.self_s", "s"),
    ("tuning.empirical.sample_point_mixed.self_s", "s"),
    ("tuning.certifications_per_subject", "ratio"),
    ("analysis.cache.lookups", "count"),
    ("analysis.cache.hit_ratio", "ratio"),
    ("analysis.cache.put_s", "s"),
    ("service.scheduler.queue_wait_p50_ms", "ms"),
    ("service.server.hot_report_hit_ratio", "ratio"),
    ("service.cachefarm.hit_ratio", "ratio"),
    ("service.disk_hit_ratio", "ratio"),
    ("service.judgement_memo.hit_ratio", "ratio"),
    ("service.engine.self_s", "s"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_tail_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_tail_ms", "ms"),
    ("other.self_s", "s"),
    ("trace.overhead_pct", "%"),
)

#: Span-name prefixes that make up each layer, for the dominance report.
LAYERS: Tuple[str, ...] = (
    "core.parser", "frontend", "core.ast", "core.inference", "analysis.analyzer",
    "analysis.bounds", "core.semantics", "floats.exactmath", "validation.backends",
    "validation.sampling", "tuning.search", "tuning.empirical", "analysis.cache",
    "service.engine", "service.server",
)


class Totals:
    """Span and note totals summed over the traced operations of one run."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.nodes: Dict[str, int] = {}
        self.import_s = 0.0
        self.other_s = 0.0
        self.cache_hits = 0
        self.hot_hits = 0
        self.rp_bits: List[int] = []
        self.rp_distinct = 0  # distinct argument pairs, counted per process
        self.missing: set = set()

    def add_trace(self, trace: Dict) -> None:
        """Fold one launcher dump into the totals."""
        self.import_s += trace["import_s"]
        covered = 0.0
        for name, start, end, self_s, thread, depth in trace["spans"]:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s
            if depth == 0:
                covered += end - start
        self.other_s += max(0.0, trace["main_s"] - covered)
        notes = trace["notes"]
        for name, count in notes.get("nodes", {}).items():
            self.nodes[name] = self.nodes.get(name, 0) + count
        self.cache_hits += notes.get("cache_hits", 0)
        self.hot_hits += notes.get("hot_hits", 0)
        self.rp_bits.extend(notes.get("rp_bits", []))
        self.rp_distinct += notes.get("rp_distinct", 0)
        self.missing.update(notes.get("missing", []))

    def layer_seconds(self) -> Dict[str, float]:
        seconds = {"startup": self.import_s, "other": self.other_s}
        for layer in LAYERS:
            seconds[layer] = sum(s for name, s in self.self_s.items()
                                 if name == layer or name.startswith(layer + "."))
        return seconds

    def metrics(self, service: Optional[Dict[str, float]] = None,
                serve_latency: Optional[Dict[str, float]] = None,
                overhead_pct: float = 0.0) -> Dict[str, float]:
        calls, self_s = self.calls, self.self_s

        def rate(name: str) -> float:
            return self.nodes.get(name, 0) / self_s[name] if self_s.get(name) else 0.0

        evaluate = [n for n in calls if n.startswith("core.semantics.evaluate.")]
        rp = "floats.exactmath.rp_distance_enclosure"
        subjects = calls.get("tuning.search.probe_subject", 0)
        lookups = calls.get("analysis.cache.get", 0)
        values: Dict[str, float] = {
            "startup.import_s": self.import_s,
            "core.parser.parse_program.nodes_per_s": rate("core.parser.parse_program"),
            "frontend.compiler.compile_expression.nodes_per_s":
                rate("frontend.compiler.compile_expression"),
            "core.inference.infer.nodes_per_s": rate("core.inference.infer"),
            "analysis.bounds.self_s": self_s.get("analysis.bounds", 0.0),
            "core.semantics.evaluate.calls": sum(calls[n] for n in evaluate),
            "core.semantics.evaluate.ideal_s": self_s.get("core.semantics.evaluate.ideal", 0.0),
            "core.semantics.evaluate.fp_s": self_s.get("core.semantics.evaluate.fp", 0.0),
            f"{rp}.distinct_args_ratio":
                self.rp_distinct / len(self.rp_bits) if self.rp_bits else 0.0,
            f"{rp}.arg_bits_p50": statistics.median(self.rp_bits) if self.rp_bits else 0.0,
            "tuning.certifications_per_subject":
                calls.get("tuning.search.certify_candidate", 0) / subjects if subjects else 0.0,
            "analysis.cache.lookups": lookups,
            "analysis.cache.hit_ratio": self.cache_hits / lookups if lookups else 0.0,
            "analysis.cache.put_s": self_s.get("analysis.cache.put", 0.0),
            "service.server.hot_report_hit_ratio":
                self.hot_hits / calls["service.server.report_bytes"]
                if calls.get("service.server.report_bytes") else 0.0,
            "service.engine.self_s": self_s.get("service.engine", 0.0),
            "other.self_s": self.other_s,
            "trace.overhead_pct": overhead_pct,
        }
        values.update(service or {})
        values.update(serve_latency or {})
        for name, unit in METRICS:
            if name in values:
                continue
            stem, _, field = name.rpartition(".")
            if field == "calls":
                values[name] = calls.get(stem, 0)
            elif field == "self_s":
                values[name] = self_s.get(stem, 0.0)
            else:
                values[name] = 0.0
        return {name: values[name] for name, _ in METRICS}


def dominant(seconds: Dict[str, float]) -> Tuple[str, float]:
    """The layer with the most self time and its share of the traced total."""
    total = sum(seconds.values())
    layer = max(seconds, key=seconds.get)
    return layer, (seconds[layer] / total if total else 0.0)


def service_metrics(stats: Dict, metrics: Dict) -> Dict[str, float]:
    """Per-tier ratios and queue wait from the server's stats/metrics ops."""
    cache = stats.get("cache", {})
    disk = cache.get("disk") or {}
    memo = cache.get("judgement_memo") or {}
    queue_p50 = 0.0
    for family in metrics.get("metrics", []):
        if family.get("name") == "repro_queue_wait_seconds":
            for sample in family.get("samples", []):
                queue_p50 = 1000.0 * float(sample.get("p50") or 0.0)

    def ratio(hits: float, lookups: float) -> float:
        return hits / lookups if lookups else 0.0

    return {
        "service.scheduler.queue_wait_p50_ms": queue_p50,
        "service.cachefarm.hit_ratio": ratio(cache.get("hits", 0), cache.get("lookups", 0)),
        "service.disk_hit_ratio": ratio(disk.get("hits", 0), disk.get("lookups", 0)),
        "service.judgement_memo.hit_ratio": float(memo.get("hit_rate") or 0.0),
    }
