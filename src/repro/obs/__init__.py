"""First-class observability for the analysis service and engine.

Three dependency-free building blocks, wired through every layer of the
service (see ``docs/observability.md`` for the catalog):

* :mod:`repro.obs.metrics` — a metrics registry (counters, gauges,
  fixed-bucket latency histograms with p50/p95/p99 summaries) behind the
  ``{"op": "metrics"}`` protocol verb and the Prometheus text exposition
  of ``repro query --metrics --prom``;
* :mod:`repro.obs.trace` — per-request trace ids and span records,
  propagated over the NDJSON protocol as the optional ``"trace"``
  member and echoed in responses;
* :mod:`repro.obs.instrument` — the near-zero-cost per-phase timing
  handle threaded through ``analyze_term`` and the inference engine
  (parse / interpret breakdowns);
* :mod:`repro.obs.logs` — the structured-logging bootstrap behind
  ``repro serve --log-level/--log-json`` (JSON lines to stderr,
  per-worker process names; no configuration side effects on import).
"""

from .instrument import NULL_INSTRUMENTATION, Instrumentation
from .logs import JsonLineFormatter, configure_logging
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    CounterGroup,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    render_prometheus,
)
from .trace import RequestTrace, new_trace_id

__all__ = [
    "Counter",
    "CounterGroup",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "JsonLineFormatter",
    "MetricsRegistry",
    "NULL_INSTRUMENTATION",
    "RequestTrace",
    "configure_logging",
    "global_registry",
    "new_trace_id",
    "render_prometheus",
]
