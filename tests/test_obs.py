"""Tests for the observability layer: metrics, tracing, instrumentation, logs.

Four groups:

* metric primitives and the Prometheus text exposition (format pinned —
  dashboards parse these lines);
* the ``Instrumentation`` phase-timing handle and its no-op singleton;
* request tracing through a real :class:`AnalysisService` (span names,
  id propagation, cache-tier attribution, coalesced requests sharing one
  inference's engine spans, the slow-request ring buffer);
* the cluster router: trace ids minted at the first hop, ``router.route``
  spans prepended, and per-worker-labeled metric aggregation.
"""

import asyncio
import io
import json
import logging
import os

import pytest

from repro.obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from repro.obs.logs import JsonLineFormatter, configure_logging
from repro.obs.metrics import (
    CounterGroup,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.trace import RequestTrace, new_trace_id, requested_trace_id
from repro.perf.service_bench import _RouterHarness, _ServerHarness
from repro.service import AnalysisService, ServiceClient, ServiceConfig
from repro.service.client import PipelinedClient

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples", "programs"
)

FMA_SOURCE = """
function FMA (x: num) (y: num) (z: num) : M[eps]num {
  a = mul (x, y);
  b = add (|a, z|);
  rnd b
}
"""

HORNER_SOURCE = open(os.path.join(EXAMPLES, "horner2.lnum")).read()


def run(coroutine):
    return asyncio.run(coroutine)


async def make_service(**overrides):
    config = ServiceConfig(**{"jobs": 1, **overrides})
    service = AnalysisService(config)
    await service.start()
    return service


def span_names(response):
    return [span["name"] for span in response["trace"]["spans"]]


def engine_spans(response):
    return [
        (span["name"], span["seconds"])
        for span in response["trace"]["spans"]
        if span["name"].startswith("engine.")
    ]


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------


class TestMetricsPrimitives:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "X.")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = registry.gauge("repro_depth", "Depth.")
        gauge.set(3.0)
        gauge.inc()
        gauge.dec(0.5)
        assert gauge.value == 3.5

    def test_same_name_and_labels_share_storage(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", op="analyze")
        b = registry.counter("repro_x_total", op="analyze")
        c = registry.counter("repro_x_total", op="validate")
        assert a is b and a is not c

    def test_type_conflict_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")

    def test_histogram_snapshot_and_quantiles(self):
        histogram = Histogram(buckets=(0.001, 0.01, 0.1, 1.0))
        for value in (0.0005, 0.0005, 0.05, 0.5):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(0.551)
        # Cumulative bucket counts, +Inf last.
        assert snapshot["buckets"] == [
            [0.001, 2],
            [0.01, 2],
            [0.1, 3],
            [1.0, 4],
            ["+Inf", 4],
        ]
        # The median falls in the first bucket, p99 in the last finite one.
        assert 0.0 < snapshot["p50"] <= 0.001
        assert 0.1 < snapshot["p99"] <= 1.0

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_overflow_observation_lands_in_inf_bucket(self):
        histogram = Histogram(buckets=(0.1,))
        histogram.observe(5.0)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == [[0.1, 0], ["+Inf", 1]]
        assert histogram.quantile(0.5) == pytest.approx(5.0)

    def test_counter_group_keeps_dict_idioms(self):
        registry = MetricsRegistry()
        group = registry.group("repro_test", ["requests", "errors"], "T.")
        group["requests"] += 1
        group.inc("requests")
        assert group["requests"] == 2
        assert dict(group) == {"requests": 2, "errors": 0}
        assert {**group} == {"requests": 2, "errors": 0}
        # The storage is the registry's: the group wrote through.
        assert registry.counter("repro_test_requests_total").value == 2

    def test_collector_callbacks_sample_at_snapshot_time(self):
        registry = MetricsRegistry()
        box = {"value": 1}
        registry.counter_func("repro_box_total", lambda: box["value"], "B.")
        box["value"] = 7
        [metric] = registry.to_dict()["metrics"]
        assert metric["samples"][0]["value"] == 7

    def test_failing_collector_is_skipped_not_fatal(self):
        registry = MetricsRegistry()

        def explode():
            raise RuntimeError("collector died")

        registry.counter_func("repro_bad_total", explode, "B.")
        registry.counter("repro_good_total", "G.").inc()
        names = [metric["name"] for metric in registry.to_dict()["metrics"]]
        samples = {
            metric["name"]: metric["samples"]
            for metric in registry.to_dict()["metrics"]
        }
        assert "repro_good_total" in names
        assert samples["repro_bad_total"] == []
        # And the text exposition still renders.
        assert "repro_good_total 1" in registry.render_prometheus()


# ---------------------------------------------------------------------------
# Prometheus text exposition (format stability)
# ---------------------------------------------------------------------------


class TestPrometheusFormat:
    def test_exposition_text_is_pinned(self):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total", "Demo counter.", op="analyze").inc(3)
        histogram = registry.histogram(
            "repro_demo_seconds", "Demo latency.", buckets=(0.1, 1.0), tier="hot"
        )
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        expected = (
            "# HELP repro_demo_seconds Demo latency.\n"
            "# TYPE repro_demo_seconds histogram\n"
            'repro_demo_seconds_bucket{le="0.1",tier="hot"} 1\n'
            'repro_demo_seconds_bucket{le="1.0",tier="hot"} 2\n'
            'repro_demo_seconds_bucket{le="+Inf",tier="hot"} 3\n'
            'repro_demo_seconds_sum{tier="hot"} ' + repr(0.05 + 0.5 + 5.0) + "\n"
            'repro_demo_seconds_count{tier="hot"} 3\n'
            "# HELP repro_demo_total Demo counter.\n"
            "# TYPE repro_demo_total counter\n"
            'repro_demo_total{op="analyze"} 3\n'
        )
        assert registry.render_prometheus() == expected

    def test_extra_labels_merge_snapshots_under_one_header(self):
        worker0 = MetricsRegistry()
        worker0.counter("repro_req_total", "R.").inc(2)
        worker1 = MetricsRegistry()
        worker1.counter("repro_req_total", "R.").inc(5)
        text = render_prometheus(
            [
                ({"worker": "0"}, worker0.to_dict()),
                ({"worker": "1"}, worker1.to_dict()),
            ]
        )
        assert text.count("# TYPE repro_req_total counter") == 1
        assert 'repro_req_total{worker="0"} 2' in text
        assert 'repro_req_total{worker="1"} 5' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_esc_total", "E.", path='a"b\\c').inc()
        assert 'repro_esc_total{path="a\\"b\\\\c"} 1' in registry.render_prometheus()


# ---------------------------------------------------------------------------
# Instrumentation handle
# ---------------------------------------------------------------------------


class TestInstrumentation:
    def test_observe_accumulates_and_breakdown_merges(self):
        instrumentation = Instrumentation()
        instrumentation.observe("interpret", 0.25)
        instrumentation.observe("interpret", 0.25)
        instrumentation.observe("parse", 0.1)
        instrumentation.count("memo_hits", 3)
        instrumentation.count("memo_hits")
        assert instrumentation.breakdown() == {
            "interpret": 0.5,
            "parse": 0.1,
            "memo_hits": 4,
        }

    def test_time_context_manager_records_the_phase(self):
        instrumentation = Instrumentation()
        with instrumentation.time("lower"):
            pass
        assert instrumentation.phases["lower"] >= 0.0

    def test_null_instrumentation_is_disabled_and_inert(self):
        assert NULL_INSTRUMENTATION.enabled is False
        NULL_INSTRUMENTATION.observe("interpret", 1.0)
        NULL_INSTRUMENTATION.count("memo_hits")
        assert NULL_INSTRUMENTATION.phases == {}
        assert NULL_INSTRUMENTATION.counts == {}

    def test_inference_reports_phase_breakdown(self):
        from repro.core import parse_program
        from repro.core.inference import InferenceConfig, infer

        program = parse_program(FMA_SOURCE)
        definition = program.definitions[0]
        instrumentation = Instrumentation()
        infer(
            definition.body,
            definition.parameter_skeleton(),
            InferenceConfig(),
            instrumentation=instrumentation,
        )
        assert instrumentation.phases.get("interpret", 0.0) > 0.0

    def test_measure_overhead_report_shape(self):
        from repro.perf.bench import measure_overhead

        report = measure_overhead(target_nodes=300, repeats=1)
        assert report["family"] == "horner"
        assert report["engines"]
        for entry in report["engines"]:
            assert entry["plain_seconds"] > 0.0
            assert entry["instrumented_seconds"] > 0.0
            assert entry["overhead_ratio"] > 0.0


# ---------------------------------------------------------------------------
# Trace helpers
# ---------------------------------------------------------------------------


class TestTraceHelpers:
    def test_new_trace_ids_are_64_bit_hex_and_distinct(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)

    def test_requested_trace_id_interpretation(self):
        assert requested_trace_id("abc123") == "abc123"
        minted = requested_trace_id(True)
        assert isinstance(minted, str) and len(minted) == 16
        for junk in (None, False, "", 5, 1.0, [], {}):
            assert requested_trace_id(junk) is None

    def test_trace_to_dict_keeps_span_order_and_attributes(self):
        trace = RequestTrace("feedc0de00000000")
        trace.add("cache.lookup", 0.001, tier="miss")
        trace.add("queue.wait", 0.002)
        assert trace.to_dict() == {
            "id": "feedc0de00000000",
            "spans": [
                {"name": "cache.lookup", "seconds": 0.001, "tier": "miss"},
                {"name": "queue.wait", "seconds": 0.002},
            ],
        }


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------


@pytest.fixture
def repro_logger_state():
    """Snapshot and restore the ``repro`` logger around a configure call."""
    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.propagate, logger.level)
    yield logger
    logger.handlers, logger.propagate = saved[0], saved[1]
    logger.setLevel(saved[2])


class TestLogging:
    def test_json_lines_carry_the_documented_fields(self, repro_logger_state):
        stream = io.StringIO()
        configure_logging(
            "debug", json_lines=True, process_name="worker-3", stream=stream
        )
        logging.getLogger("repro.service.router").warning("worker %d lost", 1)
        entry = json.loads(stream.getvalue().strip())
        assert entry["level"] == "warning"
        assert entry["logger"] == "repro.service.router"
        assert entry["message"] == "worker 1 lost"
        assert entry["process"] == "worker-3"
        assert "T" in entry["ts"]

    def test_exceptions_are_embedded_in_the_json_entry(self):
        formatter = JsonLineFormatter()
        try:
            raise ValueError("boom")
        except ValueError:
            import sys

            record = logging.LogRecord(
                "repro.test", logging.ERROR, __file__, 1, "failed", (), sys.exc_info()
            )
        entry = json.loads(formatter.format(record))
        assert "ValueError: boom" in entry["exception"]
        assert "process" not in entry

    def test_reconfiguration_replaces_the_handler(self, repro_logger_state):
        logger = configure_logging("info", stream=io.StringIO())
        configure_logging("debug", json_lines=True, stream=io.StringIO())
        marked = [
            handler
            for handler in logger.handlers
            if getattr(handler, "_repro_obs_handler", False)
        ]
        assert len(marked) == 1
        assert logger.propagate is False
        assert logger.level == logging.DEBUG

    def test_level_filtering_applies(self, repro_logger_state):
        stream = io.StringIO()
        configure_logging("error", json_lines=True, stream=stream)
        logging.getLogger("repro.service.server").info("quiet")
        assert stream.getvalue() == ""


# ---------------------------------------------------------------------------
# Service-core tracing (deterministic asyncio, no sockets)
# ---------------------------------------------------------------------------


class TestServiceTracing:
    def test_minted_trace_covers_the_request_path(self):
        async def scenario():
            service = await make_service()
            response = await service.handle(
                {"op": "analyze", "source": FMA_SOURCE, "trace": True}
            )
            assert response["status"] == "ok"
            trace = response["trace"]
            assert len(trace["id"]) == 16
            names = span_names(response)
            assert names[0] == "normalize"
            assert "cache.lookup" in names
            assert "queue.wait" in names
            assert "engine.interpret" in names
            lookup = next(
                span
                for span in trace["spans"]
                if span["name"] == "cache.lookup"
            )
            assert lookup["tier"] == "miss"
            assert engine_spans(response)
            for span in trace["spans"]:
                assert span["seconds"] >= 0.0
            await service.stop()

        run(scenario())

    def test_caller_supplied_trace_id_is_echoed(self):
        async def scenario():
            service = await make_service()
            response = await service.handle(
                {"op": "analyze", "source": FMA_SOURCE, "trace": "cafe0000cafe0000"}
            )
            assert response["trace"]["id"] == "cafe0000cafe0000"
            await service.stop()

        run(scenario())

    def test_cache_hit_traces_the_memory_tier_without_engine_spans(self):
        async def scenario():
            service = await make_service()
            await service.handle({"op": "analyze", "source": FMA_SOURCE})
            response = await service.handle(
                {"op": "analyze", "source": FMA_SOURCE, "trace": True}
            )
            assert response["cached"] is True
            lookup = next(
                span
                for span in response["trace"]["spans"]
                if span["name"] == "cache.lookup"
            )
            assert lookup["tier"] == "memory"
            assert not engine_spans(response)
            await service.stop()

        run(scenario())

    def test_coalesced_traces_share_the_single_inference_spans(self):
        async def scenario():
            service = await make_service()
            responses = await asyncio.gather(
                *[
                    service.handle(
                        {"op": "analyze", "source": HORNER_SOURCE, "trace": True}
                    )
                    for _ in range(6)
                ]
            )
            assert [response["status"] for response in responses] == ["ok"] * 6
            assert service.counters["inferences"] == 1
            coalesced = [r for r in responses if r["coalesced"]]
            assert coalesced
            for response in coalesced:
                assert "coalesce" in span_names(response)
            # One inference, one phases dict: every non-cached response
            # reports byte-identical engine spans.
            shared = {
                tuple(engine_spans(response))
                for response in responses
                if not response["cached"]
            }
            assert len(shared) == 1
            # Each rider still has its own trace identity.
            ids = {response["trace"]["id"] for response in responses}
            assert len(ids) == 6
            await service.stop()

        run(scenario())

    def test_untraced_requests_carry_no_trace_key(self):
        async def scenario():
            service = await make_service()
            response = await service.handle({"op": "analyze", "source": FMA_SOURCE})
            assert "trace" not in response
            await service.stop()

        run(scenario())

    def test_slow_request_ring_buffer(self):
        async def scenario():
            service = await make_service(slow_request_seconds=1e-9, slow_log_entries=4)
            for _ in range(6):
                await service.handle({"op": "analyze", "source": FMA_SOURCE})
            slow = service.stats()["slow_requests"]
            assert 0 < len(slow) <= 4  # ring buffer capacity holds
            entry = slow[-1]
            assert entry["op"] == "analyze"
            assert entry["status"] == "ok"
            assert entry["seconds"] > 0.0
            assert entry["key"]
            await service.stop()

        run(scenario())

    def test_metrics_op_reports_the_catalog(self):
        async def scenario():
            service = await make_service()
            await service.handle({"op": "analyze", "source": FMA_SOURCE})
            response = await service.handle({"op": "metrics"})
            assert response["status"] == "ok"
            names = {metric["name"] for metric in response["metrics"]["metrics"]}
            assert {
                "repro_service_requests_total",
                "repro_service_inferences_total",
                "repro_request_seconds",
                "repro_cache_lookup_seconds",
                "repro_queue_wait_seconds",
                "repro_engine_phase_seconds",
                "repro_scheduler_submitted_total",
                "repro_scheduler_lane_requests_total",
                "repro_scheduler_queue_depth",
                "repro_cache_hits_total",
                "repro_parse_cache_hits_total",
                "repro_service_inflight",
            } <= names
            prom = await service.handle({"op": "metrics", "format": "prometheus"})
            text = prom["prometheus"]
            assert "# TYPE repro_request_seconds histogram" in text
            assert 'repro_request_seconds_bucket{le="+Inf"' in text
            # One analyze + two metrics requests were admitted by now.
            assert "repro_service_requests_total 3" in text
            await service.stop()

        run(scenario())

    def test_traced_bodies_never_enter_the_hot_key_memo(self):
        async def scenario():
            service = await make_service()
            ok = {"status": "ok", "op": "analyze", "key": "k" * 64}
            service.remember_key(b"plain-body", {"op": "analyze"}, ok)
            assert service._hot_keys.get(b"plain-body") is not None
            service.remember_key(
                b"traced-body", {"op": "analyze", "trace": True}, ok
            )
            assert service._hot_keys.get(b"traced-body") is None
            await service.stop()

        run(scenario())


# ---------------------------------------------------------------------------
# Wire protocol (one TCP server)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    with _ServerHarness(ServiceConfig(jobs=1)) as harness:
        yield harness


class TestServerWire:
    def test_trace_roundtrips_over_tcp(self, server):
        with ServiceClient(port=server.port, timeout=120) as client:
            response = client.analyze(FMA_SOURCE, trace=True)
            assert response["report"]["ok"]
            assert len(response["trace"]["id"]) == 16
            assert "cache.lookup" in span_names(response)

    def test_pipelined_traced_duplicates_cost_one_inference(self, server):
        with PipelinedClient(port=server.port, timeout=120) as client:
            first = client.submit(
                {"op": "analyze", "source": HORNER_SOURCE, "trace": True}
            )
            second = client.submit(
                {"op": "analyze", "source": HORNER_SOURCE, "trace": True}
            )
            one, two = client.collect([first, second])
            assert one["status"] == "ok" and two["status"] == "ok"
            assert one["trace"]["id"] != two["trace"]["id"]
            stats = client.stats()
        assert stats["service"]["inferences"] >= 1
        rider = two if (two["coalesced"] or two["cached"]) else one
        if rider["coalesced"]:
            # The rider shares the one inference's phase breakdown.
            assert engine_spans(rider) == engine_spans(
                one if rider is two else two
            )
        else:
            lookup = next(
                span
                for span in rider["trace"]["spans"]
                if span["name"] == "cache.lookup"
            )
            assert lookup["tier"] in ("memory", "hot")

    def test_metrics_over_tcp_with_prometheus_format(self, server):
        with ServiceClient(port=server.port, timeout=120) as client:
            response = client.metrics(format="prometheus")
        assert "metrics" in response
        assert "# TYPE repro_request_seconds histogram" in response["prometheus"]


# ---------------------------------------------------------------------------
# Cluster: router-hop tracing and worker-labeled metric aggregation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster2():
    with _RouterHarness(2, ServiceConfig(queue_size=1024)) as harness:
        yield harness


class TestClusterObservability:
    def test_router_mints_id_and_prepends_its_span(self, cluster2):
        with ServiceClient(port=cluster2.port, timeout=120) as client:
            response = client.analyze(FMA_SOURCE, trace=True)
        trace = response["trace"]
        assert len(trace["id"]) == 16
        route = trace["spans"][0]
        assert route["name"] == "router.route"
        assert route["slot"] in (0, 1)
        names = span_names(response)
        assert "normalize" in names and "cache.lookup" in names

    def test_client_supplied_id_survives_router_and_worker(self, cluster2):
        with ServiceClient(port=cluster2.port, timeout=120) as client:
            response = client.analyze(
                FMA_SOURCE, trace="0123456789abcdef", no_cache=True
            )
        assert response["trace"]["id"] == "0123456789abcdef"
        assert response["trace"]["spans"][0]["name"] == "router.route"

    def test_pipelined_traced_requests_through_the_router(self, cluster2):
        with PipelinedClient(port=cluster2.port, timeout=120) as client:
            ids = [
                client.submit(
                    {"op": "analyze", "source": HORNER_SOURCE, "trace": True}
                )
                for _ in range(3)
            ]
            responses = client.collect(ids)
        for response in responses:
            assert response["status"] == "ok"
            assert response["trace"]["spans"][0]["name"] == "router.route"
        assert len({response["trace"]["id"] for response in responses}) == 3
        # All three route to one worker (same key), which ran the
        # inference at most once: non-cached responses share its spans.
        shared = {
            tuple(engine_spans(response))
            for response in responses
            if not response["cached"]
        }
        assert len(shared) <= 1

    def test_metrics_aggregate_with_per_worker_labels(self, cluster2):
        with ServiceClient(port=cluster2.port, timeout=120) as client:
            client.analyze(FMA_SOURCE)
            response = client.metrics(format="prometheus")
        assert response["router"]["metrics"]
        slots = {worker["slot"] for worker in response["workers"]}
        assert slots == {0, 1}
        for worker in response["workers"]:
            names = {metric["name"] for metric in worker["metrics"]["metrics"]}
            assert "repro_service_requests_total" in names
            assert "repro_request_seconds" in names
        text = response["prometheus"]
        assert 'worker="router"' in text
        assert 'worker="0"' in text and 'worker="1"' in text
        assert 'repro_request_seconds_bucket{le="+Inf"' in text
        assert "repro_router_requests_total" in text

    def test_router_stats_aggregate_worker_slow_logs(self, cluster2):
        # The harness config leaves the 1.0 s threshold: no slow entries
        # expected, but the aggregated key must be present and list-shaped.
        with ServiceClient(port=cluster2.port, timeout=120) as client:
            stats = client.stats()
        assert isinstance(stats["slow_requests"], list)
