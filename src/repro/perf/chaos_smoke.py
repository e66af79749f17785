"""Chaos smoke: prove the resilience layer masks a seeded fault plan.

The acceptance harness for ``docs/robustness.md``: drive a small cluster
with a pinned :mod:`repro.faults` plan — worker kills, delayed and
truncated response frames, dropped connections, corrupted disk-cache
pickles — through the *retrying* pipelined client, and assert the two
properties the resilience layer promises:

1. **zero client-visible failures** — every request ends in an ``ok``
   response, because worker-death 503s, open-circuit sheds and dropped
   connections are all retried against the idempotent content-addressed
   request keys;
2. **answers are unchanged** — the reports from the faulted run are
   byte-identical (volatile timing fields dropped) to a fault-free run of
   the same corpus, because corrupt cache entries are quarantined and
   recomputed, never served.

Two modes:

* self-hosted (default) — start a fault-free reference cluster, then a
  faulted cluster, compare::

      PYTHONPATH=src python -m repro.perf.chaos_smoke

* attack (CI) — drive an externally started, already-faulted cluster and
  assert on its /stats counters instead of a reference run::

      PYTHONPATH=src python -m repro.perf.chaos_smoke \\
          --port 7351 --requests 256 --expect-restarts 1 \\
          --expect-breaker-cycle

Fault *decisions* are deterministic (pure functions of ``seed`` and each
site's event ordinal) but event *arrival order* still depends on
scheduling, so assertions are on outcomes (zero failures, identical
reports, counters crossed), never on an exact fault timeline.
"""

from __future__ import annotations

import json
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..service import PipelinedClient, RetryPolicy, ServiceClient, ServiceConfig
from .service_bench import _RouterHarness, bench_sources

__all__ = [
    "DEFAULT_FAULT_PLAN",
    "chaos_corpus",
    "normalize_report",
    "run_chaos_load",
    "main",
]

#: The pinned plan CI runs: one worker kill per worker lifetime (its 40th
#: analysis), occasional 40 ms response delays, a truncated and a dropped
#: frame per worker lifetime and 8% corrupted cache writes.  Seeded, so a
#: failing run replays.
DEFAULT_FAULT_PLAN = (
    "seed=1066;kill_worker=@40;slow_response=0.05:40;"
    "truncate_frame=@55;drop_connection=@75;corrupt_cache=0.08"
)

DEFAULT_REQUESTS = 256
DEFAULT_WORKERS = 2
DEFAULT_RETRIES = 10
#: Requests submitted per pipelined wave (bounded in-flight set, well
#: under the server's pipeline window).
WAVE = 16
#: Per-report fields that legitimately differ between two runs of the
#: same analysis: wall-clock timings and the engine phase breakdown.
#: Everything else must match byte for byte.
VOLATILE_REPORT_FIELDS = frozenset({"seconds", "inference_seconds", "phases"})


def chaos_corpus(limit: Optional[int] = None) -> List[Tuple[str, str, str]]:
    """The bench corpus (paper examples + bundled programs), optionally capped."""
    corpus = bench_sources()
    if limit is not None:
        corpus = corpus[:limit]
    if not corpus:
        raise RuntimeError("chaos corpus is empty; is the checkout intact?")
    return corpus


def normalize_report(report: Any) -> Any:
    """A deep copy with the volatile timing fields dropped at every level."""
    if isinstance(report, dict):
        return {
            key: normalize_report(value)
            for key, value in report.items()
            if key not in VOLATILE_REPORT_FIELDS
        }
    if isinstance(report, list):
        return [normalize_report(item) for item in report]
    return report


def run_chaos_load(
    port: int,
    corpus: Sequence[Tuple[str, str, str]],
    requests: int,
    retry: Optional[RetryPolicy],
    deadline_ms: Optional[float] = 60_000.0,
    progress=None,
) -> Dict[str, Any]:
    """Drive ``requests`` pipelined analyses; returns reports + failures.

    Requests walk the corpus round-robin; every fourth carries a
    ``deadline_ms`` budget so deadline propagation is exercised alongside
    the retries, and every eighth is ``no_cache`` so re-inference keeps
    firing even once the shared disk cache is warm.  A "failure" is
    anything the retrying client could not mask: a raised
    :class:`ServiceError` or a drained non-``ok`` response.
    """
    from ..service.client import ServiceError

    reports: List[Optional[Any]] = [None] * requests
    failures: List[str] = []
    with PipelinedClient(port=port, retry=retry) as client:
        for wave_start in range(0, requests, WAVE):
            wave = range(wave_start, min(wave_start + WAVE, requests))
            ids: List[Tuple[int, int]] = []
            for index in wave:
                name, kind, source = corpus[index % len(corpus)]
                payload: Dict[str, Any] = {
                    "op": "analyze",
                    "source": source,
                    "kind": kind,
                    "name": name,
                }
                if deadline_ms is not None and index % 4 == 0:
                    payload["deadline_ms"] = deadline_ms
                if index % 8 == 7:
                    payload["no_cache"] = True
                ids.append((index, client.submit(payload)))
            client.flush()
            for index, request_id in ids:
                try:
                    response = client.drain(request_id)
                except ServiceError as error:
                    failures.append(f"request {index}: {error}")
                    continue
                if response.get("status") != "ok":
                    failures.append(f"request {index}: non-ok {response!r}")
                    continue
                reports[index] = normalize_report(response.get("report"))
            if progress and (wave_start // WAVE) % 4 == 0:
                progress(f"  {min(wave_start + WAVE, requests)}/{requests} drained")
    return {"reports": reports, "failures": failures}


def _cluster_stats(port: int) -> Dict[str, Any]:
    with ServiceClient(port=port, timeout=30) as client:
        return client.stats()


def _scrape_prometheus(port: int) -> str:
    """The router's Prometheus exposition (what ``repro query --metrics`` prints)."""
    with ServiceClient(port=port, timeout=30) as client:
        return client.metrics(format="prometheus").get("prometheus", "")


def _breaker_cycles(stats: Dict[str, Any]) -> Tuple[int, int]:
    """``(opened, reclosed)`` summed over every slot's breaker transitions."""
    opened = reclosed = 0
    for breaker in stats.get("cluster", {}).get("breakers", []):
        transitions = breaker.get("transitions", {})
        opened += transitions.get("open", 0)
        reclosed += transitions.get("closed", 0)
    return opened, reclosed


def _worker_fault_counts(stats: Dict[str, Any]) -> Dict[str, int]:
    """Injected-fault counters summed over the live per-worker blocks."""
    totals: Dict[str, int] = {}
    for worker in stats.get("workers", []):
        block = worker.get("stats") or {}
        for site, hits in (block.get("faults") or {}).get("injected", {}).items():
            totals[site] = totals.get(site, 0) + int(hits)
    return totals


def _assert_outcomes(
    stats: Dict[str, Any],
    exposition: str,
    expect_restarts: int,
    expect_breaker_cycle: bool,
) -> List[str]:
    """Check the chaos run actually *exercised* the resilience layer.

    A chaos suite that silently injected nothing proves nothing, so the
    smoke fails when the fault counters show the cluster had a quiet run.
    """
    problems: List[str] = []
    restarts = stats.get("cluster", {}).get("restarts", 0)
    if restarts < expect_restarts:
        problems.append(f"expected >= {expect_restarts} worker restart(s), saw {restarts}")
    if expect_breaker_cycle:
        opened, reclosed = _breaker_cycles(stats)
        if opened < 1 or reclosed < 1:
            problems.append(
                f"expected >= 1 full breaker open/close cycle, saw "
                f"open={opened} closed={reclosed}"
            )
    if "repro_router_breakers_open" not in exposition:
        problems.append("metrics scrape is missing the router gauges")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.perf.chaos_smoke",
        description="Drive a faulted analysis cluster and assert zero "
        "client-visible failures with unchanged answers",
    )
    parser.add_argument(
        "--port", type=int, default=None,
        help="attack an externally started (already faulted) cluster "
        "instead of self-hosting the reference + chaos pair",
    )
    parser.add_argument(
        "--requests", type=int, default=DEFAULT_REQUESTS,
        help=f"pipelined requests to issue (default {DEFAULT_REQUESTS})",
    )
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS,
        help=f"cluster size in self-hosted mode (default {DEFAULT_WORKERS})",
    )
    parser.add_argument(
        "--faults", default=DEFAULT_FAULT_PLAN,
        help="fault plan spec for the self-hosted chaos cluster",
    )
    parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES,
        help=f"client retry attempts per request (default {DEFAULT_RETRIES})",
    )
    parser.add_argument(
        "--expect-restarts", type=int, default=1,
        help="minimum worker restarts the run must produce (default 1)",
    )
    parser.add_argument(
        "--expect-breaker-cycle", action="store_true", default=True,
        help="require at least one breaker open/close cycle (default on)",
    )
    parser.add_argument(
        "--no-expect-breaker-cycle", dest="expect_breaker_cycle",
        action="store_false",
    )
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    arguments = parser.parse_args(argv)

    progress = lambda line: print(line, file=sys.stderr, flush=True)  # noqa: E731
    corpus = chaos_corpus()
    retry = RetryPolicy(
        retries=arguments.retries, base_delay=0.1, budget_seconds=60.0, seed=42
    )
    summary: Dict[str, Any] = {
        "requests": arguments.requests,
        "retry": {"retries": retry.retries, "seed": retry.seed},
    }

    if arguments.port is not None:
        # Attack mode: the cluster (and its fault plan) belong to the
        # caller; we supply load, the zero-failure check and the
        # counter assertions.
        progress(f"attacking cluster on port {arguments.port} ...")
        load = run_chaos_load(
            arguments.port, corpus, arguments.requests, retry, progress=progress
        )
        stats = _cluster_stats(arguments.port)
        exposition = _scrape_prometheus(arguments.port)
        problems = list(load["failures"])
        problems += _assert_outcomes(
            stats, exposition,
            arguments.expect_restarts, arguments.expect_breaker_cycle,
        )
        summary.update(
            mode="attack",
            failures=load["failures"],
            restarts=stats.get("cluster", {}).get("restarts"),
            breaker_transitions=_breaker_cycles(stats),
            injected=_worker_fault_counts(stats),
        )
    else:
        # Self-hosted mode: a fault-free reference pass, then the chaos
        # pass, with byte-identical reports required between the two.
        problems = []
        with tempfile.TemporaryDirectory(prefix="repro-chaos-ref-") as ref_dir:
            config = ServiceConfig(cache_dir=ref_dir, queue_size=512)
            progress(f"reference cluster ({arguments.workers} workers, no faults) ...")
            with _RouterHarness(arguments.workers, config) as harness:
                reference = run_chaos_load(
                    harness.port, corpus, arguments.requests, retry,
                    progress=progress,
                )
        if reference["failures"]:
            # The fault-free pass must be clean or the comparison is moot.
            for failure in reference["failures"][:5]:
                progress(f"REFERENCE FAILURE: {failure}")
            print("chaos smoke: reference (fault-free) run failed", file=sys.stderr)
            return 2

        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as chaos_dir:
            config = ServiceConfig(
                cache_dir=chaos_dir, queue_size=512, faults=arguments.faults
            )
            progress(f"chaos cluster (faults: {arguments.faults}) ...")
            with _RouterHarness(arguments.workers, config) as harness:
                chaos = run_chaos_load(
                    harness.port, corpus, arguments.requests, retry,
                    progress=progress,
                )
                stats = _cluster_stats(harness.port)
                exposition = _scrape_prometheus(harness.port)

        problems += chaos["failures"]
        mismatches = 0
        for index, (expected, actual) in enumerate(
            zip(reference["reports"], chaos["reports"])
        ):
            if actual is None:
                continue  # already counted as a failure above
            if json.dumps(expected, sort_keys=True) != json.dumps(actual, sort_keys=True):
                mismatches += 1
                if mismatches <= 3:
                    problems.append(
                        f"request {index}: chaos report differs from fault-free run"
                    )
        if mismatches > 3:
            problems.append(f"... and {mismatches - 3} more report mismatches")
        problems += _assert_outcomes(
            stats, exposition,
            arguments.expect_restarts, arguments.expect_breaker_cycle,
        )
        summary.update(
            mode="self-hosted",
            workers=arguments.workers,
            faults=arguments.faults,
            failures=chaos["failures"],
            report_mismatches=mismatches,
            restarts=stats.get("cluster", {}).get("restarts"),
            breaker_transitions=_breaker_cycles(stats),
            injected=_worker_fault_counts(stats),
        )

    summary["ok"] = not problems
    rendered = json.dumps(summary, indent=2, sort_keys=True)
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    print(rendered)
    if problems:
        for problem in problems[:10]:
            print(f"CHAOS SMOKE FAILURE: {problem}", file=sys.stderr)
        return 1
    progress(
        "chaos smoke passed: 0 client-visible failures, reports byte-identical"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
