"""Bounded, deadline-aware work queue between the server and the pool.

The front-end (:mod:`repro.service.server`) admits and coalesces
requests; this module decides *when* the surviving unit of work actually
runs.  Three concerns live here:

* **Priority lanes** — interactive queries (a developer waiting on
  ``repro query``) jump ahead of bulk work (a table regeneration sweep
  streaming hundreds of programs).  Ties break FIFO via a monotonically
  increasing sequence number, so neither lane can starve *within* itself.
* **Backpressure** — the queue is bounded; when it is full ``submit``
  raises :class:`SchedulerBusy` immediately instead of buffering without
  limit, and the server turns that into a 429-style ``busy`` response.
  Shedding at admission keeps memory flat and tells clients to back off
  while the information is still actionable.
* **Deadlines** — every job may carry an absolute deadline (monotonic
  clock).  The deadline governs the *queue*: a job whose deadline passed
  while still queued is dropped without running (its waiters get
  :class:`DeadlineExceeded`).  Once dispatched, a job always runs to
  completion and resolves with its report — the executor task cannot be
  safely interrupted, and finishing the work lets the server cache it so
  retries are served instead of re-timing-out.  *Client*-facing deadlines
  while running are the front-end's job: every waiter wraps its wait in
  ``asyncio.wait_for`` (see ``server._await_report``), so it is released
  on time even though the inference keeps going.

Workers are plain asyncio tasks that pull jobs and run
:func:`repro.analysis.batch.analyze_item` on the shared
:class:`~repro.analysis.batch.PoolHandle` executor — worker *threads* for
``jobs=1`` (in-process, shares the intern tables and parse memo), a
process pool for ``jobs>1``.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..analysis.batch import BatchItem, PoolHandle, ProgramReport, analyze_item
from ..analysis.cache import AnalysisCache
from ..core.inference import InferenceConfig
from ..obs.metrics import CounterGroup, MetricsRegistry

logger = logging.getLogger(__name__)

__all__ = [
    "DeadlineExceeded",
    "Job",
    "PRIORITY_BULK",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_NAMES",
    "Scheduler",
    "SchedulerBusy",
]

PRIORITY_INTERACTIVE = 0
PRIORITY_BULK = 1

PRIORITY_NAMES = {"interactive": PRIORITY_INTERACTIVE, "bulk": PRIORITY_BULK}
_LANE_LABELS = {value: name for name, value in PRIORITY_NAMES.items()}


class SchedulerBusy(Exception):
    """The queue is full; the caller should shed this request (429)."""


class DeadlineExceeded(Exception):
    """The job's deadline passed before a result was produced (504)."""


@dataclass
class Job:
    """One admitted unit of analysis or validation work."""

    key: str
    item: BatchItem
    config: Optional[InferenceConfig] = None
    priority: int = PRIORITY_INTERACTIVE
    deadline: Optional[float] = None  # absolute, time.monotonic() domain
    future: "asyncio.Future[ProgramReport]" = field(default=None)  # type: ignore[assignment]
    enqueued_at: float = 0.0
    #: Which worker function runs the job: "analyze" (the default) or
    #: "validate" (the differential soundness harness).
    kind: str = "analyze"
    #: Extra work parameters (the validation sampling options), pickled to
    #: process-pool workers alongside the item.
    params: Optional[Dict[str, Any]] = None
    #: Time spent queued (stamped by the dispatching worker); feeds the
    #: ``queue.wait`` trace span and the queue-wait histogram.
    queue_wait_seconds: Optional[float] = None

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - (time.monotonic() if now is None else now)


class Scheduler:
    """Priority queue + asyncio workers over a reusable executor pool."""

    def __init__(
        self,
        pool: Optional[PoolHandle] = None,
        queue_size: int = 256,
        workers: Optional[int] = None,
        parse_cache: Optional["AnalysisCache"] = None,
        judgement_memo=None,
        memo_entries: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.pool = pool or PoolHandle(1)
        # With a thread-mode pool (jobs=1) the worker runs in-process, so
        # it can share the service's (lock-guarded) parse memo and skip
        # re-parsing sources the admission path already parsed for key
        # normalization.  Process pools get None: the memo doesn't travel.
        # The judgement memo follows the same rule in-process: it carries
        # subterm judgements *across requests* (corpus-wide common
        # subexpressions infer once per server lifetime).  A process pool
        # cannot share the object — instead ``memo_entries`` travels with
        # every submission and each pool worker process lazily builds its
        # *own* cross-request memo of that capacity
        # (:func:`repro.analysis.batch.process_judgement_memo`), so shard
        # affinity still pays off at jobs>1.
        self.parse_cache = parse_cache if self.pool.jobs == 1 else None
        self.judgement_memo = judgement_memo if self.pool.jobs == 1 else None
        self.memo_entries = memo_entries if self.pool.jobs > 1 else None
        # One puller per executor worker: more would only queue inside the
        # executor where deadlines can no longer be honoured.
        self.workers = max(1, workers if workers is not None else self.pool.jobs)
        self.queue_size = queue_size
        # Created lazily inside the running loop: asyncio queues bind their
        # event loop at construction on Python 3.9, and schedulers are
        # routinely built before ``asyncio.run`` starts the loop.
        self._queue: Optional["asyncio.PriorityQueue"] = None
        self._sequence = itertools.count()
        self._tasks: List[asyncio.Task] = []
        # Counter storage lives in the (possibly shared) metrics registry;
        # the dict-shaped views keep the `counters["x"] += 1` call sites
        # and the /stats block shape unchanged.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.counters = self.metrics.group(
            "repro_scheduler",
            # ``expired`` is the legacy name for deadline-expired queue
            # drops; ``shed_expired`` counts the same pre-dispatch sheds
            # under the resilience layer's naming (both advance together).
            ["submitted", "completed", "failed", "shed", "expired", "shed_expired"],
            "Scheduler lifecycle counters.",
        )
        self.lane_counters = CounterGroup(
            {
                name: self.metrics.counter(
                    "repro_scheduler_lane_requests_total",
                    "Submissions per priority lane.",
                    lane=name,
                )
                for name in PRIORITY_NAMES
            }
        )
        self._queue_wait = self.metrics.histogram(
            "repro_queue_wait_seconds",
            "Time jobs spent queued before dispatch.",
        )
        self.metrics.gauge_func(
            "repro_scheduler_queue_depth",
            lambda: self._queue.qsize() if self._queue is not None else 0,
            "Jobs currently queued.",
        )

    def _ensure_queue(self) -> "asyncio.PriorityQueue":
        if self._queue is None:
            self._queue = asyncio.PriorityQueue(maxsize=self.queue_size)
        return self._queue

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._tasks:
            return
        self._ensure_queue()
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._worker(index)) for index in range(self.workers)
        ]

    async def stop(self, close_pool: bool = True) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        if close_pool:
            self.pool.close()

    # -- admission ----------------------------------------------------------

    def submit(self, job: Job) -> "asyncio.Future[ProgramReport]":
        """Enqueue ``job``; raises :class:`SchedulerBusy` when full."""
        if job.future is None:
            job.future = asyncio.get_running_loop().create_future()
        job.enqueued_at = time.monotonic()
        entry = (job.priority, next(self._sequence), job)
        try:
            self._ensure_queue().put_nowait(entry)
        except asyncio.QueueFull:
            self.counters["shed"] += 1
            raise SchedulerBusy(
                f"queue full ({self.queue_size} pending); retry later"
            ) from None
        self.counters["submitted"] += 1
        self.lane_counters[_LANE_LABELS.get(job.priority, "bulk")] += 1
        return job.future

    # -- execution ----------------------------------------------------------

    def _shed_if_dead(self, job: Job) -> bool:
        """Drop a cancelled or deadline-expired job *before* dispatch.

        Expired work is shed without ever occupying the executor — a
        backlog burst must not burn engine time computing answers whose
        waiters have already been released (``shed_expired``).
        """
        job.queue_wait_seconds = max(0.0, time.monotonic() - job.enqueued_at)
        self._queue_wait.observe(job.queue_wait_seconds)
        if job.future.cancelled():
            return True
        remaining = job.remaining()
        if remaining is not None and remaining <= 0:
            self.counters["expired"] += 1
            self.counters["shed_expired"] += 1
            logger.debug("job %s expired after %.3fs queued",
                         job.key[:16], job.queue_wait_seconds)
            job.future.set_exception(
                DeadlineExceeded("deadline passed while queued")
            )
            return True
        return False

    async def _worker(self, index: int) -> None:
        queue = self._ensure_queue()
        while True:
            _priority, _sequence, job = await queue.get()
            if self._shed_if_dead(job):
                queue.task_done()
                # Drain any further already-dead jobs in the same pass,
                # so none of them waits behind a dispatch cycle.
                job = None
                while job is None:
                    try:
                        _priority, _sequence, candidate = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if self._shed_if_dead(candidate):
                        queue.task_done()
                        continue
                    job = candidate
                if job is None:
                    continue
            try:
                try:
                    # ``PoolHandle.submit`` transparently rebuilds a
                    # broken pool at dispatch time; result-time breakage
                    # is handled below.  Once dispatched the job runs to
                    # completion — client deadlines are enforced by the
                    # waiters' own ``wait_for``, and the finished report
                    # gets cached either way.
                    # For validation the per-process memo capacity rides
                    # along only for process pools (``memo_entries`` is
                    # None otherwise), keeping the thread-pool call shape
                    # unchanged; analysis always passes it.
                    extra = (self.memo_entries,) if self.memo_entries else ()
                    if job.kind == "validate":
                        from ..validation.harness import validate_item

                        future = self.pool.submit(
                            validate_item,
                            job.item,
                            job.config,
                            job.params,
                            self.parse_cache,
                            self.judgement_memo,
                            *extra,
                        )
                    elif job.kind == "tune":
                        from ..tuning.search import tune_item

                        future = self.pool.submit(
                            tune_item,
                            job.item,
                            job.config,
                            job.params,
                            self.parse_cache,
                            self.judgement_memo,
                            *extra,
                        )
                    else:
                        future = self.pool.submit(
                            analyze_item,
                            job.item,
                            job.config,
                            self.parse_cache,
                            self.judgement_memo,
                            self.memo_entries,
                        )
                    report = await asyncio.wrap_future(future)
                except Exception as error:  # pragma: no cover - defensive
                    self.counters["failed"] += 1
                    logger.warning(
                        "job %s failed: %s: %s",
                        job.key[:16], type(error).__name__, error,
                    )
                    if isinstance(error, BrokenExecutor):
                        # One crashed worker process poisons the whole
                        # pool; rebuild so the next job gets a fresh one.
                        self.pool.reset()
                    if not job.future.done():
                        job.future.set_exception(error)
                    continue
                self.counters["completed"] += 1
                if not job.future.done():
                    job.future.set_result(report)
            finally:
                queue.task_done()

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "queue_size": self.queue_size,
            "workers": self.workers,
            "pool_jobs": self.pool.jobs,
            **self.counters,
            "lanes": dict(self.lane_counters),
        }
