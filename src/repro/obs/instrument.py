"""Near-zero-cost per-phase timing for the inference engine.

An :class:`Instrumentation` handle accumulates named phase durations
(``parse`` / ``interpret``) and event counts (judgement-memo hits).
:func:`repro.core.inference.infer` takes the handle as an optional
parameter; :data:`NULL_INSTRUMENTATION` is a shared no-op whose
``enabled`` flag lets hot paths skip even the ``perf_counter`` calls::

    if instrumentation.enabled:
        started = time.perf_counter()
    ...
    if instrumentation.enabled:
        instrumentation.observe("interpret", time.perf_counter() - started)

Phases are recorded at *stage boundaries only* — never per node — so
the enabled handle costs a handful of clock reads per
analysis.  CI gates the measured overhead on the perf ladder families at
5% (``repro perf --overhead``).
"""

from __future__ import annotations

import time
from typing import Dict

__all__ = ["Instrumentation", "NULL_INSTRUMENTATION"]


class Instrumentation:
    """Accumulates phase durations (seconds) and event counts."""

    __slots__ = ("enabled", "phases", "counts")

    def __init__(self) -> None:
        self.enabled = True
        self.phases: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def observe(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def time(self, phase: str) -> "_PhaseTimer":
        """``with instrumentation.time("lower"): ...`` convenience."""
        return _PhaseTimer(self, phase)

    def breakdown(self) -> Dict[str, float]:
        """Phases plus counts in one flat dict (counts as plain numbers)."""
        merged: Dict[str, float] = dict(self.phases)
        merged.update(self.counts)
        return merged


class _PhaseTimer:
    __slots__ = ("_instrumentation", "_phase", "_started")

    def __init__(self, instrumentation: Instrumentation, phase: str) -> None:
        self._instrumentation = instrumentation
        self._phase = phase

    def __enter__(self) -> "_PhaseTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._instrumentation.observe(
            self._phase, time.perf_counter() - self._started
        )


class _NullInstrumentation(Instrumentation):
    """The disabled singleton: every record is a no-op."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def observe(self, phase: str, seconds: float) -> None:
        pass

    def count(self, name: str, amount: int = 1) -> None:
        pass


#: Shared no-op handle; ``enabled`` is False so hot paths can skip the
#: clock reads entirely.
NULL_INSTRUMENTATION = _NullInstrumentation()
