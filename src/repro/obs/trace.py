"""Request tracing: trace ids and span records over the NDJSON protocol.

A request opts in by carrying a ``"trace"`` member — ``true`` to have an
id minted at the first hop (the router, or the server for direct
connections), or a string to propagate a caller-supplied id.  Every hop
appends :class:`Span` records to the request's :class:`RequestTrace`;
the ``ok``/``busy``/``timeout`` response echoes the whole thing under a
``"trace"`` key::

    {"trace": {"id": "d41d8cd98f00b204", "spans": [
        {"name": "router.route", "seconds": 0.0003},
        {"name": "cache.lookup", "seconds": 0.0001, "tier": "miss"},
        {"name": "queue.wait", "seconds": 0.002},
        {"name": "engine.interpret", "seconds": 0.041, "memo_hits": 12},
        ...]}}

Spans are duration records, listed in the order the hops appended them;
attribute members ride flat alongside ``name``/``seconds`` (a tier, a
hit count).  ``docs/observability.md`` lists every span
the service emits.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

__all__ = ["RequestTrace", "Span", "new_trace_id"]


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id."""
    return os.urandom(8).hex()


class Span:
    """One named, timed step of a request's journey."""

    __slots__ = ("name", "seconds", "attributes")

    def __init__(self, name: str, seconds: float, **attributes: Any) -> None:
        self.name = name
        self.seconds = seconds
        self.attributes = attributes

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "seconds": self.seconds, **self.attributes}


class RequestTrace:
    """The span accumulator for one traced request."""

    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.spans: List[Span] = []

    def add(self, name: str, seconds: float, **attributes: Any) -> Span:
        span = Span(name, seconds, **attributes)
        self.spans.append(span)
        return span

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.trace_id,
            "spans": [span.to_dict() for span in self.spans],
        }


def requested_trace_id(value: Any) -> Optional[str]:
    """Interpret a request's ``"trace"`` member.

    ``True`` asks this hop to mint an id; a non-empty string propagates
    the caller's id; anything else (absent, false, null, junk) means the
    request is not traced.  Returns the id to use, or ``None``.
    """
    if value is True:
        return new_trace_id()
    if isinstance(value, str) and value:
        return value
    return None
