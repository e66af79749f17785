"""Seedable fault plans: parse, decide, count.

A plan is written as a one-line spec so it travels through CLI flags,
environment variables and the pickled service config unchanged::

    seed=42;kill_worker=@40;slow_response=0.05:20;corrupt_cache=0.05

``seed=N`` fixes the decision stream; every other clause names an
injection *site* and how often it fires:

* ``site=P`` — probability per event, ``0 <= P <= 1``.  The n-th event at
  a site fires iff ``blake2b(seed:site:n) < P * 2**64`` — a deterministic
  Bernoulli stream, independent of time and process interleaving for a
  given per-site event order.
* ``site=@N1,N2,...`` — fire exactly on the listed event ordinals
  (1-based).  ``kill_worker=@40`` kills a worker when *its* 40th request
  arrives, every run.
* Either form takes an optional ``:ARG`` suffix — today only
  ``slow_response`` uses it, as the injected delay in milliseconds
  (default 25).

Sites keep independent event counters, so adding traffic at one site
never perturbs another site's schedule.  All mutation is lock-guarded:
plans are consulted from asyncio loops, executor threads and pool
workers alike.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Dict, FrozenSet, Optional, Tuple

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "activate",
    "active_plan",
    "deactivate",
    "injected_counts",
    "plan_from_environment",
]

#: Every site the stack consults; specs naming anything else are rejected
#: loudly (a typoed site that silently never fires is a chaos test that
#: proves nothing).
FAULT_SITES = (
    "kill_worker",
    "slow_response",
    "truncate_frame",
    "drop_connection",
    "corrupt_cache",
)

_ENV_VAR = "REPRO_FAULTS"

_SCALE = float(1 << 64)


class _Site:
    """One site's schedule: a probability or an explicit ordinal set."""

    __slots__ = ("name", "rate", "ordinals", "arg")

    def __init__(
        self,
        name: str,
        rate: float = 0.0,
        ordinals: Optional[FrozenSet[int]] = None,
        arg: Optional[float] = None,
    ) -> None:
        self.name = name
        self.rate = rate
        self.ordinals = ordinals
        self.arg = arg

    def fires(self, seed: int, ordinal: int) -> bool:
        if self.ordinals is not None:
            return ordinal in self.ordinals
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        digest = hashlib.blake2b(
            f"{seed}:{self.name}:{ordinal}".encode("ascii"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") < self.rate * _SCALE

    def describe(self) -> Dict[str, object]:
        out: Dict[str, object] = {"site": self.name}
        if self.ordinals is not None:
            out["at"] = sorted(self.ordinals)
        else:
            out["rate"] = self.rate
        if self.arg is not None:
            out["arg"] = self.arg
        return out


class FaultPlan:
    """A parsed spec plus the per-site event counters it advances."""

    def __init__(self, seed: int, sites: Dict[str, _Site], spec: str) -> None:
        self.seed = seed
        self.spec = spec
        self._sites = sites
        self._events: Dict[str, int] = {name: 0 for name in sites}
        self._injected: Dict[str, int] = {name: 0 for name in sites}
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``seed=N;site=rate[:arg];...``; raises ``ValueError``."""
        seed = 0
        sites: Dict[str, _Site] = {}
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if "=" not in clause:
                raise ValueError(f"bad fault clause {clause!r} (expected name=value)")
            name, _, value = clause.partition("=")
            name = name.strip()
            value = value.strip()
            if name == "seed":
                seed = int(value)
                continue
            if name not in FAULT_SITES:
                raise ValueError(
                    f"unknown fault site {name!r}; expected one of {FAULT_SITES}"
                )
            arg: Optional[float] = None
            if ":" in value:
                value, _, arg_text = value.partition(":")
                arg = float(arg_text)
            if value.startswith("@"):
                ordinals = frozenset(
                    int(part) for part in value[1:].split(",") if part
                )
                if not ordinals or min(ordinals) < 1:
                    raise ValueError(f"bad ordinal list in {clause!r} (1-based)")
                sites[name] = _Site(name, ordinals=ordinals, arg=arg)
            else:
                rate = float(value)
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(f"rate out of range in {clause!r}")
                sites[name] = _Site(name, rate=rate, arg=arg)
        return cls(seed, sites, spec)

    # -- decisions -----------------------------------------------------------

    def should(self, site: str) -> bool:
        """Advance ``site``'s event counter; ``True`` when the fault fires."""
        entry = self._sites.get(site)
        if entry is None:
            return False
        with self._lock:
            self._events[site] += 1
            ordinal = self._events[site]
            fired = entry.fires(self.seed, ordinal)
            if fired:
                self._injected[site] += 1
        return fired

    def arg(self, site: str, default: float) -> float:
        entry = self._sites.get(site)
        if entry is None or entry.arg is None:
            return default
        return entry.arg

    # -- reporting -----------------------------------------------------------

    def injected(self, site: str) -> int:
        with self._lock:
            return self._injected.get(site, 0)

    def counts(self) -> Dict[str, Tuple[int, int]]:
        """``{site: (events_seen, faults_injected)}`` snapshot."""
        with self._lock:
            return {
                name: (self._events[name], self._injected[name])
                for name in self._sites
            }

    def describe(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "sites": [site.describe() for site in self._sites.values()],
            "injected": {name: hits for name, (_seen, hits) in self.counts().items()},
        }


# ---------------------------------------------------------------------------
# Process-wide activation
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def activate(spec: Optional[str]) -> Optional[FaultPlan]:
    """Install the process-wide plan (``None``/empty deactivates)."""
    global _ACTIVE
    if not spec:
        _ACTIVE = None
        return None
    _ACTIVE = FaultPlan.from_spec(spec)
    return _ACTIVE


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def plan_from_environment() -> Optional[str]:
    """The ``REPRO_FAULTS`` spec, if set (workers inherit it on spawn)."""
    return os.environ.get(_ENV_VAR) or None


def injected_counts() -> Dict[str, int]:
    """Injected-fault counters of the active plan (empty when inactive)."""
    plan = _ACTIVE
    if plan is None:
        return {}
    return {name: hits for name, (_seen, hits) in plan.counts().items()}
