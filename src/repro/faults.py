"""Deterministic fault injection for the parallel and service tiers.

Production DAQ/serving systems give every failure mode three things: an
injection hook, a recovery path, and a test that exercises both.  This
module is the injection half.  A :class:`FaultPlan` is a seeded registry
of :class:`FaultPoint` entries, each naming a **site** (a choke point in
the codebase instrumented with :func:`poll`), a fault **kind**, and the
occurrence index at which it fires.  Arm a plan and the instrumented
sites misbehave on exactly the passes the plan dictates; run the same
plan (same seed) again and the same faults fire at the same places —
chaos tests stay bit-reproducible.

Instrumented sites
------------------
=====================  ====================================================
``pool.task``          a :class:`~repro.parallel.WorkerPool` submission;
                       ``crash`` hard-kills the worker process
                       (``os._exit``) instead of running the task,
                       ``delay`` sleeps in the worker first
``cache.disk_read``    a :class:`~repro.service.cache.ResultCache` disk
                       lookup; ``os_error`` raises ``OSError`` (EIO,
                       ENOSPC, ...), ``corrupt`` garbles the bytes read,
                       ``delay`` sleeps
``cache.disk_write``   a disk-tier store; ``os_error``/``delay``
``http.request``       one inbound HTTP request on the serving
                       front-end; ``reset`` drops the connection without
                       a response, ``delay`` sleeps before routing
``client.request``     one outbound :class:`~repro.service.client.
                       ServiceClient` attempt; ``reset`` fails it with a
                       connection reset before it leaves the process,
                       ``delay`` sleeps first
``jobs.execute``       a :class:`~repro.service.jobs.JobManager` job
                       execution; ``delay`` stretches it (crash/restart
                       test windows)
=====================  ====================================================

Zero overhead when disarmed: every instrumented site guards its hook
with ``if faults._ACTIVE is not None`` — one module-global load on the
hot path, no function call, no allocation.

Spec strings
------------
Plans parse from a compact spec (CLI ``--faults`` / env ``REPRO_FAULTS``)::

    seed=7; pool.task:crash@2; cache.disk_read:os_error@1:errno=28;
    http.request:reset@1x2; client.request:delay@3:seconds=0.05

``site:kind@at`` fires on the ``at``-th pass through the site (1-based);
``@atxN`` fires on ``N`` consecutive passes; ``@lo-hi`` draws ``at``
uniformly from ``[lo, hi]`` using the plan seed (the "seeded" in seeded
fault plan).  Trailing ``key=value`` params: ``errno`` for ``os_error``,
``seconds`` for ``delay``.
"""

from __future__ import annotations

import errno as _errno
import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# -- sites and kinds ----------------------------------------------------------

POOL_TASK = "pool.task"
CACHE_DISK_READ = "cache.disk_read"
CACHE_DISK_WRITE = "cache.disk_write"
HTTP_REQUEST = "http.request"
CLIENT_REQUEST = "client.request"
JOBS_EXECUTE = "jobs.execute"

#: Every instrumented site; a :class:`FaultPoint` naming any other site
#: is rejected.
SITES = (POOL_TASK, CACHE_DISK_READ, CACHE_DISK_WRITE, HTTP_REQUEST,
         CLIENT_REQUEST, JOBS_EXECUTE)

CRASH = "crash"
OS_ERROR = "os_error"
CORRUPT = "corrupt"
RESET = "reset"
DELAY = "delay"

KINDS = (CRASH, OS_ERROR, CORRUPT, RESET, DELAY)

#: Environment variable holding a plan spec, honoured by the service CLI.
ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultPoint:
    """One planned fault: fire ``kind`` at ``site`` on passes
    ``at .. at+count-1`` (1-based occurrence indexes)."""

    site: str
    kind: str
    at: int = 1
    count: int = 1
    errno_code: int = _errno.EIO
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r} "
                             f"(one of {', '.join(SITES)})")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(one of {', '.join(KINDS)})")
        if self.at < 1 or self.count < 1:
            raise ValueError("fault occurrence index and count are 1-based")
        if self.seconds < 0:
            raise ValueError("delay seconds must be non-negative")

    def fires_at(self, occurrence: int) -> bool:
        return self.at <= occurrence < self.at + self.count

    def os_error(self) -> OSError:
        """The injected ``OSError`` for an ``os_error`` point."""
        return OSError(self.errno_code, os.strerror(self.errno_code)
                       + " [injected fault]")

    def spec(self) -> str:
        """The spec-string form (parses back via :meth:`FaultPlan.from_spec`)."""
        text = f"{self.site}:{self.kind}@{self.at}"
        if self.count != 1:
            text += f"x{self.count}"
        if self.kind == OS_ERROR and self.errno_code != _errno.EIO:
            text += f":errno={self.errno_code}"
        if self.kind == DELAY and self.seconds:
            text += f":seconds={self.seconds}"
        return text


def _parse_point(segment: str, rng: random.Random) -> FaultPoint:
    """One ``site:kind@at[xN][:key=value,...]`` segment."""
    head, _, params_text = segment.partition("@")
    if ":" not in head or not params_text:
        raise ValueError("expected site:kind@at[:key=value,...]")
    site, _, kind = head.rpartition(":")
    occurrence, _, params_text = params_text.partition(":")
    params: Dict[str, str] = {}
    for pair in filter(None, params_text.split(",")):
        key, eq, value = pair.partition("=")
        if not eq:
            raise ValueError(f"malformed fault param {pair!r}")
        params[key.strip()] = value.strip()
    occurrence = occurrence.strip()
    count = 1
    if "x" in occurrence:
        occurrence, _, count_text = occurrence.partition("x")
        count = int(count_text)
    if "-" in occurrence:
        lo, _, hi = occurrence.partition("-")
        at = rng.randint(int(lo), int(hi))
    else:
        at = int(occurrence)
    return FaultPoint(site=site.strip(), kind=kind.strip(), at=at,
                      count=count,
                      errno_code=int(params.get("errno", _errno.EIO)),
                      seconds=float(params.get("seconds", 0.0)))


class FaultPlan:
    """A seeded, occurrence-counting set of fault points.

    The plan owns one counter per site; :meth:`poll` bumps the counter
    and returns the point that fires on that pass (or ``None``).  Both
    the counters and the seeded random choices (range-form ``at``) are
    deterministic, so a plan is replayable: same seed + same execution
    order = same faults.
    """

    def __init__(self, seed: int = 0,
                 points: Sequence[FaultPoint] = ()) -> None:
        self.seed = seed
        self.points: List[FaultPoint] = list(points)
        self._counts: Dict[str, int] = {}  # guarded-by: _lock
        self._fired: List[Tuple[str, str, int]] = []  # guarded-by: _lock
        self._lock = threading.Lock()

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the CLI/env spec grammar (see the module docstring).

        Raises ``ValueError`` naming the offending segment on any
        malformed segment, unknown site or kind, or bad number.
        """
        seed = 0
        segments: List[str] = []
        for segment in spec.split(";"):
            segment = segment.strip()
            if segment.startswith("seed="):
                try:
                    seed = int(segment[len("seed="):])
                except ValueError:
                    raise ValueError(
                        f"malformed fault seed {segment!r}") from None
            elif segment:
                segments.append(segment)
        # The seed may follow the points it draws for, so points are
        # built only once every segment has been read.
        rng = random.Random(seed)
        points = []
        for segment in segments:
            try:
                points.append(_parse_point(segment, rng))
            except ValueError as exc:
                raise ValueError(
                    f"malformed fault segment {segment!r}: {exc}") from None
        return cls(seed=seed, points=points)

    @classmethod
    def from_env(cls, var: str = ENV_VAR) -> Optional["FaultPlan"]:
        """The plan named by ``$REPRO_FAULTS``, or ``None`` when unset."""
        spec = os.environ.get(var)
        return cls.from_spec(spec) if spec else None

    # -- runtime ---------------------------------------------------------------

    def poll(self, site: str) -> Optional[FaultPoint]:
        """Count one pass through ``site``; the firing point, or ``None``."""
        with self._lock:
            occurrence = self._counts.get(site, 0) + 1
            self._counts[site] = occurrence
            for point in self.points:
                if point.site == site and point.fires_at(occurrence):
                    self._fired.append((site, point.kind, occurrence))
                    return point
            return None

    def fired(self) -> List[Tuple[str, str, int]]:
        """Every ``(site, kind, occurrence)`` that fired so far."""
        with self._lock:
            return list(self._fired)

    def counts(self) -> Dict[str, int]:
        """Passes observed per site."""
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        """Zero the occurrence counters and the fired log (re-arming the
        same plan for a fresh, identical run)."""
        with self._lock:
            self._counts.clear()
            self._fired.clear()

    def spec(self) -> str:
        """Spec-string round trip (note: range-form points serialize as
        their resolved ``at``, keeping the replay exact)."""
        return "; ".join([f"seed={self.seed}"]
                         + [point.spec() for point in self.points])

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, points={len(self.points)}, "
                f"fired={len(self._fired)})")


# -- the armed plan -----------------------------------------------------------

#: The armed plan.  Instrumented sites guard their hook with
#: ``if faults._ACTIVE is not None`` — the whole cost of a disarmed site.
_ACTIVE: Optional[FaultPlan] = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the armed plan; returns it."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def disarm() -> None:
    """No plan armed; every site back to zero overhead."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultPlan]:
    """The armed plan, if any."""
    return _ACTIVE


def poll(site: str) -> Optional[FaultPoint]:
    """Count one pass through ``site`` on the armed plan.

    Callers on hot paths should guard with ``if faults._ACTIVE is not
    None`` before calling, so the disarmed cost stays one global load.
    """
    plan = _ACTIVE
    return plan.poll(site) if plan is not None else None


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of a ``with`` block (tests)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


__all__ = [
    "FaultPlan", "FaultPoint", "arm", "disarm", "active", "poll", "injected",
    "SITES", "KINDS", "ENV_VAR",
    "POOL_TASK", "CACHE_DISK_READ", "CACHE_DISK_WRITE", "HTTP_REQUEST",
    "CLIENT_REQUEST", "JOBS_EXECUTE",
    "CRASH", "OS_ERROR", "CORRUPT", "RESET", "DELAY",
]
