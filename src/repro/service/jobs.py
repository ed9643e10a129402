"""Asynchronous jobs over the compilation service.

A :class:`Job` is one batch of :class:`~repro.service.api.CompileRequest`
objects moving through the ``queued → running → done/failed`` lifecycle
(``cancelled`` for queued jobs that never ran).  The :class:`JobManager`
owns the queue:

* **Monotonic ids** — jobs are numbered 1, 2, 3, … in admission order;
  ids are never reused within a manager's lifetime.
* **Priority ordering** — higher ``priority`` runs first; ties run in
  admission (FIFO) order.
* **Cancellation** — a *queued* job can be cancelled; cancelling a
  running, finished, failed, or already-cancelled job is a documented
  no-op that returns the job unchanged (the caller inspects ``status``
  to see what happened).  There is no mid-compile abort: compilation is
  CPU-bound work already in flight on the worker pool.
* **Bounded concurrency** — one executor thread drains the queue, so
  jobs execute one at a time; *within* a job, cache misses fan out over
  the service's :class:`~repro.parallel.WorkerPool` exactly as in
  :meth:`CompilationService.submit_many`.  The pool is therefore the
  single concurrency bound for compile work, shared with every other
  submission path.
* **Cache-first admission** — a job whose every request fingerprint is
  already cached completes at submission time without ever entering the
  queue (or touching the pool): 100%-hit work must not wait behind a
  backlog of cold compiles.
* **Load shedding** — ``max_queued`` bounds the queue; admission past
  the bound raises :class:`QueueFullError` carrying a ``retry_after``
  hint, which the HTTP layer turns into 503 + ``Retry-After`` (fully
  cached jobs still complete inline — shedding applies to *queued*
  work, not to free work).
* **Durability** — ``journal=`` attaches a :class:`~repro.service.
  journal.JobJournal` write-ahead log: every admission and transition
  is fsync'd to JSONL before it becomes observable, and a manager built
  over an existing journal re-queues every non-terminal job (original
  ids and priorities) before accepting new work.  Cache-first admission
  then keeps recovery cheap: already-cached fingerprints of an
  interrupted job resolve as hits, never duplicate compiles.
* **Duplicate-fingerprint dedup** — because jobs execute sequentially
  against one shared cache, two jobs carrying the same request
  fingerprint compile it once: the first job's miss warms the cache and
  the second job's occurrence resolves as a hit (the in-batch dedup of
  ``submit_many`` covers duplicates within one job).

Everything here is process-local; the HTTP layer in
:mod:`repro.service.server` exposes it remotely.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from .. import faults
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .api import CompileRequest, CompileResponse, ServiceError
from .journal import JobJournal
from .service import CompilationService

#: Version of the ``Job.to_dict`` wire schema.
JOB_SCHEMA_VERSION = 1

logger = logging.getLogger(__name__)


class QueueFullError(ServiceError):
    """Admission rejected: the job queue is at ``max_queued``.

    ``retry_after`` is the server's backoff hint in seconds (the HTTP
    layer sends it as the ``Retry-After`` header of the 503)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class JobStatus(enum.Enum):
    """Lifecycle states of a job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATUSES = frozenset(
    {JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED}
)


@dataclass
class Job:
    """One asynchronous batch submission and its lifecycle state."""

    id: int
    requests: List[CompileRequest]
    fingerprints: List[str]
    priority: int = 0
    status: JobStatus = JobStatus.QUEUED
    created_seconds: float = field(default_factory=time.time)
    started_seconds: Optional[float] = None
    finished_seconds: Optional[float] = None
    responses: Optional[List[CompileResponse]] = None
    error: Optional[str] = None

    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.status in TERMINAL_STATUSES

    def to_dict(self, include_responses: bool = True) -> Dict[str, object]:
        """Canonical wire form; responses ride along only when present
        (terminal ``done`` jobs) and requested."""
        payload: Dict[str, object] = {
            "schema": JOB_SCHEMA_VERSION,
            "type": "Job",
            "id": self.id,
            "status": self.status.value,
            "priority": self.priority,
            "request_count": len(self.requests),
            "request_fingerprints": list(self.fingerprints),
            "created_seconds": self.created_seconds,
            "started_seconds": self.started_seconds,
            "finished_seconds": self.finished_seconds,
            "error": self.error,
            "responses": None,
        }
        if include_responses and self.responses is not None:
            payload["responses"] = [r.to_dict() for r in self.responses]
        return payload

    def __repr__(self) -> str:
        return (f"Job(id={self.id}, {self.status.value}, "
                f"priority={self.priority}, requests={len(self.requests)})")


class JobManager:
    """Priority queue of compilation jobs over one shared service.

    ``start=True`` (the default) spawns the daemon executor thread;
    ``start=False`` leaves the queue passive so callers (tests, batch
    drivers) step it deterministically with :meth:`run_next`.

    ``journal`` (a path or a :class:`JobJournal`) makes the queue
    durable: existing records are replayed *before* the executor starts,
    re-queueing every non-terminal job, and the file is compacted to the
    survivors.  ``max_queued`` bounds the queue (load shedding — see the
    module docstring); ``None`` keeps it unbounded.
    """

    def __init__(self, service: Optional[CompilationService] = None,
                 start: bool = True,
                 journal: Union[JobJournal, str, Path, None] = None,
                 max_queued: Optional[int] = None) -> None:
        if max_queued is not None and max_queued < 1:
            raise ValueError("max_queued must be positive (or None)")
        self.service = service if service is not None else CompilationService()
        self.journal = JobJournal(journal) \
            if isinstance(journal, (str, Path)) else journal
        self.max_queued = max_queued
        self.recovered_jobs = 0  # guarded-by: _lock, _wake
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._jobs: Dict[int, Job] = {}  # guarded-by: _lock, _wake
        self._heap: List[tuple] = []  # (-priority, id): max-priority, FIFO ties; guarded-by: _lock, _wake
        self._ids = itertools.count(1)  # guarded-by: _lock, _wake
        self._closed = False  # guarded-by: _lock, _wake
        self._thread: Optional[threading.Thread] = None  # guarded-by: _lock, _wake
        if self.journal is not None:
            self._recover()
        if start:
            self.start()

    # -- submission ------------------------------------------------------------

    def submit(self, requests: Iterable[CompileRequest],
               priority: int = 0) -> Job:
        """Admit a batch as one job; returns it immediately.

        Raises :class:`ServiceError` for an empty batch; device and spec
        problems surface here too (computing the fingerprints validates
        both), so a job that enters the queue can only fail on genuine
        compile errors.  Raises :class:`QueueFullError` when ``max_queued``
        jobs are already waiting (fully cached jobs are exempt — they
        never enter the queue).  A fully cached job completes inline —
        see "cache-first admission" in the module docstring.
        """
        requests = list(requests)
        if not requests:
            raise ServiceError("a job needs at least one request")
        fingerprints = [request.fingerprint() for request in requests]
        inline = self._all_cached(fingerprints)
        # One critical section for the closed-check, registration, and
        # queue insertion: a shutdown() can then only land entirely before
        # (submission rejected) or entirely after (job queued while the
        # executor was still alive) — never between, which would strand a
        # registered job in a queue nobody drains.  The journal append
        # (write-ahead: before the job becomes observable) sits inside the
        # same section so journal order is admission order.
        with self._wake:
            if self._closed:
                raise ServiceError("JobManager was shut down")
            if not inline and self.max_queued is not None \
                    and self._queued_count() >= self.max_queued:
                raise QueueFullError(
                    f"job queue is full ({self.max_queued} queued); "
                    "retry after the backlog drains",
                    retry_after=1.0,
                )
            job = Job(id=next(self._ids), requests=requests,
                      fingerprints=fingerprints, priority=priority)
            if self.journal is not None:
                self.journal.record_submit(job)
            if inline:
                # Registered already RUNNING: the job is never observable
                # as QUEUED, so a concurrent cancel is the documented
                # running-job no-op rather than a race.
                job.status = JobStatus.RUNNING
                job.started_seconds = time.time()
            self._jobs[job.id] = job
            if not inline:
                heapq.heappush(self._heap, (-priority, job.id))
                self._wake.notify_all()
            self._note_transition(job)
        if inline:
            self._execute(job)  # all hits: resolves without the pool
        return job

    def _queued_count(self) -> int:  # requires-lock: _lock
        """Jobs currently waiting in the queue (heap minus cancelled)."""
        return sum(1 for _, job_id in self._heap
                   if self._jobs[job_id].status is JobStatus.QUEUED)

    def _note_transition(self, job: Job) -> None:  # requires-lock: _lock
        """Mirror one status transition into the armed metrics registry;
        must be called with the manager lock held (reads the queue)."""
        if obs_metrics._ACTIVE is None:
            return
        obs_metrics.JOBS_TRANSITIONS.inc(status=job.status.value)
        obs_metrics.JOBS_QUEUE_DEPTH.set(self._queued_count())

    def _all_cached(self, fingerprints: List[str]) -> bool:
        """True when every fingerprint has a *servable* cache entry.

        Peeking (no stats, no LRU promotion) keeps the admission probe
        invisible in hit rates; requiring servability keeps a corrupt
        disk entry — a miss by the cache's own contract — from pulling a
        full cold compile onto the submitter's thread.  An entry the
        service already verified costs a memo lookup; any other entry is
        decoded in full, and a memory-tier one is verified for the
        ``submit_many`` that follows.
        """
        if getattr(self.service, "cache", None) is None:
            return False
        return all(map(self.service.servable, fingerprints))

    # -- inspection ------------------------------------------------------------

    def get(self, job_id: int) -> Job:
        """The job with ``job_id`` (KeyError if unknown)."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        """Every known job, in id (admission) order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def counts(self) -> Dict[str, int]:
        """``{status value: job count}`` over every known job."""
        with self._lock:
            counts = {status.value: 0 for status in JobStatus}
            for job in self._jobs.values():
                counts[job.status.value] += 1
            return counts

    def rollup(self) -> Dict[str, object]:
        """Aggregates over every known job, for ``/v1/healthz``:
        request/response volumes, cache hits vs misses across completed
        jobs, queue depth, and mean queue-wait / run times."""
        with self._lock:
            jobs = list(self._jobs.values())
            queued = self._queued_count()
            recovered = self.recovered_jobs
        requests = sum(len(job.requests) for job in jobs)
        hits = misses = 0
        waits: List[float] = []
        runs: List[float] = []
        for job in jobs:
            if job.responses is not None:
                for response in job.responses:
                    if response.cache_hit:
                        hits += 1
                    else:
                        misses += 1
            if job.started_seconds is not None:
                waits.append(job.started_seconds - job.created_seconds)
                if job.finished_seconds is not None:
                    runs.append(job.finished_seconds - job.started_seconds)
        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
        return {
            "jobs": len(jobs),
            "queue_depth": queued,
            "requests": requests,
            "responses": {"hits": hits, "misses": misses},
            "recovered_jobs": recovered,
            "mean_wait_seconds": mean(waits),
            "mean_run_seconds": mean(runs),
        }

    # -- lifecycle -------------------------------------------------------------

    def cancel(self, job_id: int) -> Job:
        """Cancel ``job_id`` if it is still queued.

        Running and terminal jobs are returned unchanged (the documented
        no-op); callers distinguish the outcomes by ``status``.
        """
        with self._wake:
            job = self._jobs[job_id]
            if job.status is JobStatus.QUEUED:
                job.status = JobStatus.CANCELLED
                job.finished_seconds = time.time()
                if self.journal is not None:
                    self.journal.record_status(job)
                self._note_transition(job)
                self._wake.notify_all()
            return job

    def run_next(self) -> Optional[Job]:
        """Run the highest-priority queued job to completion; ``None``
        when the queue holds no runnable job.  The executor thread's step
        function, also callable directly on a ``start=False`` manager."""
        job = self._claim()
        if job is None:
            return None
        self._execute(job)
        return job

    def _claim(self) -> Optional[Job]:
        with self._lock:
            while self._heap:
                _, job_id = heapq.heappop(self._heap)
                job = self._jobs[job_id]
                if job.status is not JobStatus.QUEUED:
                    continue  # cancelled while queued
                job.status = JobStatus.RUNNING
                job.started_seconds = time.time()
                self._note_transition(job)
                return job
            return None

    def _execute(self, job: Job) -> None:
        """Resolve one job through the service (no locks held while
        compiling; terminal state + wake-up under the lock)."""
        if job.started_seconds is None:
            job.started_seconds = time.time()
        if self.journal is not None:
            self.journal.record_status(job)  # running: marks the attempt
        if faults._ACTIVE is not None:
            point = faults.poll(faults.JOBS_EXECUTE)
            if point is not None and point.kind == faults.DELAY:
                time.sleep(point.seconds)
        try:
            with obs_trace.span("job.execute", job=job.id,
                                requests=len(job.requests)):
                responses = self.service.submit_many(job.requests)
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            status, responses = JobStatus.FAILED, None
            error: Optional[str] = f"{type(exc).__name__}: {exc}"
        else:
            status, error = JobStatus.DONE, None
        with self._wake:
            if not job.done():  # terminal states (cancelled) are final
                job.responses = responses
                job.error = error
                job.status = status
                job.finished_seconds = time.time()
                if self.journal is not None:
                    self.journal.record_status(job)
                self._note_transition(job)
            self._wake.notify_all()

    def wait(self, job_id: int, timeout: Optional[float] = None) -> Job:
        """Block until ``job_id`` reaches a terminal state.

        Raises ``TimeoutError`` after ``timeout`` seconds (``None`` waits
        forever) and ``KeyError`` for an unknown id.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._wake:
            while True:
                job = self._jobs[job_id]
                if job.done():
                    return job
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {job.status.value} "
                        f"after {timeout}s"
                    )
                self._wake.wait(remaining if remaining is not None else 0.5)

    # -- recovery --------------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal: re-queue every non-terminal job under its
        original id and priority, drop terminal ones, continue the id
        counter past everything seen, and compact the file.

        Runs from ``__init__`` before the executor thread exists; the
        lock is uncontended (and re-entrant), so holding it costs
        nothing and keeps the discipline uniform.  Jobs whose every
        fingerprint is already cached complete inline here (cache-first
        admission applies to recovered work too), so a restart never
        re-compiles what the cache kept.
        """
        inline_jobs: List[Job] = []
        with self._wake:
            max_id = 0
            for record in self.journal.replay():
                max_id = max(max_id, record["id"])
                if record["status"] not in ("queued", "running"):
                    continue  # terminal: nothing left to do
                try:
                    requests = [CompileRequest.from_dict(item)
                                for item in record["requests"]]
                except (KeyError, TypeError, ValueError) as exc:
                    logger.warning(
                        "journal: dropping unrecoverable job %s: %s",
                        record["id"], exc)
                    continue
                job = Job(id=record["id"], requests=requests,
                          fingerprints=list(record["fingerprints"]),
                          priority=record["priority"],
                          created_seconds=record["created_seconds"])
                self._jobs[job.id] = job
                if self._all_cached(job.fingerprints):
                    job.status = JobStatus.RUNNING
                    inline_jobs.append(job)
                else:
                    heapq.heappush(self._heap, (-job.priority, job.id))
                self.recovered_jobs += 1
            self._ids = itertools.count(max_id + 1)
            # Compact to the survivors *before* executing the inline
            # ones, so their terminal records land in the fresh file,
            # not the old one.
            self.journal.compact([self._jobs[job_id]
                                  for job_id in sorted(self._jobs)])
        for job in inline_jobs:
            self._execute(job)

    # -- executor thread -------------------------------------------------------

    def start(self) -> None:
        """Spawn the executor thread (idempotent)."""
        with self._lock:
            if self._thread is not None or self._closed:
                return
            self._thread = threading.Thread(
                target=self._drain, name="job-executor", daemon=True
            )
            self._thread.start()

    def _drain(self) -> None:
        while True:
            with self._wake:
                while not self._closed and not self._has_runnable():
                    self._wake.wait(0.5)
                if self._closed:
                    return
            self.run_next()

    def _has_runnable(self) -> bool:  # requires-lock: _lock
        return any(self._jobs[job_id].status is JobStatus.QUEUED
                   for _, job_id in self._heap)

    def shutdown(self, wait: bool = True, timeout: float = 60.0) -> bool:
        """Stop accepting jobs and stop the executor thread.

        A job mid-compile finishes (``wait=True`` joins the thread);
        queued jobs simply never run (with a journal attached they
        survive to the next start-up).  Returns ``True`` for a clean
        stop; ``False`` — with a warning naming the stuck job — when the
        join expired with the executor still compiling.
        """
        with self._wake:
            self._closed = True
            self._wake.notify_all()
            thread = self._thread
        clean = True
        if wait and thread is not None:
            thread.join(timeout=timeout)
            if thread.is_alive():
                clean = False
                with self._lock:
                    stuck = [job.id for job in self._jobs.values()
                             if job.status is JobStatus.RUNNING]
                logger.warning(
                    "JobManager.shutdown: executor still busy after %.0fs "
                    "(running job id%s: %s); thread leaked",
                    timeout, "s" if len(stuck) != 1 else "",
                    ", ".join(map(str, stuck)) or "unknown",
                )
        if self.journal is not None:
            self.journal.close()
        return clean

    def __repr__(self) -> str:
        counts = self.counts()
        busy = ", ".join(f"{status}={count}"
                         for status, count in counts.items() if count)
        return f"JobManager({busy or 'empty'})"
