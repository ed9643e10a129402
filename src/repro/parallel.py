"""Shared process-pool plumbing: the one fan-out every layer uses.

Everything that fans out over processes — the evaluation harness's
(tool, instance) grid, the compilation service's batch misses,
LightSABRE's best-of-k trial chunks and the SAT cubes of
cube-and-conquer — calls :func:`map_ordered` on the pool
:func:`borrow_pool` picks: a caller-shared :class:`WorkerPool` wins,
``workers > 1`` owns one for the call, otherwise the caller runs its
serial loop.  One pool shared by the harness and LightSABRE keeps every
core busy without nested pools or over-subscription, and amortises
worker start-up across a whole suite.

Self-healing
------------
A worker process dying (OOM-killed, segfaulted, fault-injected) breaks
the underlying :class:`~concurrent.futures.ProcessPoolExecutor` and fails
*every* in-flight future with :class:`BrokenExecutor` — historically
degrading a whole batch to serial after one casualty.  The pool now heals
itself: a task that fails at the executor level rebuilds the executor
(within a bounded ``respawn_budget``) and resubmits itself, so callers'
futures resolve normally and only the budget-exhausted tail ever sees
:data:`POOL_UNAVAILABLE_ERRORS`.  Tasks must therefore be **pure**
(deterministic functions of their arguments) — every in-repo submission
is — so a healed re-run is bit-identical to the first attempt.
Recoveries are counted in :meth:`WorkerPool.stats`.

An optional ``task_timeout`` bounds stragglers: a task not done after
that many seconds of running is re-run in the parent and its future
resolved with the parent's result.  A task's clock starts when a worker
is free to take it — at most ``workers`` clocks run at once, started in
submission order, the order the executor hands tasks to workers — so
time spent queued behind a straggler is never charged to the task.  The
stuck attempt's executor has its worker processes terminated and is
respawned, charged to ``respawn_budget`` like any other breakage;
sibling tasks that were running on it heal through the same respawn
path, and past the budget the pool degrades exactly as after a crash.
So neither a hung call nor :meth:`shutdown` waits on the abandoned
attempt.

The error contract is unchanged: anything raised from
:data:`POOL_UNAVAILABLE_ERRORS` means "the pool is gone, run this piece
of work serially"; exceptions raised *by the submitted function*
propagate unchanged.  :func:`map_ordered` re-runs either kind in the
parent, where a pool failure disappears and a task error recurs.

Fault injection: each :meth:`submit` is a ``pool.task`` site — an armed
:class:`repro.faults.FaultPlan` can replace the Nth submission with a
worker-process crash or stretch it with latency (see :mod:`repro.faults`).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import (BrokenExecutor, Future, ProcessPoolExecutor,
                                as_completed)
from contextlib import contextmanager
from typing import (Callable, Deque, Dict, Iterable, Iterator, List, Optional,
                    Set, Tuple)

from . import faults
from .obs import metrics as obs_metrics

#: Errors that mean "the pool itself is unavailable", as opposed to errors
#: raised by the submitted work.  ``BrokenProcessPool`` (a worker died) is a
#: subclass of ``BrokenExecutor``; ``OSError`` covers sandboxes where
#: forking processes is forbidden outright.
POOL_UNAVAILABLE_ERRORS = (OSError, BrokenExecutor)


def _exit_worker() -> None:
    """Injected ``pool.task`` crash: die the way a real casualty does —
    no exception, no cleanup, just a vanished process."""
    os._exit(1)


def _delay_call(seconds: float, fn: Callable, *args):
    """Injected ``pool.task`` latency: sleep in the worker, then run."""
    time.sleep(seconds)
    return fn(*args)


class _MeteredResult:
    """A task result with the worker's metric delta piggybacked on it."""

    __slots__ = ("value", "metrics")

    def __init__(self, value, metrics) -> None:
        self.value = value
        self.metrics = metrics


def _metered_call(fn: Callable, *args) -> _MeteredResult:
    """Worker-side wrapper: run ``fn`` and ship back the counters it
    accumulated.  Fork-started workers inherit the parent's armed
    registry (with the parent's totals baked in), so the delta is
    computed against a before-snapshot; in a spawn-started worker the
    registry is disarmed and the delta is ``None``."""
    registry = obs_metrics._ACTIVE
    if registry is None:
        return _MeteredResult(fn(*args), None)
    before = registry.snapshot()
    value = fn(*args)
    delta = obs_metrics.snapshot_delta(before, registry.snapshot())
    return _MeteredResult(value, delta or None)


class _Task:
    """One logical submission: the clean (fn, args) to retry with, plus
    the settle flag guarding its caller-visible future."""

    __slots__ = ("fn", "args", "attempts", "settled", "abandoned", "lock")

    def __init__(self, fn: Callable, args: Tuple) -> None:
        self.fn = fn
        self.args = args
        self.attempts = 0
        self.settled = False
        #: Set when a timeout hands the task to the parent: the worker
        #: attempt's outcome (result or breakage) is ignored from then on.
        self.abandoned = False
        self.lock = threading.Lock()


class _Clock:
    """The ``task_timeout`` clock of one worker attempt: queued until a
    worker is free to run the attempt, then a timer."""

    __slots__ = ("task", "outer", "generation", "processes", "timer")

    def __init__(self, task: _Task, outer: Future, generation: int,
                 processes: Dict[int, object]) -> None:
        self.task = task
        self.outer = outer
        self.generation = generation
        self.processes = processes
        self.timer: Optional[threading.Timer] = None


class WorkerPool:
    """Persistent, self-healing process pool shared across a suite.

    ``workers`` defaults to the host core count (``workers=0`` falls back
    the same way).  The underlying executor is created on first
    :meth:`submit` so constructing a pool is free, and is shut down by
    :meth:`shutdown` (or the context-manager exit).  A broken executor is
    rebuilt transparently up to ``respawn_budget`` times; past the
    budget — and after :meth:`shutdown` — submissions and futures raise
    one of :data:`POOL_UNAVAILABLE_ERRORS`, which callers treat as
    "degrade to serial for this piece of work".
    """

    def __init__(self, workers: Optional[int] = None,
                 respawn_budget: int = 2,
                 task_timeout: Optional[float] = None) -> None:
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        if respawn_budget < 0:
            raise ValueError("respawn_budget must be non-negative")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        self.workers = workers or os.cpu_count() or 1
        self.respawn_budget = respawn_budget
        self.task_timeout = task_timeout
        self._executor: Optional[ProcessPoolExecutor] = None  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._lock = threading.Lock()
        #: Bumped on every executor rebuild, so concurrent casualties of
        #: one broken executor consume a single respawn between them.
        self._generation = 0  # guarded-by: _lock
        self._respawns = 0  # guarded-by: _lock
        self._recovered_tasks = 0  # guarded-by: _lock
        self._timeout_reruns = 0  # guarded-by: _lock
        self._submitted = 0  # guarded-by: _lock
        #: task_timeout clocks: attempts waiting for a free worker, in
        #: submission order, and those whose timer is running.
        self._waiting: Deque[_Clock] = deque()  # guarded-by: _lock
        self._running: Set[_Clock] = set()  # guarded-by: _lock

    # -- submission ------------------------------------------------------------

    def submit(self, fn: Callable, *args) -> Future:
        """Schedule ``fn(*args)`` on the pool, creating it if needed.

        The returned future resolves with the task's result even if the
        worker running it dies (the task is re-run on a respawned
        executor); it raises :class:`BrokenExecutor` only once the
        respawn budget is exhausted or the pool was shut down.
        """
        task = _Task(fn, args)
        attempt: Optional[Tuple[Callable, Tuple]] = None
        if faults._ACTIVE is not None:
            point = faults.poll(faults.POOL_TASK)
            if point is not None:
                if point.kind == faults.CRASH:
                    attempt = (_exit_worker, ())
                elif point.kind == faults.DELAY:
                    attempt = (_delay_call, (point.seconds, fn) + args)
        if attempt is None and obs_metrics._ACTIVE is not None:
            # Metered attempt: the worker ships its counter deltas back
            # piggybacked on the result (unwrapped in ``_settle``).
            # Post-respawn retries and parent re-runs use the clean
            # payload and go unmetered — correctness over completeness.
            attempt = (_metered_call, (fn,) + args)
            obs_metrics.POOL_TASKS.inc()
        with self._lock:
            if self._closed:
                raise BrokenExecutor("WorkerPool was shut down")
            self._submitted += 1
        outer: Future = Future()
        outer.set_running_or_notify_cancel()
        self._start(task, outer, attempt)
        return outer

    def _start(self, task: _Task, outer: Future,
               attempt: Optional[Tuple[Callable, Tuple]] = None) -> None:
        """Submit one attempt of ``task``, respawning the executor as
        needed; resolves ``outer`` directly when the pool is gone."""
        while True:
            with self._lock:
                if self._closed:
                    self._settle(task, outer,
                                 error=BrokenExecutor("WorkerPool was "
                                                      "shut down"))
                    return
                generation = self._generation
                try:
                    if self._executor is None:
                        self._executor = ProcessPoolExecutor(
                            max_workers=self.workers)
                    inner = self._executor.submit(attempt[0], *attempt[1]) \
                        if attempt is not None \
                        else self._executor.submit(task.fn, *task.args)
                    # Python 3.11 has no public way to stop a running
                    # call (terminate_workers arrives in 3.14), so a
                    # straggler's timer keeps the executor's private
                    # ``_processes`` map (pid -> Process): the dict its
                    # manager thread watches, and the workers' only handle
                    # once the executor is shut down with wait=False
                    # (which drops the attribute, hence read it here).
                    processes = self._executor._processes
                except BrokenExecutor:
                    inner = None
                except OSError as exc:
                    # Cannot fork at all: the pool is unavailable, not
                    # broken — no respawn will help.
                    self._settle(task, outer, error=exc)
                    return
            if inner is not None:
                break
            # Broken at submission time: burn one respawn and retry with
            # the clean payload (an injected crash fires at most once).
            attempt = None
            if not self._respawn(generation):
                self._settle(task, outer,
                             error=BrokenExecutor(
                                 "worker pool broke and its respawn budget "
                                 f"({self.respawn_budget}) is exhausted"))
                return
        task.attempts += 1
        clock = None
        if self.task_timeout is not None:
            clock = _Clock(task, outer, generation, processes)
            with self._lock:
                self._waiting.append(clock)
                self._start_clocks()
        inner.add_done_callback(
            lambda f: self._on_done(task, outer, f, generation, clock))

    def _start_clocks(self) -> None:  # requires-lock: _lock
        """Start the timers of waiting attempts while a worker is free.

        ``future.running()`` cannot say when a worker took an attempt:
        the executor marks futures running as it queues them to its
        workers.  Free worker slots can: the executor hands queued calls
        to workers in submission order."""
        if self._closed:
            return
        while self._waiting and len(self._running) < self.workers:
            clock = self._waiting.popleft()
            if clock.generation != self._generation:
                continue  # its executor is gone; the attempt resubmits
            clock.timer = threading.Timer(self.task_timeout,
                                          self._rerun_in_parent, (clock,))
            clock.timer.daemon = True
            self._running.add(clock)
            clock.timer.start()

    def _stop_clock(self, clock: _Clock) -> None:  # requires-lock: _lock
        if clock.timer is not None:
            clock.timer.cancel()
            self._running.discard(clock)
        elif clock in self._waiting:
            self._waiting.remove(clock)
        self._start_clocks()

    # -- recovery --------------------------------------------------------------

    def _on_done(self, task: _Task, outer: Future, inner: Future,
                 generation: int, clock: Optional[_Clock]) -> None:
        if clock is not None:
            with self._lock:
                self._stop_clock(clock)
        with task.lock:
            if task.settled or task.abandoned:
                return  # a timeout re-run owns the future
        exc = inner.exception()
        if exc is None:
            self._settle(task, outer, value=inner.result())
            return
        # Deliberately unlocked peek: a stale read only costs one extra
        # _respawn call, which re-checks _closed under the lock.
        if isinstance(exc, BrokenExecutor) and not self._closed:  # repro-lint: disable=lock-discipline
            # Executor-level casualty, not a task error: heal and retry.
            if self._respawn(generation):
                with self._lock:
                    self._recovered_tasks += 1
                if obs_metrics._ACTIVE is not None:
                    obs_metrics.POOL_RECOVERED_TASKS.inc()
                self._start(task, outer)
                return
        self._settle(task, outer, error=exc)

    def _respawn(self, generation: int) -> bool:
        """Replace a broken executor (once per generation, budget
        permitting).  True when the caller should resubmit its task."""
        with self._lock:
            if self._closed:
                return False
            if generation == self._generation:
                # First casualty of this executor: this one pays.
                if self._respawns >= self.respawn_budget:
                    return False
                stale = self._executor
                self._executor = None
                self._generation += 1
                self._respawns += 1
                if obs_metrics._ACTIVE is not None:
                    obs_metrics.POOL_RESPAWNS.inc()
            else:
                # A sibling already respawned for this breakage; resubmit
                # onto the current executor (if that one is broken too,
                # the resubmission loops back here with its generation).
                stale = None
        if stale is not None:
            stale.shutdown(wait=False)
        return True

    def _rerun_in_parent(self, clock: _Clock) -> None:
        """Straggler path: the worker attempt is abandoned, the executor
        it ran on loses its worker processes and is respawned (charged to
        the budget; past it the pool degrades as after a crash), and the
        task runs here, in the parent."""
        task, outer = clock.task, clock.outer
        with self._lock:
            if self._closed or clock not in self._running:
                return  # shut down, or the attempt finished meanwhile
            with task.lock:
                if task.settled:
                    return
                task.abandoned = True
            self._timeout_reruns += 1
            self._running.discard(clock)
        if obs_metrics._ACTIVE is not None:
            obs_metrics.POOL_TIMEOUT_RERUNS.inc()
        for process in list(clock.processes.values()):
            process.terminate()
        self._respawn(clock.generation)
        with self._lock:
            self._start_clocks()
        try:
            value = task.fn(*task.args)
        except BaseException as exc:  # noqa: BLE001 - mirrors worker behaviour
            self._settle(task, outer, error=exc)
        else:
            self._settle(task, outer, value=value)

    @staticmethod
    def _settle(task: _Task, outer: Future, value=None,
                error: Optional[BaseException] = None) -> None:
        with task.lock:
            if task.settled:
                return
            task.settled = True
        if error is not None:
            outer.set_exception(error)
            return
        if isinstance(value, _MeteredResult):
            obs_metrics.merge_active(value.metrics)
            value = value.value
        outer.set_result(value)

    # -- lifecycle / introspection ---------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Health counters: submissions, respawns consumed/remaining,
        tasks recovered across a respawn, straggler re-runs."""
        with self._lock:
            return {
                "workers": self.workers,
                "submitted": self._submitted,
                "respawns": self._respawns,
                "respawn_budget": self.respawn_budget,
                "recovered_tasks": self._recovered_tasks,
                "timeout_reruns": self._timeout_reruns,
                "closed": self._closed,
            }

    def shutdown(self) -> None:
        """Stop the workers; the pool cannot be reused afterwards."""
        with self._lock:
            self._closed = True
            executor = self._executor
            self._executor = None
            timers = [clock.timer for clock in self._running]
            self._running.clear()
            self._waiting.clear()
        for timer in timers:
            timer.cancel()
        if executor is not None:
            executor.shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = ("closed" if self._closed
                 else "live" if self._executor is not None else "idle")
        return (f"WorkerPool(workers={self.workers}, {state}, "
                f"respawns={self._respawns}/{self.respawn_budget})")


@contextmanager
def borrow_pool(pool, workers: Optional[int]
                ) -> Iterator[Optional[WorkerPool]]:
    """The pool a fan-out runs on: a shared ``pool`` wins; otherwise
    ``workers > 1`` owns a fresh :class:`WorkerPool`, shut down when the
    block exits; otherwise ``None`` (the caller runs serially)."""
    if pool is not None or workers is None or workers <= 1:
        yield pool
        return
    with WorkerPool(workers) as owned:
        yield owned


def map_ordered(pool, fn: Callable, arg_tuples: Iterable[Tuple],
                on_result: Optional[Callable[[int, object], None]] = None,
                stop: Optional[Callable[[object], bool]] = None,
                ) -> Tuple[List[object], int]:
    """Run ``fn(*args)`` for every tuple on ``pool``; the one fan-out.

    Returns ``(results in submission order, fallbacks)``.  ``pool`` is
    anything with ``submit`` and ``workers``; ``pool.submit`` is called
    once per task, and ``arg_tuples`` is drained before the first wait,
    so a generator can do parent-side work after its last task is queued.
    ``on_result(index, result)`` fires in this thread as each task lands.

    A task that fails on the worker side — the pool broke or is gone, its
    arguments cannot be pickled, or ``fn`` raised — is re-run once in the
    parent after every survivor is collected: what the re-run raises
    propagates unchanged, and each re-run that returns is a fallback
    (``repro_pool_fallbacks_total``).  ``stop(result)`` ends the map at
    the lowest index whose result it accepts, once every lower index has
    a result; ``results`` is then that prefix and later tasks are
    abandoned.
    """
    tasks: List[Tuple] = []
    futures: Dict[Future, int] = {}
    casualties: List[int] = []
    for index, args in enumerate(arg_tuples):
        tasks.append(args)
        try:
            futures[pool.submit(fn, *args)] = index
        except Exception:  # noqa: BLE001 - pool gone or args unpicklable
            casualties.append(index)
    results: List[object] = [None] * len(tasks)
    waiting = set(futures.values())
    cut = len(tasks)  # lowest index ``stop`` accepted so far

    def land(index: int, value: object) -> bool:
        results[index] = value
        if on_result is not None:
            on_result(index, value)
        return stop is not None and stop(value)

    for future in as_completed(futures):
        index = futures[future]
        waiting.discard(index)
        try:
            value = future.result()
        except Exception:  # noqa: BLE001 - re-run in the parent below
            casualties.append(index)
        else:
            if land(index, value):
                cut = min(cut, index)
        if stop is not None and all(other > cut for other in waiting):
            break

    fallbacks = 0
    for index in sorted(casualties):
        if index > cut:
            break
        value = fn(*tasks[index])
        fallbacks += 1
        if obs_metrics._ACTIVE is not None:
            obs_metrics.POOL_FALLBACKS.inc()
        if land(index, value):
            cut = index
            break
    return (results if cut == len(tasks) else results[:cut + 1]), fallbacks
