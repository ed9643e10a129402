"""WorkerPool: self-healing, respawn budget, timeouts, and edge cases.

Worker crashes are injected through the ``pool.task`` fault site (the
worker ``os._exit``\\ s, exactly like an OOM kill), so every recovery
path here exercises the same machinery production failures would.
"""

import os
import threading
import time

import pytest
from concurrent.futures import BrokenExecutor, Future

from repro import faults
from repro.faults import FaultPlan
from repro.obs import metrics as obs_metrics
from repro.parallel import (POOL_UNAVAILABLE_ERRORS, WorkerPool, borrow_pool,
                            map_ordered)


def _square(x):
    return x * x


def _echo(x):
    return x


def _type_name(x):
    return type(x).__name__


def _fail_on_two(x):
    if x == 2:
        raise ValueError(f"task {x} is bad")
    return x


def _sleep_unless_parent(parent_pid, seconds, value):
    """Sleep only when running in a worker process — the parent-side
    timeout re-run of the same task returns immediately."""
    if os.getpid() != parent_pid:
        time.sleep(seconds)
    return value


def _pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


def _stall_first_attempt(flag, value):
    """Stall only on the attempt that creates ``flag``; a retry returns."""
    if not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(30)
    return value


class TestConstruction:
    def test_workers_zero_falls_back_to_cpu_count(self):
        pool = WorkerPool(workers=0)
        assert pool.workers == (os.cpu_count() or 1)
        pool.shutdown()

    def test_workers_none_falls_back_to_cpu_count(self):
        pool = WorkerPool()
        assert pool.workers == (os.cpu_count() or 1)
        pool.shutdown()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            WorkerPool(workers=-1)

    def test_negative_respawn_budget_rejected(self):
        with pytest.raises(ValueError, match="respawn_budget"):
            WorkerPool(respawn_budget=-1)

    def test_nonpositive_task_timeout_rejected(self):
        with pytest.raises(ValueError, match="task_timeout"):
            WorkerPool(task_timeout=0)

    def test_construction_is_lazy(self):
        pool = WorkerPool(workers=2)
        assert pool._executor is None  # no processes until first submit
        pool.shutdown()


class TestLifecycle:
    def test_submit_after_shutdown_raises_pool_unavailable(self):
        pool = WorkerPool(workers=1)
        pool.shutdown()
        with pytest.raises(POOL_UNAVAILABLE_ERRORS, match="shut down"):
            pool.submit(_square, 3)

    def test_context_manager_shuts_down(self):
        with WorkerPool(workers=1) as pool:
            assert pool.submit(_square, 4).result(timeout=60) == 16
        assert pool.stats()["closed"]

    def test_stats_shape(self):
        with WorkerPool(workers=1, respawn_budget=3) as pool:
            stats = pool.stats()
        assert stats["respawn_budget"] == 3
        assert {"workers", "submitted", "respawns", "recovered_tasks",
                "timeout_reruns", "closed"} <= set(stats)


class TestSelfHealing:
    def test_crash_mid_batch_recovers_every_result(self):
        with WorkerPool(workers=1, respawn_budget=2) as pool:
            with faults.injected(FaultPlan.from_spec("pool.task:crash@2")):
                futures = [pool.submit(_square, n) for n in range(6)]
                results = [f.result(timeout=120) for f in futures]
        assert results == [n * n for n in range(6)]
        stats = pool.stats()
        assert stats["respawns"] == 1
        assert stats["recovered_tasks"] >= 1  # at least the crashed task

    def test_budget_exhaustion_degrades_to_pool_unavailable(self):
        with WorkerPool(workers=1, respawn_budget=0) as pool:
            with faults.injected(FaultPlan.from_spec("pool.task:crash@1")):
                future = pool.submit(_square, 2)
                with pytest.raises(POOL_UNAVAILABLE_ERRORS):
                    future.result(timeout=120)
            # the pool stays unavailable, callers degrade to serial
            survivor = pool.submit(_square, 3)
            with pytest.raises(POOL_UNAVAILABLE_ERRORS):
                survivor.result(timeout=120)

    def test_harness_survives_budget_exhaustion_serially(self, grid33):
        """evaluate()'s existing POOL_UNAVAILABLE_ERRORS fallback contract:
        a dead pool degrades the affected pairs to parent re-runs with
        records identical to a serial run."""
        from repro.evalx.harness import evaluate
        from repro.pipeline import PipelineTool, build_pipeline
        from repro.qubikos import generate

        instances = [generate(grid33, num_swaps=2, num_two_qubit_gates=16,
                              seed=130 + k) for k in range(2)]
        tools = [PipelineTool(build_pipeline("sabre", seed=3))]
        with WorkerPool(workers=1, respawn_budget=0) as pool:
            with faults.injected(FaultPlan.from_spec("pool.task:crash@1")):
                run = evaluate(tools, instances, pool=pool)
        serial = evaluate(tools, instances)
        assert [r.result_key() for r in run.records] == \
            [r.result_key() for r in serial.records]

    def test_injected_crash_fires_once_not_on_the_retry(self):
        """The retry resubmits the clean payload: with budget available a
        crash@N plan costs one respawn, not an infinite crash loop."""
        with WorkerPool(workers=1, respawn_budget=1) as pool:
            with faults.injected(FaultPlan.from_spec("pool.task:crash@1")):
                assert pool.submit(_square, 7).result(timeout=120) == 49
        assert pool.stats()["respawns"] == 1


class TestTaskTimeout:
    def test_straggler_reruns_in_parent(self):
        """The stuck worker is terminated and respawned (one respawn), so
        neither the future nor shutdown waits out the 30 s call."""
        started = time.monotonic()
        with WorkerPool(workers=1, task_timeout=0.5) as pool:
            future = pool.submit(_sleep_unless_parent, os.getpid(), 30, "ok")
            assert future.result(timeout=120) == "ok"
            # the respawned executor serves the next task normally
            assert pool.submit(_square, 4).result(timeout=120) == 16
        assert time.monotonic() - started < 5
        stats = pool.stats()
        assert stats["timeout_reruns"] == 1
        assert stats["respawns"] == 1

    def test_sibling_on_the_stuck_executor_heals(self, tmp_path):
        """Terminating the straggler's executor kills a sibling mid-call;
        the sibling recovers through the respawn path (no second respawn)
        instead of failing.  It is submitted 0.6 s later, so its own timer
        is still 0.6 s away when the straggler's fires."""
        started = time.monotonic()
        with WorkerPool(workers=2, task_timeout=1.0) as pool:
            stuck = pool.submit(_sleep_unless_parent, os.getpid(), 30, "ok")
            time.sleep(0.6)
            sibling = pool.submit(_stall_first_attempt,
                                  str(tmp_path / "flag"), "sib")
            assert stuck.result(timeout=120) == "ok"
            assert sibling.result(timeout=120) == "sib"
        assert time.monotonic() - started < 5
        stats = pool.stats()
        assert stats["respawns"] == 1
        assert stats["recovered_tasks"] == 1
        assert stats["timeout_reruns"] == 1

    def test_queued_task_clock_starts_when_a_worker_is_free(self):
        """A task queued behind a straggler is not charged for the wait:
        only the straggler times out, and the queued task — healed off
        the straggler's terminated executor — runs on the respawned one
        instead of being re-run in the parent as a second straggler."""
        parent = os.getpid()
        started = time.monotonic()
        with WorkerPool(workers=1, task_timeout=1.0) as pool:
            first_worker = pool.submit(_pid_after, 0).result(timeout=120)
            stuck = pool.submit(_sleep_unless_parent, parent, 3, "slow")
            queued = pool.submit(_pid_after, 0.1)
            assert stuck.result(timeout=120) == "slow"
            served_by = queued.result(timeout=120)
        assert time.monotonic() - started < 6
        assert served_by not in (parent, first_worker)
        stats = pool.stats()
        assert stats["timeout_reruns"] == 1
        assert stats["respawns"] == 1
        assert stats["recovered_tasks"] == 1

    def test_straggler_past_the_budget_still_frees_its_worker(self):
        """No respawn left: the worker is still terminated (shutdown does
        not wait out the call) and the pool degrades exactly as after a
        crash with the budget exhausted."""
        started = time.monotonic()
        with WorkerPool(workers=1, respawn_budget=0, task_timeout=0.5) as pool:
            future = pool.submit(_sleep_unless_parent, os.getpid(), 30, "ok")
            assert future.result(timeout=120) == "ok"
            survivor = pool.submit(_square, 3)
            with pytest.raises(POOL_UNAVAILABLE_ERRORS):
                survivor.result(timeout=120)
        assert time.monotonic() - started < 5
        stats = pool.stats()
        assert stats["timeout_reruns"] == 1
        assert stats["respawns"] == 0

    def test_fast_tasks_never_hit_the_timer(self):
        with WorkerPool(workers=1, task_timeout=60) as pool:
            assert pool.submit(_square, 5).result(timeout=120) == 25
        assert pool.stats()["timeout_reruns"] == 0


class _ScriptedPool:
    """A pool with only ``submit``/``workers``: task ``i`` runs ``fn`` on a
    timer thread after ``delays[i]`` seconds, or fails with ``errors[i]``
    without running."""

    workers = 2

    def __init__(self, delays=None, errors=None):
        self.delays = delays or {}
        self.errors = errors or {}
        self.submitted = []

    def submit(self, fn, *args):
        index = len(self.submitted)
        self.submitted.append(args)
        future = Future()

        def resolve():
            if index in self.errors:
                future.set_exception(self.errors[index])
                return
            try:
                future.set_result(fn(*args))
            except Exception as exc:  # noqa: BLE001 - ship it like a worker
                future.set_exception(exc)

        timer = threading.Timer(self.delays.get(index, 0.0), resolve)
        timer.daemon = True
        timer.start()
        return future


def _fallbacks_counted(registry):
    return registry.counter("repro_pool_fallbacks_total").total()


class TestMapOrdered:
    def test_submission_order_under_out_of_order_completion(self):
        pool = _ScriptedPool(delays={0: 0.3, 1: 0.2, 2: 0.1, 3: 0.0})
        landed = []
        results, fallbacks = map_ordered(
            pool, _square, [(n,) for n in range(4)],
            on_result=lambda index, value: landed.append(index))
        assert results == [0, 1, 4, 9]
        assert landed == [3, 2, 1, 0]
        assert fallbacks == 0

    def test_on_result_fires_once_per_task(self):
        pool = _ScriptedPool(errors={2: BrokenExecutor("worker killed")})
        landed = []
        results, _ = map_ordered(
            pool, _square, [(n,) for n in range(5)],
            on_result=lambda index, value: landed.append((index, value)))
        assert sorted(landed) == [(n, n * n) for n in range(5)]
        assert results == [n * n for n in range(5)]

    def test_casualties_rerun_after_survivors(self):
        pool = _ScriptedPool(delays={0: 0.0, 2: 0.1, 3: 0.2},
                             errors={1: BrokenExecutor("worker killed")})
        landed = []
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.enabled(registry):
            results, fallbacks = map_ordered(
                pool, _square, [(n,) for n in range(4)],
                on_result=lambda index, value: landed.append(index))
        assert landed == [0, 2, 3, 1]
        assert results == [0, 1, 4, 9]
        assert fallbacks == 1
        assert _fallbacks_counted(registry) == 1

    def test_unpicklable_argument_rescued_in_parent(self):
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.enabled(registry), WorkerPool(workers=1) as pool:
            results, fallbacks = map_ordered(
                pool, _type_name, [(3,), (threading.Lock(),), ("x",)])
        assert results == ["int", "lock", "str"]
        assert fallbacks == 1
        assert _fallbacks_counted(registry) == 1

    def test_raising_fn_propagates_without_fallback(self):
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.enabled(registry), WorkerPool(workers=1) as pool:
            with pytest.raises(ValueError, match="task 2 is bad"):
                map_ordered(pool, _fail_on_two, [(n,) for n in range(4)])
        assert _fallbacks_counted(registry) == 0

    def test_stop_ends_at_lowest_stopping_index(self):
        # Index 3 stops first, index 1 later; the slow index 4 is never
        # waited for.
        pool = _ScriptedPool(delays={0: 0.1, 1: 0.2, 2: 0.15, 3: 0.0,
                                     4: 5.0})
        landed = []
        started = time.perf_counter()
        results, fallbacks = map_ordered(
            pool, _echo, [(v,) for v in (0, 7, 3, 9, 8)],
            on_result=lambda index, value: landed.append(index),
            stop=lambda value: value > 5)
        assert time.perf_counter() - started < 4.0
        assert results == [0, 7]
        assert 4 not in landed
        assert fallbacks == 0

    def test_stop_in_parent_rerun_lowers_the_cut(self):
        pool = _ScriptedPool(errors={0: BrokenExecutor("worker killed")})
        results, fallbacks = map_ordered(pool, _echo, [(8,), (7,), (6,)],
                                         stop=lambda value: value > 5)
        assert results == [8]
        assert fallbacks == 1

    def test_pool_with_only_submit_and_workers(self):
        class DeadPool:
            workers = 2

            def __init__(self):
                self.calls = 0

            def submit(self, fn, *args):
                self.calls += 1
                raise BrokenExecutor("pool is gone")

        pool = DeadPool()
        results, fallbacks = map_ordered(pool, _square,
                                         [(n,) for n in range(3)])
        assert results == [0, 1, 4]
        assert fallbacks == 3
        assert pool.calls == 3

    def test_generator_tail_runs_after_every_task_is_queued(self):
        pool = _ScriptedPool(delays={0: 0.2, 1: 0.2})
        seen = []

        def tasks():
            yield (1,)
            yield (2,)
            seen.append(len(pool.submitted))

        results, _ = map_ordered(pool, _square, tasks())
        assert seen == [2]
        assert results == [1, 4]

    def test_injected_crash_heals_without_fallback(self):
        with WorkerPool(workers=1, respawn_budget=1) as pool:
            with faults.injected(FaultPlan.from_spec("pool.task:crash@2")):
                results, fallbacks = map_ordered(
                    pool, _square, [(n,) for n in range(4)])
        assert results == [0, 1, 4, 9]
        assert fallbacks == 0
        assert pool.stats()["submitted"] == 4


class TestBorrowPool:
    def test_shared_pool_wins_and_stays_open(self):
        with WorkerPool(workers=1) as shared:
            with borrow_pool(shared, workers=4) as pool:
                assert pool is shared
            assert not shared.stats()["closed"]

    def test_workers_above_one_owns_a_pool(self):
        with borrow_pool(None, workers=2) as pool:
            assert isinstance(pool, WorkerPool) and pool.workers == 2
        assert pool.stats()["closed"]

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_without_pool_or_workers(self, workers):
        with borrow_pool(None, workers) as pool:
            assert pool is None
