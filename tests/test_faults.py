"""Deterministic fault injection: plan parsing, occurrence counting,
arming, and reproducibility."""

import errno

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultPoint
from repro.parallel import WorkerPool
from repro.service import (
    CompilationService,
    CompileRequest,
    JobManager,
    ResultCache,
    ServiceClient,
    ServiceServer,
)


class TestFaultPoint:
    def test_defaults_fire_on_first_occurrence_only(self):
        point = FaultPoint(site=faults.POOL_TASK, kind=faults.CRASH)
        assert point.fires_at(1)
        assert not point.fires_at(2)

    def test_count_covers_consecutive_occurrences(self):
        point = FaultPoint(site=faults.HTTP_REQUEST, kind=faults.RESET,
                           at=3, count=2)
        assert [point.fires_at(n) for n in range(1, 6)] == \
            [False, False, True, True, False]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPoint(site=faults.POOL_TASK, kind="meltdown")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site 'pool.taks'"):
            FaultPoint(site="pool.taks", kind=faults.CRASH)

    def test_occurrence_indexes_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultPoint(site=faults.POOL_TASK, kind=faults.CRASH, at=0)

    def test_os_error_carries_errno_and_injection_marker(self):
        point = FaultPoint(site=faults.CACHE_DISK_READ, kind=faults.OS_ERROR,
                           errno_code=errno.ENOSPC)
        exc = point.os_error()
        assert exc.errno == errno.ENOSPC
        assert "[injected fault]" in str(exc)


class TestSpecGrammar:
    def test_round_trip(self):
        spec = ("seed=7; pool.task:crash@2; "
                "cache.disk_read:os_error@1:errno=28; "
                "http.request:reset@1x2; client.request:delay@3:seconds=0.05")
        plan = FaultPlan.from_spec(spec)
        assert plan.seed == 7
        assert len(plan.points) == 4
        assert FaultPlan.from_spec(plan.spec()).spec() == plan.spec()

    def test_params_parse(self):
        plan = FaultPlan.from_spec("cache.disk_read:os_error@2:errno=5")
        (point,) = plan.points
        assert (point.at, point.errno_code) == (2, errno.EIO)

    def test_range_form_is_seed_deterministic(self):
        picks = {FaultPlan.from_spec("seed=11; pool.task:crash@1-100")
                 .points[0].at for _ in range(5)}
        assert len(picks) == 1  # same seed, same draw
        other = FaultPlan.from_spec("seed=12; pool.task:crash@1-100") \
            .points[0].at
        assert 1 <= other <= 100

    def test_malformed_segment_rejected(self):
        with pytest.raises(ValueError, match="malformed fault segment"):
            FaultPlan.from_spec("pool.task.crash")

    def test_unknown_site_in_spec_rejected(self):
        with pytest.raises(ValueError, match=r"segment 'pool\.taks:crash@1'"
                                             r".*unknown fault site"):
            FaultPlan.from_spec("seed=1; pool.taks:crash@1")

    def test_bad_number_names_its_segment(self):
        with pytest.raises(ValueError, match="segment 'pool.task:crash@two'"):
            FaultPlan.from_spec("pool.task:crash@two")

    def test_malformed_param_rejected(self):
        with pytest.raises(ValueError, match="malformed fault param"):
            FaultPlan.from_spec("pool.task:delay@1:seconds")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(faults.ENV_VAR, "seed=3; pool.task:crash@1")
        plan = FaultPlan.from_env()
        assert plan.seed == 3 and len(plan.points) == 1


class TestPolling:
    def test_poll_counts_per_site_and_logs_fires(self):
        plan = FaultPlan.from_spec("pool.task:crash@2")
        assert plan.poll(faults.POOL_TASK) is None
        fired = plan.poll(faults.POOL_TASK)
        assert fired is not None and fired.kind == faults.CRASH
        assert plan.poll(faults.POOL_TASK) is None
        assert plan.poll(faults.HTTP_REQUEST) is None  # independent counter
        assert plan.fired() == [(faults.POOL_TASK, faults.CRASH, 2)]
        assert plan.counts() == {faults.POOL_TASK: 3, faults.HTTP_REQUEST: 1}

    def test_reset_replays_identically(self):
        plan = FaultPlan.from_spec("pool.task:crash@2x2")
        first = [plan.poll(faults.POOL_TASK) is not None for _ in range(4)]
        plan.reset()
        second = [plan.poll(faults.POOL_TASK) is not None for _ in range(4)]
        assert first == second == [False, True, True, False]


class TestArming:
    def test_disarmed_is_inert(self):
        faults.disarm()
        assert faults.active() is None
        assert faults._ACTIVE is None  # the hot-path guard sees None
        assert faults.poll(faults.POOL_TASK) is None

    def test_injected_context_arms_and_restores(self):
        plan = FaultPlan.from_spec("http.request:reset@1")
        assert faults.active() is None
        with faults.injected(plan) as armed:
            assert armed is plan
            assert faults.active() is plan
            assert faults.poll(faults.HTTP_REQUEST) is plan.points[0]
        assert faults.active() is None

    def test_injected_restores_previous_plan_on_nesting(self):
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        with faults.injected(outer):
            with faults.injected(inner):
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None

    def test_arm_disarm(self):
        plan = faults.arm(FaultPlan(seed=9))
        try:
            assert faults.active() is plan
        finally:
            faults.disarm()
        assert faults.active() is None


def _drive_pool(tmp_path, request):
    with WorkerPool(workers=1) as pool:
        assert pool.submit(abs, -3).result(timeout=60) == 3


def _drive_cache(tmp_path, request):
    entry = {"entry_version": 1, "result": {}, "compile_seconds": 0.1}
    ResultCache(directory=str(tmp_path)).put("feed", entry)
    assert ResultCache(directory=str(tmp_path)).get("feed") == entry


def _drive_server_and_client(tmp_path, request):
    service = CompilationService(cache=ResultCache())
    with ServiceServer(service) as server:
        assert ServiceClient(server.url).healthz()["status"] == "ok"


def _drive_job(tmp_path, request):
    jobs = JobManager(CompilationService(cache=ResultCache()), start=False)
    job = jobs.submit([request])
    jobs.run_next()
    assert job.done()


#: The component that passes through each site once.  A site added to
#: ``SITES`` without an entry here fails the test below.
SITE_DRIVERS = {
    faults.POOL_TASK: _drive_pool,
    faults.CACHE_DISK_READ: _drive_cache,
    faults.CACHE_DISK_WRITE: _drive_cache,
    faults.HTTP_REQUEST: _drive_server_and_client,
    faults.CLIENT_REQUEST: _drive_server_and_client,
    faults.JOBS_EXECUTE: _drive_job,
}


@pytest.mark.parametrize("site", faults.SITES)
def test_every_site_is_polled(site, tmp_path, small_instance):
    """No dead sites: each declared site is reached by its component."""
    request = CompileRequest.from_instance(small_instance, spec="sabre",
                                           seed=5)
    plan = FaultPlan.from_spec(f"{site}:delay@1:seconds=0")
    with faults.injected(plan):
        SITE_DRIVERS[site](tmp_path, request)
    assert plan.counts().get(site, 0) >= 1
