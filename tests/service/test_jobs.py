"""JobManager: lifecycle, priority, cancellation, dedup, cache-first
admission."""

import threading

import pytest

from repro.circuit import QuantumCircuit, cx
from repro.qubikos import generate
from repro.service import (
    CompilationService,
    CompileRequest,
    JobManager,
    JobStatus,
    ResultCache,
    ServiceError,
)


@pytest.fixture(scope="module")
def instances(grid33):
    return [generate(grid33, num_swaps=2, num_two_qubit_gates=20,
                     seed=60 + k) for k in range(3)]


@pytest.fixture(scope="module")
def requests(instances):
    return [CompileRequest.from_instance(instance, spec="sabre", seed=5)
            for instance in instances]


def manager():
    """A passive manager (no executor thread): tests step it manually."""
    return JobManager(CompilationService(cache=ResultCache()), start=False)


class TestLifecycle:
    def test_queued_to_done(self, requests):
        jobs = manager()
        job = jobs.submit(requests[:2])
        assert job.status is JobStatus.QUEUED
        assert job.responses is None and not job.done()
        ran = jobs.run_next()
        assert ran is job
        assert job.status is JobStatus.DONE and job.done()
        assert job.error is None
        assert [r.request_fingerprint for r in job.responses] == \
            job.fingerprints[:2]
        assert job.started_seconds >= job.created_seconds
        assert job.finished_seconds >= job.started_seconds

    def test_monotonic_ids(self, requests):
        jobs = manager()
        ids = [jobs.submit([request]).id for request in requests]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_priority_order_with_fifo_ties(self, requests):
        jobs = manager()
        low = jobs.submit([requests[0]], priority=0)
        high = jobs.submit([requests[1]], priority=5)
        high_later = jobs.submit([requests[2]], priority=5)
        assert jobs.run_next() is high       # priority first
        assert jobs.run_next() is high_later  # FIFO within a priority
        assert jobs.run_next() is low
        assert jobs.run_next() is None

    def test_empty_job_rejected(self):
        with pytest.raises(ServiceError, match="at least one request"):
            manager().submit([])

    def test_failed_job_records_error(self, requests):
        # A circuit wider than the device passes admission (fingerprints
        # only need a known device + spec) but fails in compilation.
        big = QuantumCircuit(16, [cx(0, 15)])
        request = CompileRequest(circuit=big, device="grid3x3", spec="sabre",
                                 seed=1)
        jobs = manager()
        job = jobs.submit([request])
        assert jobs.run_next() is job
        assert job.status is JobStatus.FAILED
        assert job.responses is None
        assert job.error
        # failure is terminal and does not wedge the queue
        ok = jobs.submit([requests[0]])
        assert jobs.run_next() is ok
        assert ok.status is JobStatus.DONE

    def test_bad_device_rejected_at_admission(self, requests):
        bad = CompileRequest(circuit=requests[0].circuit,
                             device="warp-core-9", spec="sabre")
        with pytest.raises(ServiceError, match="unknown device"):
            manager().submit([bad])


class TestCancellation:
    def test_cancel_queued_job(self, requests):
        jobs = manager()
        first = jobs.submit([requests[0]])
        second = jobs.submit([requests[1]])
        cancelled = jobs.cancel(second.id)
        assert cancelled is second
        assert second.status is JobStatus.CANCELLED
        assert second.done() and second.finished_seconds is not None
        assert jobs.run_next() is first   # the cancelled job is skipped
        assert jobs.run_next() is None
        assert second.responses is None   # it never ran

    def test_cancel_running_job_is_noop(self, requests):
        gate = threading.Event()
        release = threading.Event()

        class Gated(CompilationService):
            def submit_many(self, batch, **kwargs):
                gate.set()
                assert release.wait(10)
                return super().submit_many(batch, **kwargs)

        jobs = JobManager(Gated(cache=ResultCache()))  # threaded manager
        try:
            job = jobs.submit([requests[0]])
            assert gate.wait(10)  # executor picked it up
            assert job.status is JobStatus.RUNNING
            returned = jobs.cancel(job.id)  # documented no-op
            assert returned is job
            assert job.status is JobStatus.RUNNING  # unchanged
            release.set()
            finished = jobs.wait(job.id, timeout=30)
            assert finished.status is JobStatus.DONE  # ran to completion
        finally:
            release.set()
            jobs.shutdown()

    def test_cancel_done_job_is_noop(self, requests):
        jobs = manager()
        job = jobs.submit([requests[0]])
        jobs.run_next()
        assert jobs.cancel(job.id).status is JobStatus.DONE

    def test_cancel_unknown_job_raises(self):
        with pytest.raises(KeyError):
            manager().cancel(12345)


class TestCacheInteraction:
    def test_cache_first_admission_completes_inline(self, requests):
        jobs = manager()
        jobs.service.submit_many(requests)  # warm every fingerprint
        job = jobs.submit(requests)
        # never queued: terminal at submission, nothing left to run
        assert job.status is JobStatus.DONE
        assert all(r.cache_hit for r in job.responses)
        assert jobs.run_next() is None

    def test_duplicate_fingerprint_jobs_compile_once(self, requests):
        jobs = manager()
        first = jobs.submit([requests[0]])
        second = jobs.submit([requests[0]])  # same fingerprint, queued cold
        jobs.run_next()
        jobs.run_next()
        assert [r.cache_hit for r in first.responses] == [False]
        assert [r.cache_hit for r in second.responses] == [True]  # deduped
        assert second.responses[0].result.circuit == \
            first.responses[0].result.circuit

    def test_duplicates_within_one_job_dedup(self, requests):
        jobs = manager()
        job = jobs.submit([requests[0], requests[1], requests[0]])
        jobs.run_next()
        assert [r.cache_hit for r in job.responses] == [False, False, True]

    def test_poisoned_entry_blocks_inline_admission(self, requests):
        """An undecodable cache entry is a miss by the cache's contract,
        so the job must queue (async) rather than compile inline on the
        submitter's thread."""
        jobs = manager()
        jobs.service.submit_many(requests[:2])
        fingerprint = requests[0].fingerprint()
        jobs.service.cache.put(fingerprint, {"entry_version": 99})
        job = jobs.submit(requests[:2])
        assert job.status is JobStatus.QUEUED  # not admitted inline
        jobs.run_next()
        assert job.status is JobStatus.DONE
        assert not job.responses[0].cache_hit  # healed by recompilation
        assert job.responses[1].cache_hit

    def test_admission_probe_invisible_in_cache_stats(self, requests):
        jobs = manager()
        jobs.service.submit_many([requests[0]])
        stats = jobs.service.cache.stats
        hits_before, misses_before = stats.hits, stats.misses
        job = jobs.submit([requests[0]])  # inline: peek + 1 served hit
        assert job.status is JobStatus.DONE
        assert stats.hits == hits_before + 1   # just the served lookup
        assert stats.misses == misses_before   # the peek counted nothing

    def test_admission_of_verified_entries_never_decodes(self, requests,
                                                         monkeypatch):
        """Admission probes the verify-once memo: entries the service
        already served cost no decode, in the probe or the inline run."""
        from repro.service import service as service_module

        jobs = manager()
        jobs.service.submit_many(requests[:2])
        decodes = []
        real = service_module.decode_entry
        monkeypatch.setattr(service_module, "decode_entry",
                            lambda entry: decodes.append(1) or real(entry))
        job = jobs.submit(requests[:2])
        assert job.status is JobStatus.DONE  # admitted inline
        assert all(r.cache_hit for r in job.responses)
        assert decodes == []


class TestManagerPlumbing:
    def test_wait_times_out_on_passive_manager(self, requests):
        jobs = manager()
        job = jobs.submit([requests[0]])
        with pytest.raises(TimeoutError):
            jobs.wait(job.id, timeout=0.05)

    def test_threaded_drain_completes_jobs(self, requests):
        jobs = JobManager(CompilationService(cache=ResultCache()))
        try:
            job = jobs.submit(requests[:2])
            finished = jobs.wait(job.id, timeout=60)
            assert finished.status is JobStatus.DONE
            assert len(finished.responses) == 2
        finally:
            jobs.shutdown()

    def test_counts_and_listing(self, requests):
        jobs = manager()
        a = jobs.submit([requests[0]])
        b = jobs.submit([requests[1]])
        jobs.cancel(b.id)
        jobs.run_next()
        assert [job.id for job in jobs.jobs()] == [a.id, b.id]
        counts = jobs.counts()
        assert counts["done"] == 1 and counts["cancelled"] == 1
        assert counts["queued"] == 0

    def test_submit_after_shutdown_rejected(self, requests):
        jobs = manager()
        jobs.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            jobs.submit([requests[0]])

    def test_job_wire_dict_round_trip_fields(self, requests):
        jobs = manager()
        job = jobs.submit([requests[0]], priority=3)
        queued = job.to_dict()
        assert queued["status"] == "queued"
        assert queued["priority"] == 3
        assert queued["responses"] is None
        assert queued["request_fingerprints"] == job.fingerprints
        jobs.run_next()
        done = job.to_dict()
        assert done["status"] == "done"
        assert len(done["responses"]) == 1
        assert job.to_dict(include_responses=False)["responses"] is None
