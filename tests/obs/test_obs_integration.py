"""Cross-layer observability tests: server endpoint, healthz rollups,
per-client accounting, job transitions, worker-pool metric piggyback,
the trace-summary CLI, and the disarmed-overhead guard."""

import multiprocessing
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, parse_prometheus_text
from repro.parallel import WorkerPool
from repro.qubikos import generate
from repro.service import (
    CompilationService,
    CompileRequest,
    JobManager,
    ResultCache,
    ServiceClient,
    ServiceServer,
)


@pytest.fixture(scope="module")
def requests(grid33):
    instances = [generate(grid33, num_swaps=2, num_two_qubit_gates=20,
                          seed=70 + k) for k in range(2)]
    return [CompileRequest.from_instance(instance, spec="sabre", seed=5)
            for instance in instances]


@pytest.fixture()
def armed_registry():
    with obs_metrics.enabled() as registry:
        yield registry


class TestServerMetricsEndpoint:
    def test_metrics_endpoint_and_healthz_rollups(self, requests,
                                                  armed_registry):
        service = CompilationService(cache=ResultCache())
        with ServiceServer(service) as server:
            client = ServiceClient(server.url, client_id="it-client")
            job = client.submit_job(requests)
            done = client.wait_job(job["id"], timeout=300)
            assert done["status"] == "done"
            client.submit_many(requests)  # warm: all hits

            with urllib.request.urlopen(server.url + "/v1/metrics",
                                        timeout=30) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4")
                text = response.read().decode("utf-8")
            parsed = parse_prometheus_text(text)
            assert parsed["repro_cache_events_total"]['{event="miss"}'] > 0
            assert parsed["repro_cache_events_total"]['{event="hit"}'] > 0
            assert parsed["repro_jobs_transitions_total"][
                '{status="done"}'] >= 1
            assert parsed["repro_service_requests_total"][
                '{result="hit"}'] > 0
            by_client = parsed["repro_http_requests_by_client_total"]
            assert by_client['{client="it-client"}'] > 0

            client.healthz()  # accounted after its response is built...
            health = client.healthz()  # ...so the second call sees it
            # pre-obs contract intact
            assert set(health["jobs"]) == {"queued", "running", "done",
                                           "failed", "cancelled"}
            # new rollups
            assert health["metrics"] is True
            rollup = health["jobs_rollup"]
            assert rollup["jobs"] >= 1
            assert rollup["queue_depth"] == 0
            assert rollup["responses"]["misses"] >= len(requests)
            assert health["pool"] is None  # serial service: no pool
            assert health["pool_fallbacks"] == 0
            assert health["journal"] is None
            stats = health["clients"]["it-client"]
            assert stats["/v1/healthz"] >= 1
            assert stats["/v1/compile"] >= 1

    def test_metrics_endpoint_reports_disarmed(self, requests):
        service = CompilationService(cache=ResultCache())
        with ServiceServer(service, metrics=False) as server:
            with obs_metrics.disabled():
                with urllib.request.urlopen(server.url + "/v1/metrics",
                                            timeout=30) as response:
                    text = response.read().decode("utf-8")
            assert "# metrics disabled" in text

    def test_unknown_paths_are_label_bounded(self, armed_registry):
        service = CompilationService(cache=ResultCache())
        with ServiceServer(service) as server:
            for suffix in ("/v1/nope", "/v1/jobs/123", "/weird"):
                try:
                    urllib.request.urlopen(server.url + suffix, timeout=30)
                except urllib.error.HTTPError:
                    pass
        series = armed_registry.counter(
            "repro_http_requests_total").labels_seen()
        endpoints = {dict(key).get("endpoint") for key in series}
        # raw paths never become label values: unknown routes collapse
        # to "other", job lookups to the "/v1/jobs/{id}" template
        assert endpoints == {"/v1/jobs/{id}", "other"}


class TestJobTransitions:
    def test_transition_counters_and_queue_depth(self, grid33, requests,
                                                 armed_registry):
        jobs = JobManager(CompilationService(cache=ResultCache()),
                          start=False)
        transitions = armed_registry.counter("repro_jobs_transitions_total")
        depth = armed_registry.gauge("repro_jobs_queue_depth")
        jobs.submit(requests)
        assert transitions.value(status="queued") == 1
        assert depth.value() == 1
        jobs.run_next()
        assert transitions.value(status="running") == 1
        assert transitions.value(status="done") == 1
        assert depth.value() == 0
        # an *uncached* batch stays queued (fully cached jobs complete
        # inline as RUNNING and are uncancellable by contract)
        fresh = CompileRequest.from_instance(
            generate(grid33, num_swaps=2, num_two_qubit_gates=20, seed=99),
            spec="sabre", seed=5)
        cancelled = jobs.submit([fresh], priority=-1)
        assert depth.value() == 1
        jobs.cancel(cancelled.id)
        assert transitions.value(status="cancelled") == 1
        assert depth.value() == 0


def _bump_and_square(value):
    obs_metrics.ROUTER_SWAPS.inc(2, router="child")
    return value * value


class TestPoolPiggyback:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="children must inherit the armed registry")
    def test_child_counters_merge_into_parent(self, armed_registry):
        with WorkerPool(workers=1) as pool:
            futures = [pool.submit(_bump_and_square, k) for k in range(3)]
            assert [f.result(timeout=60) for f in futures] == [0, 1, 4]
        child = armed_registry.counter("repro_router_swaps_total")
        assert child.value(router="child") == 6
        assert armed_registry.counter(
            "repro_pool_tasks_total").total() == 3

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="children must inherit the armed registry")
    def test_disarmed_pool_ships_no_snapshots(self):
        with obs_metrics.disabled():
            with WorkerPool(workers=1) as pool:
                assert pool.submit(_bump_and_square, 3).result(
                    timeout=60) == 9


class TestTraceSummaryCli:
    def test_trace_summary_renders(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs_trace.tracing(path):
            with obs_trace.span("outer"):
                with obs_trace.span("inner"):
                    pass
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "trace-summary", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "2 spans" in proc.stdout
        assert "critical path: outer > inner" in proc.stdout

    def test_trace_summary_missing_file(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "trace-summary",
             str(tmp_path / "absent.jsonl")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


class TestDisarmedOverhead:
    """The guard on a disarmed hot path is one module-attribute load —
    a generous absolute budget catches an accidental always-on metric
    call creeping into the SABRE inner loop."""

    def test_guard_cost_is_bounded(self):
        iterations = 200_000
        with obs_metrics.disabled():
            start = time.perf_counter()
            for _ in range(iterations):
                if obs_metrics._ACTIVE is not None:
                    raise AssertionError("disarmed guard fired")
            elapsed = time.perf_counter() - start
        # ~10ns/iteration on any modern box; 1s is a 100x safety margin
        # against the guard growing a function call or allocation.
        assert elapsed < 1.0, f"disarmed guard took {elapsed:.3f}s"
