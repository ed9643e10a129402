"""ServiceClient retries: policy math, idempotence rules, Retry-After,
and recovery from injected resets."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.service import (
    CompilationService,
    CompileRequest,
    JobPollTimeout,
    RemoteServiceError,
    ResultCache,
    RetryPolicy,
    ServiceClient,
    ServiceServer,
)
from repro.qubikos import generate


@pytest.fixture(scope="module")
def request_one(grid33):
    return CompileRequest.from_instance(
        generate(grid33, num_swaps=2, num_two_qubit_gates=16, seed=150),
        spec="sabre", seed=5)


class _Script(BaseHTTPRequestHandler):
    """Stub server: replays a scripted list of (status, headers, body)."""

    script = []
    log = []

    def _serve(self):
        self.__class__.log.append((self.command, self.path,
                                   time.monotonic()))
        status, headers, payload = self.script[
            min(len(self.log) - 1, len(self.script) - 1)]
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = do_DELETE = _serve

    def log_message(self, *args):
        pass


@pytest.fixture()
def scripted():
    """A stub server factory: scripted((status, headers, payload), ...)"""
    servers = []

    def build(*script):
        handler = type("_Scripted", (_Script,),
                       {"script": list(script), "log": []})
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        servers.append(httpd)
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        return url, handler
    yield build
    for httpd in servers:
        httpd.shutdown()
        httpd.server_close()


class TestRetryPolicy:
    def test_delay_schedule_is_seed_deterministic(self):
        policy = RetryPolicy(seed=42)
        first = [policy.delay(n, policy.rng()) for n in range(4)]
        second = [policy.delay(n, policy.rng()) for n in range(4)]
        assert first == second

    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(base_seconds=0.1, multiplier=2.0,
                             max_seconds=0.4, jitter=0.0, seed=0)
        rng = policy.rng()
        assert [policy.delay(n, rng) for n in range(4)] == \
            [0.1, 0.2, 0.4, 0.4]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_seconds=1.0, multiplier=1.0,
                             max_seconds=1.0, jitter=0.5, seed=9)
        rng = policy.rng()
        for n in range(20):
            assert 1.0 <= policy.delay(n, rng) < 1.5

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=2.0)


class TestIdempotenceRules:
    def test_gets_and_compile_posts_retry(self):
        assert ServiceClient._idempotent("GET", "/v1/healthz")
        assert ServiceClient._idempotent("GET", "/v1/jobs/3")
        assert ServiceClient._idempotent("POST", "/v1/compile")

    def test_job_posts_and_deletes_do_not(self):
        assert not ServiceClient._idempotent("POST", "/v1/jobs")
        assert not ServiceClient._idempotent("DELETE", "/v1/jobs/3")


class TestRetryBehaviour:
    def test_503_then_success_recovers_and_honors_retry_after(self,
                                                              scripted):
        url, handler = scripted(
            (503, {"Retry-After": "0.2"}, {"status": 503, "error": "full"}),
            (503, {"Retry-After": "0.2"}, {"status": 503, "error": "full"}),
            (200, {}, {"status": "ok"}),
        )
        client = ServiceClient(url, timeout=10,
                               retry=RetryPolicy(seed=1, base_seconds=0.01))
        assert client.healthz()["status"] == "ok"
        assert client.retry_count == 2
        times = [entry[2] for entry in handler.log]
        assert len(times) == 3
        # Retry-After (0.2s) overrides the tiny computed backoff
        assert times[1] - times[0] >= 0.15
        assert times[2] - times[1] >= 0.15

    def test_exhaustion_reports_attempt_count(self, scripted):
        url, _ = scripted(
            (503, {}, {"status": 503, "error": "perpetually full"}))
        client = ServiceClient(url, timeout=10,
                               retry=RetryPolicy(max_attempts=3, seed=2,
                                                 base_seconds=0.01,
                                                 jitter=0.0))
        with pytest.raises(RemoteServiceError, match="after 3 attempts"):
            client.healthz()
        assert client.retry_count == 2

    def test_4xx_never_retries(self, scripted):
        url, handler = scripted(
            (404, {}, {"status": 404, "error": "no such job"}))
        client = ServiceClient(url, timeout=10, retry=RetryPolicy(seed=3))
        with pytest.raises(RemoteServiceError) as excinfo:
            client.job(7)
        assert excinfo.value.status == 404
        assert client.retry_count == 0
        assert len(handler.log) == 1

    def test_non_idempotent_post_fails_fast(self, scripted, request_one):
        url, handler = scripted(
            (503, {}, {"status": 503, "error": "queue is full"}))
        client = ServiceClient(url, timeout=10, retry=RetryPolicy(seed=4))
        with pytest.raises(RemoteServiceError) as excinfo:
            client.submit_job([request_one])
        assert excinfo.value.status == 503
        assert client.retry_count == 0  # POST /v1/jobs is not idempotent
        assert len(handler.log) == 1

    def test_no_policy_means_no_retries(self, scripted):
        url, handler = scripted(
            (503, {}, {"status": 503, "error": "full"}),
            (200, {}, {"status": "ok"}),
        )
        client = ServiceClient(url, timeout=10)
        with pytest.raises(RemoteServiceError):
            client.healthz()
        assert len(handler.log) == 1


class TestInjectedResets:
    def test_client_side_reset_is_retried(self, request_one):
        service = CompilationService(cache=ResultCache())
        with ServiceServer(service) as server:
            client = ServiceClient(
                server.url, timeout=30,
                retry=RetryPolicy(seed=5, base_seconds=0.01))
            with faults.injected(FaultPlan.from_spec(
                    "client.request:reset@1")):
                response = client.submit(request_one)
            assert client.retry_count == 1
            local = CompilationService().submit(request_one)
            assert response.result.circuit == local.result.circuit

    def test_server_side_reset_is_retried(self, request_one):
        service = CompilationService(cache=ResultCache())
        with ServiceServer(service) as server:
            client = ServiceClient(
                server.url, timeout=30,
                retry=RetryPolicy(seed=6, base_seconds=0.01))
            with faults.injected(FaultPlan.from_spec(
                    "http.request:reset@1")):
                assert client.healthz()["status"] == "ok"
            assert client.retry_count >= 1

    def test_reset_without_policy_surfaces_transport_error(self,
                                                           request_one):
        service = CompilationService(cache=ResultCache())
        with ServiceServer(service) as server:
            client = ServiceClient(server.url, timeout=30)
            with faults.injected(FaultPlan.from_spec(
                    "http.request:reset@1")):
                with pytest.raises(RemoteServiceError,
                                   match="cannot reach") as excinfo:
                    client.healthz()
            assert excinfo.value.status is None


class TestWaitJobBackoff:
    def test_timeout_raises_poll_timeout_with_attempts(self, scripted):
        url, handler = scripted(
            (200, {}, {"id": 1, "status": "running", "responses": None,
                       "error": None}))
        client = ServiceClient(url, timeout=10)
        with pytest.raises(JobPollTimeout, match="polls") as excinfo:
            client.wait_job(1, timeout=0.5, poll_seconds=0.02)
        assert isinstance(excinfo.value, TimeoutError)
        assert isinstance(excinfo.value, RemoteServiceError)
        # exponential backoff: 0.5s of polling at 0.02 doubling-to-1.0
        # costs a handful of polls, not 25 fixed-interval ones
        assert 2 <= len(handler.log) <= 10

    def test_poll_interval_caps_at_max_poll_seconds(self, scripted):
        url, handler = scripted(
            (200, {}, {"id": 1, "status": "running", "responses": None,
                       "error": None}))
        client = ServiceClient(url, timeout=10)
        with pytest.raises(JobPollTimeout):
            client.wait_job(1, timeout=0.4, poll_seconds=0.05,
                            max_poll_seconds=0.1)
        gaps = [b[2] - a[2] for a, b in zip(handler.log, handler.log[1:])]
        assert all(gap < 0.3 for gap in gaps)  # capped, with scheduling slack


class TestKeptConnection:
    """One connection per client thread, replaced when the server has
    dropped it, never by resending a call."""

    @staticmethod
    def _wait_dropped(server):
        deadline = time.monotonic() + 10
        while server.connection_counts()["open"]:
            assert time.monotonic() < deadline, "idle connection kept"
            time.sleep(0.01)

    def test_calls_share_one_connection(self, request_one):
        with ServiceServer(CompilationService(cache=ResultCache())) as server:
            client = ServiceClient(server.url, timeout=30)
            client.submit(request_one)
            client.submit(request_one)
            client.healthz()
            job = client.wait_job(client.submit_job([request_one])["id"])
            assert job["status"] == "done"
            assert server.connection_counts()["accepted"] == 1

    def test_idle_drop_reconnects_before_sending(self, request_one,
                                                 monkeypatch):
        """The server closes an idle kept connection (its read timeout);
        the next ``submit`` and ``submit_job`` each go out once on a new
        connection — no retry policy needed, one job created."""
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "READ_TIMEOUT_SECONDS", 0.2)
        with ServiceServer(CompilationService(cache=ResultCache())) as server:
            client = ServiceClient(server.url, timeout=30)
            client.submit(request_one)
            self._wait_dropped(server)
            assert client.submit(request_one).cache_hit
            self._wait_dropped(server)
            job = client.submit_job([request_one])
            assert job["status"] == "done"  # cache-first admission
            assert len(server.jobs.jobs()) == 1
            assert server.connection_counts()["accepted"] == 3
            assert client.retry_count == 0

    def test_pickled_and_threaded_clients_open_their_own(self, request_one):
        import pickle

        with ServiceServer(CompilationService(cache=ResultCache())) as server:
            client = ServiceClient(server.url, timeout=30)
            client.healthz()
            clone = pickle.loads(pickle.dumps(client))
            clone.healthz()
            worker = threading.Thread(target=client.healthz)
            worker.start()
            worker.join()
            assert server.connection_counts()["accepted"] == 3
