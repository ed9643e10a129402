"""HTTP serving front-end + ServiceClient: wire compatibility, jobs,
canonical error bodies."""

import json
import urllib.error
import urllib.request

import pytest

from repro.evalx.harness import evaluate
from repro.pipeline import PipelineTool, build_pipeline
from repro.qls import SabreLayout
from repro.qubikos import generate
from repro.service import (
    CompilationService,
    CompileRequest,
    CompileResponse,
    RemoteServiceError,
    ResultCache,
    ServiceClient,
    ServiceServer,
    canonical_json,
    code_fingerprint,
    encode_requests,
)


@pytest.fixture(scope="module")
def instances(grid33):
    return [generate(grid33, num_swaps=2, num_two_qubit_gates=20,
                     seed=80 + k) for k in range(2)]


@pytest.fixture(scope="module")
def requests(instances):
    return [CompileRequest.from_instance(instance, spec=spec, seed=5)
            for instance in instances
            for spec in ("sabre", "tketlike")]


@pytest.fixture(scope="module")
def server():
    with ServiceServer(CompilationService(cache=ResultCache())) as server:
        yield server


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


def _raw(server, method, path, body=None):
    """Raw request bypassing the client (for asserting wire details)."""
    data = body.encode("utf-8") if isinstance(body, str) else body
    request = urllib.request.Request(server.url + path, data=data,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestIntrospectionEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["code"] == code_fingerprint()
        assert set(health["jobs"]) == {"queued", "running", "done", "failed",
                                       "cancelled"}

    def test_devices_lists_the_library(self, client):
        devices = client.devices()
        assert "grid3x3" in devices and "aspen4" in devices

    def test_passes_lists_registry_and_presets(self, client):
        payload = client.passes()
        names = {entry["name"] for entry in payload["passes"]}
        assert {"sabre", "lightsabre", "vf2", "reinsert"} <= names
        assert payload["specs"]["vf2-sabre"] == "vf2+sabre+reinsert"

    def test_cache_endpoint_surfaces_info(self, client):
        info = client.cache_info()
        assert info["capacity"] == 1024
        assert "eviction" in info and "stats" in info


class TestSyncCompile:
    def test_single_miss_then_hit_bit_identical_to_local(self, requests,
                                                         client):
        request = requests[0]
        remote = client.submit(request)
        local = CompilationService().submit(request)
        assert remote.request_fingerprint == local.request_fingerprint
        assert remote.result.circuit == local.result.circuit
        assert remote.result.initial_mapping == local.result.initial_mapping
        assert remote.result.swap_count == local.result.swap_count
        again = client.submit(request)
        assert again.cache_hit
        assert again.result.circuit == remote.result.circuit

    def test_batch_matches_local_submit_many(self, requests, client,
                                             server):
        server.service.cache.clear()
        remote = client.submit_many(requests)
        local = CompilationService().submit_many(requests)
        assert [r.request_fingerprint for r in remote] == \
            [l.request_fingerprint for l in local]
        for r, l in zip(remote, local):
            assert r.result.circuit == l.result.circuit
            assert r.cache_hit == l.cache_hit

    def test_batch_duplicates_dedup_like_local(self, requests, server):
        with ServiceServer(CompilationService(cache=ResultCache())) as fresh:
            batch = ServiceClient(fresh.url).submit_many(
                [requests[0], requests[1], requests[0]]
            )
        assert [r.cache_hit for r in batch] == [False, False, True]

    def test_progress_fires_per_response(self, requests, client):
        seen = []
        responses = client.submit_many(requests, progress=seen.append)
        assert [s.request_fingerprint for s in seen] == \
            [r.request_fingerprint for r in responses]

    def test_empty_batch_is_local_noop(self, client):
        assert client.submit_many([]) == []

    def test_map_yields_in_request_order(self, requests, client):
        mapped = list(client.map(requests))
        assert [m.request_fingerprint for m in mapped] == \
            [r.fingerprint() for r in requests]


class TestWarmHitBytes:
    """A warm hit is spliced from stored text, byte-identical to the
    canonical JSON of its decoded response (what the server sent before
    hits were spliced)."""

    @staticmethod
    def _body(server, method, path, payload=None):
        data = None if payload is None else \
            canonical_json(payload).encode("utf-8")
        request = urllib.request.Request(
            server.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.read().decode("utf-8")

    @staticmethod
    def _canonical(body):
        payload = json.loads(body)
        if payload["type"] == "CompileResponse":
            return canonical_json(CompileResponse.from_dict(payload).to_dict())
        payload["responses"] = [CompileResponse.from_dict(item).to_dict()
                                for item in payload["responses"]]
        return canonical_json(payload)

    def test_single_batch_and_job_bodies(self, requests):
        with ServiceServer(CompilationService(cache=ResultCache())) as fresh:
            batch = encode_requests(requests + requests[:1])
            for _ in range(2):  # the second round is all warm hits
                single = self._body(fresh, "POST", "/v1/compile",
                                    requests[0].to_dict())
                many = self._body(fresh, "POST", "/v1/compile", batch)
            job = json.loads(self._body(fresh, "POST", "/v1/jobs", batch))
            assert job["status"] == "done"  # all hits: admitted inline
            fetched = self._body(fresh, "GET", f"/v1/jobs/{job['id']}")
            server_side = canonical_json(fresh.jobs.get(job["id"]).to_dict())
        assert json.loads(single)["cache_hit"]
        assert all(r["cache_hit"] for r in json.loads(many)["responses"])
        for body in (single, many, fetched):
            assert body == self._canonical(body)
        assert fetched == server_side

    @pytest.mark.parametrize("corrupt, error", [
        (lambda result: result.update(schema=99), "result schema"),
        (lambda result: result["circuit"]["gates"].append(["cx", [0, 0]]),
         "repeated qubits"),
    ])
    def test_client_still_decodes_eagerly(self, requests, corrupt, error):
        """The wire is the untrusted boundary: a malformed response body
        raises inside ``ServiceClient.submit``, not on later access."""
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        payload = CompilationService().submit(requests[0]).to_dict()
        corrupt(payload["result"])
        body = canonical_json(payload).encode("utf-8")

        class Stub(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server API
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        stub = HTTPServer(("127.0.0.1", 0), Stub)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{stub.server_port}")
            with pytest.raises(ValueError, match=error):
                client.submit(requests[0])
        finally:
            stub.shutdown()
            stub.server_close()


class TestJobEndpoints:
    def test_async_job_flow_matches_sync(self, requests, client):
        with ServiceServer(CompilationService(cache=ResultCache())) as fresh:
            fresh_client = ServiceClient(fresh.url)
            job = fresh_client.submit_job(requests, priority=2)
            assert job["status"] in ("queued", "running", "done")
            assert job["priority"] == 2
            done = fresh_client.wait_job(job["id"], timeout=120)
            assert done["status"] == "done"
            responses = fresh_client.job_responses(done)
            sync = CompilationService().submit_many(requests)
            for r, s in zip(responses, sync):
                assert r.request_fingerprint == s.request_fingerprint
                assert r.result.circuit == s.result.circuit
            # warm resubmission: cache-first admission → 200, already done
            warm = fresh_client.submit_job(requests)
            assert warm["status"] == "done"
            assert all(r.cache_hit
                       for r in fresh_client.job_responses(warm))

    def test_job_listing_includes_submitted_job(self, requests, client):
        job = client.submit_job([requests[0]])
        client.wait_job(job["id"], timeout=120)
        listed = client.jobs()
        assert job["id"] in [entry["id"] for entry in listed]
        # the listing never ships response payloads
        assert all(entry["responses"] is None for entry in listed)

    def test_responses_unavailable_until_done(self, requests, client):
        job = {"id": 1, "status": "queued", "responses": None, "error": None}
        with pytest.raises(Exception, match="once it is done"):
            client.job_responses(job)


class TestErrorBodies:
    """Every failure is a canonical-JSON body with status + error."""

    def test_unknown_job_is_404(self, client):
        with pytest.raises(RemoteServiceError) as excinfo:
            client.job(999999)
        assert excinfo.value.status == 404
        assert "no such job" in str(excinfo.value)

    def test_cancel_unknown_job_is_404(self, client):
        with pytest.raises(RemoteServiceError) as excinfo:
            client.cancel_job(999999)
        assert excinfo.value.status == 404

    def test_unknown_route_is_404_with_canonical_body(self, server):
        status, payload = _raw(server, "GET", "/v1/nope")
        assert status == 404
        assert payload["type"] == "ServiceError"
        assert payload["status"] == 404
        assert "/v1/nope" in payload["error"]

    def test_malformed_json_body_is_400(self, server):
        status, payload = _raw(server, "POST", "/v1/compile", "{not json")
        assert status == 400
        assert payload["type"] == "ServiceError"
        assert "not valid JSON" in payload["error"]

    def test_empty_body_is_400(self, server):
        status, payload = _raw(server, "POST", "/v1/compile", b"")
        assert status == 400
        assert "empty request body" in payload["error"]

    def test_unknown_device_is_400(self, requests, client):
        payload = requests[0].to_dict()
        payload["device"] = "warp-core-9"
        with pytest.raises(RemoteServiceError) as excinfo:
            client.submit(CompileRequest.from_dict(payload))
        assert excinfo.value.status == 400
        assert "unknown device" in str(excinfo.value)

    def test_unknown_spec_is_400(self, requests, server):
        payload = requests[0].to_dict()
        payload["spec"] = "no-such-stage"
        status, body = _raw(server, "POST", "/v1/compile",
                            json.dumps(payload))
        assert status == 400
        assert "unknown pipeline stage" in body["error"]

    def test_bad_batch_envelope_is_400(self, server):
        status, body = _raw(server, "POST", "/v1/compile",
                            json.dumps({"requests": []}))
        assert status == 400
        assert "non-empty 'requests' list" in body["error"]

    def test_malformed_job_id_is_400(self, server):
        status, body = _raw(server, "GET", "/v1/jobs/banana")
        assert status == 400
        assert "malformed job id" in body["error"]

    def test_unreachable_server_raises_transport_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(RemoteServiceError, match="cannot reach"):
            client.healthz()

    @staticmethod
    def _raw_post(server, path, content_length):
        """POST only a header block; the server must reply and close the
        connection without waiting for a body."""
        import socket

        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST %s HTTP/1.1\r\n"
                         b"Host: localhost\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: %s\r\n\r\n"
                         % (path.encode(), content_length.encode()))
            reply = b""
            while True:  # the server closes the connection after replying
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        return int(head.split(b"\r\n", 1)[0].split()[1]), json.loads(body)

    def test_negative_content_length_is_400(self, server):
        """``rfile.read(-1)`` would block until the client hangs up: a
        negative length is refused before any body is read."""
        status, payload = self._raw_post(server, "/v1/compile", "-1")
        assert status == 400
        assert payload["status"] == 400
        assert "negative Content-Length" in payload["error"]

    @pytest.mark.parametrize("path, status", [("/v1/compile", 400),
                                              ("/v1/nope", 404)])
    def test_non_numeric_content_length_gets_a_json_error(self, server,
                                                          path, status):
        got, payload = self._raw_post(server, path, "abc")
        assert got == payload["status"] == status

    @pytest.mark.parametrize("path, status", [("/v1/compile", 413),
                                              ("/v1/nope", 404)])
    def test_oversized_content_length_is_never_read(self, server, path,
                                                    status):
        """A length above the cap is refused (413) before any body is
        read — an unrouted POST skips draining it — and the connection
        is closed: the unread rest cannot be reused."""
        from repro.service.server import MAX_BODY_BYTES

        got, payload = self._raw_post(server, path, str(MAX_BODY_BYTES + 1))
        assert got == payload["status"] == status

    def test_stalled_body_gets_408_and_a_close(self, server, monkeypatch):
        """Headers sent, body never: after the read timeout the server
        answers 408 and closes (the EOF comes when the handler thread
        finishes, so the thread is free)."""
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "READ_TIMEOUT_SECONDS", 0.5)
        status, payload = self._raw_post(server, "/v1/compile", "100")
        assert status == payload["status"] == 408
        assert "0.5s" in payload["error"]

    def test_stalled_headers_are_dropped(self, server, monkeypatch):
        """A client that stalls inside its header block gets no reply and
        a closed connection once the read timeout passes."""
        import socket

        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "READ_TIMEOUT_SECONDS", 0.5)
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /v1/compile HTTP/1.1\r\nHost: localhost\r\n")
            assert sock.recv(65536) == b""

    def test_keepalive_connection_survives_unrouted_post_body(self, server):
        """An unread POST body must be drained before the 404, or it
        would be parsed as the next request on the keep-alive connection."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=30)
        try:
            body = json.dumps({"filler": "x" * 4096})
            connection.request("POST", "/v1/compilex", body=body,
                               headers={"Content-Type": "application/json"})
            first = connection.getresponse()
            assert first.status == 404
            assert json.loads(first.read())["type"] == "ServiceError"
            # same connection: the next request must parse cleanly
            connection.request("GET", "/v1/healthz")
            second = connection.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["status"] == "ok"
        finally:
            connection.close()

    def test_keepalive_requests_do_not_stall(self, server, requests):
        """Warm hits over one keep-alive connection answer promptly: the
        response's two writes must not wait on a delayed ACK."""
        import http.client
        import statistics
        import time

        body = canonical_json(encode_requests(requests[:1]))
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=30)
        elapsed = []
        try:
            for _ in range(21):  # the first request warms the cache
                start = time.perf_counter()
                connection.request("POST", "/v1/compile", body=body,
                                   headers={"Content-Type":
                                            "application/json"})
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                elapsed.append(time.perf_counter() - start)
        finally:
            connection.close()
        assert statistics.median(elapsed[1:]) < 0.020, elapsed

    def test_client_hits_with_large_body_do_not_stall(self, server, grid33):
        """ServiceClient hits over its kept-alive connection answer
        promptly even when the request body is above 3 KB, where the
        header and body sends could wait on a delayed ACK."""
        import statistics
        import time

        request = CompileRequest.from_instance(
            generate(grid33, num_swaps=2, num_two_qubit_gates=300, seed=88),
            spec="sabre", seed=5)
        assert len(request.canonical_json()) > 3 * 1024
        client = ServiceClient(server.url)
        elapsed = []
        for _ in range(21):  # the first request warms the cache
            start = time.perf_counter()
            client.submit(request)
            elapsed.append(time.perf_counter() - start)
        assert statistics.median(elapsed[1:]) < 0.020, elapsed


class TestConnectionBounds:
    """Open connections are capped, refusals are a defined 503, and a
    stopped server keeps no connection or thread."""

    @staticmethod
    def _get(connection, path="/v1/healthz"):
        connection.request("GET", path)
        response = connection.getresponse()
        return response, json.loads(response.read())

    @staticmethod
    def _wait_open(server, count):
        import time

        deadline = time.monotonic() + 10
        while server.connection_counts()["open"] != count:
            assert time.monotonic() < deadline, server.connection_counts()
            time.sleep(0.01)

    def test_connection_over_the_cap_gets_503_and_a_close(self, monkeypatch):
        import http.client

        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
        with ServiceServer(CompilationService()) as fresh:
            kept = [http.client.HTTPConnection(fresh.host, fresh.port,
                                               timeout=10)
                    for _ in range(3)]
            try:
                for connection in kept[:2]:
                    assert self._get(connection)[0].status == 200
                response, body = self._get(kept[2])
                assert response.status == body["status"] == 503
                assert body["type"] == "ServiceError"
                assert "2-connection limit" in body["error"]
                assert response.getheader("Retry-After") == "1"
                assert response.getheader("Connection") == "close"
                assert fresh.connection_counts() == {
                    "open": 2, "accepted": 3, "refused": 1, "max": 2}
                # a freed slot is usable again
                kept[0].close()
                self._wait_open(fresh, 1)
                fresh_connection = http.client.HTTPConnection(
                    fresh.host, fresh.port, timeout=10)
                kept.append(fresh_connection)
                assert self._get(fresh_connection)[0].status == 200
            finally:
                for connection in kept:
                    connection.close()

    def test_shutdown_closes_idle_kept_connections(self, requests):
        import threading

        before = threading.active_count()
        fresh = ServiceServer(CompilationService()).start()
        clients = [ServiceClient(fresh.url) for _ in range(3)]
        for client in clients:
            client.submit(requests[0])
        assert fresh.connection_counts()["open"] == 3
        assert fresh.shutdown(timeout=10) is True
        assert fresh.connection_counts()["open"] == 0
        assert threading.active_count() <= before

    def test_client_ids_beyond_the_cap_share_one_bucket(self):
        from repro.obs import metrics as obs_metrics
        from repro.service.server import MAX_CLIENT_IDS, OTHER_CLIENTS

        with obs_metrics.enabled():
            with ServiceServer(CompilationService()) as fresh:
                ServiceClient(fresh.url, client_id="first").healthz()
                # Requests are accounted before their response goes out.
                assert fresh.client_stats()["first"] == {"/v1/healthz": 1}
                for index in range(10_000):
                    fresh.note_client(f"id-{index}", "/v1/compile")
                ServiceClient(fresh.url, client_id="late").healthz()
                stats = fresh.client_stats()
                with urllib.request.urlopen(fresh.url + "/v1/metrics",
                                            timeout=30) as response:
                    text = response.read().decode("utf-8")
        assert len(stats) == MAX_CLIENT_IDS + 1
        assert stats["first"] == {"/v1/healthz": 1}
        assert stats[OTHER_CLIENTS] == {
            "/v1/compile": 10_001 - MAX_CLIENT_IDS, "/v1/healthz": 1}
        series = [line for line in text.splitlines()
                  if line.startswith("repro_http_requests_by_client_total{")]
        assert len(series) == MAX_CLIENT_IDS + 1
        assert sum(float(line.rsplit(" ", 1)[1]) for line in series) == 10_002


class TestWarmHitBuildsNoGates:
    def test_served_hit_decodes_rows_on_both_sides(self, server, client,
                                                   requests, monkeypatch):
        """A warm hit fingerprints the request from its rows and the
        client reads the response without building a Gate."""
        from repro.circuit import Gate

        client.submit(requests[0])  # warm
        built = []
        original = Gate.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Gate, "__init__", counting)
        response = client.submit(requests[0])
        assert response.cache_hit
        assert response.result.to_dict()["swap_count"] == \
            response.result.swap_count
        assert built == []


class TestRemoteEvaluation:
    """evaluate(..., service=ServiceClient(url)): the swap-in contract."""

    def test_records_key_identical_to_local_run(self, instances, client,
                                                server):
        server.service.cache.clear()
        tools = [PipelineTool(build_pipeline("sabre", seed=3)),
                 PipelineTool(build_pipeline("tketlike", seed=13))]
        remote = evaluate(tools, instances, service=client)
        local = evaluate(tools, instances)
        assert [r.result_key() for r in remote.records] == \
            [r.result_key() for r in local.records]
        assert all(r.valid for r in remote.records)
        assert not any(r.cache_hit for r in remote.records)  # cold
        warm = evaluate(tools, instances, service=client)
        assert all(r.cache_hit for r in warm.records)
        assert [r.result_key() for r in warm.records] == \
            [r.result_key() for r in local.records]

    def test_router_only_mode_round_trips(self, instances, client):
        tools = [PipelineTool(build_pipeline("tketlike", seed=13))]
        remote = evaluate(tools, instances, router_only=True, service=client)
        local = evaluate(tools, instances, router_only=True)
        assert [r.result_key() for r in remote.records] == \
            [r.result_key() for r in local.records]

    def test_opaque_tools_need_a_local_cache(self, instances, client):
        with pytest.raises(ValueError, match="spec-built"):
            evaluate([SabreLayout(seed=3)], instances, service=client)

    def test_explicit_cache_wins_over_service_routing(self, instances,
                                                      client, server):
        """cache= keeps its meaning: a local cache-first run against that
        store — the service is not consulted even when tools are
        spec-addressable."""
        server.service.cache.clear()
        tools = [PipelineTool(build_pipeline("sabre", seed=3))]
        local_cache = ResultCache()
        cold = evaluate(tools, instances, cache=local_cache, service=client)
        assert not any(r.cache_hit for r in cold.records)
        assert len(local_cache) == len(instances)  # stored locally...
        assert len(server.service.cache) == 0      # ...never sent remote
        warm = evaluate(tools, instances, cache=local_cache, service=client)
        assert all(r.cache_hit for r in warm.records)
