"""Serving-front-end smoke check (run with ``--server-smoke``).

Boots the real HTTP server on an ephemeral port, drives it with a
:class:`~repro.service.client.ServiceClient`, and exercises the serving
surface at tier-1 cost — sync submit, async job batch, warm-hit rerun —
recording the cache payoff in ``BENCH_server.json`` at the repo root::

    pytest benchmarks --server-smoke

Checks:

* ``/v1/healthz`` reports the running build's code fingerprint;
* a **cold async job** (``POST /v1/jobs`` → poll → done) compiles every
  request and its responses match a local in-process
  ``CompilationService`` bit-identically;
* a **warm sync batch** (``POST /v1/compile``) is 100% cache hits with
  measured wall-clock reduction over the cold job;
* a warm job resubmission completes via cache-first admission (terminal
  at submit time, never queued);
* a **warm hit's raw body** — spliced by the server from the verified
  result text it stored — is byte-identical to the canonical JSON of its
  decoded response (single and batch);
* every ``ServiceClient`` call above rides **one kept-alive
  connection**: the server accepts exactly one connection for them.
"""

import json
import time
import urllib.request
from pathlib import Path

from repro.arch import get_architecture
from repro.qubikos import generate
from repro.service import (
    CompilationService,
    CompileRequest,
    CompileResponse,
    ResultCache,
    ServiceClient,
    ServiceServer,
    canonical_json,
    code_fingerprint,
    encode_requests,
)

from conftest import print_banner

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_server.json"

SPECS = ("sabre", "tketlike", "lightsabre:trials=2")


def _smoke_requests():
    device = get_architecture("aspen4")
    instances = [
        generate(device, num_swaps=3, num_two_qubit_gates=60, seed=900 + k)
        for k in range(3)
    ]
    return [
        CompileRequest.from_instance(instance, spec=spec, seed=11)
        for instance in instances
        for spec in SPECS
    ]


def _raw_compile(url, payload):
    """POST ``payload`` to ``/v1/compile``; the undecoded response body."""
    request = urllib.request.Request(
        url + "/v1/compile", data=canonical_json(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.read().decode("utf-8")


def test_server_smoke_sync_async_warm(tmp_path):
    requests = _smoke_requests()
    service = CompilationService(
        cache=ResultCache(directory=str(tmp_path / "cache"))
    )
    with ServiceServer(service) as server:
        client = ServiceClient(server.url)

        health = client.healthz()
        assert health["status"] == "ok"
        assert health["code"] == code_fingerprint()

        # -- cold async batch job -------------------------------------------
        start = time.perf_counter()
        job = client.submit_job(requests, priority=1)
        done = client.wait_job(job["id"], timeout=600)
        cold_seconds = time.perf_counter() - start
        assert done["status"] == "done", done
        cold = client.job_responses(done)
        assert all(not response.cache_hit for response in cold)

        # responses bit-identical to a local in-process service
        local = CompilationService().submit_many(requests)
        for remote, reference in zip(cold, local):
            assert remote.request_fingerprint == reference.request_fingerprint
            assert remote.result.circuit == reference.result.circuit
            assert remote.result.swap_count == reference.result.swap_count

        # -- warm sync batch: 100% hits, measured speedup -------------------
        start = time.perf_counter()
        warm = client.submit_many(requests)
        warm_seconds = time.perf_counter() - start
        assert all(response.cache_hit for response in warm)
        assert warm_seconds < cold_seconds
        for w, c in zip(warm, cold):
            assert w.result.circuit == c.result.circuit

        # -- warm job: cache-first admission completes without queueing -----
        warm_job = client.submit_job(requests)
        assert warm_job["status"] == "done"  # terminal at submission
        assert all(response.cache_hit
                   for response in client.job_responses(warm_job))
        assert server.connection_counts()["accepted"] == 1


        # -- warm hit bytes: the splice equals the canonical encoding -------
        single = _raw_compile(server.url, requests[0].to_dict())
        decoded = CompileResponse.from_dict(json.loads(single))
        assert decoded.cache_hit
        assert single == canonical_json(decoded.to_dict())
        raw_batch = _raw_compile(server.url, encode_requests(requests))
        batch = json.loads(raw_batch)
        assert all(item["cache_hit"] for item in batch["responses"])
        batch["responses"] = [CompileResponse.from_dict(item).to_dict()
                              for item in batch["responses"]]
        assert raw_batch == canonical_json(batch)

        cache_info = client.cache_info()
        assert cache_info["disk_entries"] == len(set(
            response.request_fingerprint for response in cold
        ))
        # the two raw POSTs opened their own; the client kept its one
        assert server.connection_counts()["accepted"] == 3

    payload = {
        "suite": {
            "requests": len(requests),
            "specs": list(SPECS),
            "device": "aspen4",
        },
        "server": {
            "cold_job_seconds": cold_seconds,
            "warm_sync_seconds": warm_seconds,
            "warm_hit_rate": 1.0,
            "speedup": cold_seconds / warm_seconds,
            "client_connections": 1,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print_banner("server-smoke — job submit -> poll -> warm sync batch")
    print(f"  cold job  {cold_seconds:.3f}s -> warm sync {warm_seconds:.3f}s "
          f"({payload['server']['speedup']:.0f}x, 100% hits)")
    print(f"  -> {OUTPUT}")
