"""End-to-end chaos smoke check (run with ``--chaos-smoke``).

Five fault-injected serving scenarios, each asserting that recovery is
**bit-identical** to the clean run — the fault-tolerance acceptance
contract of the robustness layer::

    pytest benchmarks --chaos-smoke

Scenarios:

* **worker crash mid-batch** — a seeded ``pool.task:crash`` kills one
  worker process under a remote batch; the pool respawns its executor
  and the responses match a serial in-process service bit for bit;
* **corrupt disk-cache entry** — garbled bytes are quarantined to
  ``<fingerprint>.corrupt`` on first decode and the recompute reproduces
  the original circuit exactly;
* **connection reset** — ``http.request:reset`` drops a live connection
  cold; a ``RetryPolicy`` client retries and succeeds;
* **connection cap** — with every connection slot held by idle kept-alive
  connections, a new client is refused with ``503`` + ``Retry-After``,
  backs off, and succeeds once a slot frees;
* **SIGKILL mid-queue** — a real ``python -m repro.service serve``
  subprocess with ``--journal`` is SIGKILLed while a job hangs (an
  injected ``jobs.execute`` delay); the restarted server recovers the
  job from the journal and completes it, with already-cached
  fingerprints served as hits, never recompiled.

Counters (respawns, retries, quarantines, refusals, recovered jobs) land
in ``BENCH_chaos.json`` at the repo root.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro import faults
from repro.arch import get_architecture
from repro.parallel import WorkerPool
from repro.qubikos import generate
from repro.service import (
    CompilationService,
    CompileRequest,
    ResultCache,
    RetryPolicy,
    ServiceClient,
    ServiceServer,
)

from conftest import print_banner

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"
REPO_ROOT = Path(__file__).resolve().parent.parent

RESULTS = {}


def _smoke_requests(count=3, spec="sabre"):
    device = get_architecture("aspen4")
    return [
        CompileRequest.from_instance(
            generate(device, num_swaps=3, num_two_qubit_gates=60,
                     seed=950 + k),
            spec=spec, seed=11)
        for k in range(count)
    ]


def test_chaos_smoke_worker_crash_mid_batch():
    requests = _smoke_requests(4)
    reference = CompilationService().submit_many(requests)
    pool = WorkerPool(workers=2, respawn_budget=2)
    service = CompilationService(cache=ResultCache(), pool=pool)
    plan = faults.FaultPlan.from_spec("seed=21; pool.task:crash@2")
    try:
        with ServiceServer(service) as server:
            client = ServiceClient(server.url)
            with faults.injected(plan):
                responses = client.submit_many(requests)
    finally:
        pool.shutdown()
    assert [(faults.POOL_TASK, faults.CRASH, 2)] == plan.fired()
    stats = pool.stats()
    assert stats["respawns"] >= 1, stats
    for got, want in zip(responses, reference):
        assert got.request_fingerprint == want.request_fingerprint
        assert got.result.circuit == want.result.circuit
        assert got.result.swap_count == want.result.swap_count
    RESULTS["worker_crash"] = {"respawns": stats["respawns"],
                               "recovered_tasks": stats["recovered_tasks"]}
    print_banner("chaos-smoke — worker crash mid-batch")
    print(f"  {len(requests)} requests, 1 worker killed: "
          f"{stats['respawns']} respawn(s), bit-identical results")


def test_chaos_smoke_corrupt_cache_entry(tmp_path):
    (request,) = _smoke_requests(1)
    store = tmp_path / "cache"
    first = CompilationService(cache=ResultCache(directory=str(store)))
    clean = first.submit(request)
    entry_file = store / f"{request.fingerprint()}.json"
    entry_file.write_text('{"garbled: \x00', encoding="utf-8")
    second = CompilationService(cache=ResultCache(directory=str(store)))
    recomputed = second.submit(request)
    assert not recomputed.cache_hit  # the corrupt entry was a miss
    assert recomputed.result.circuit == clean.result.circuit
    assert recomputed.result.swap_count == clean.result.swap_count
    info = second.cache.info()
    assert info["corrupt_quarantined"] == 1
    assert entry_file.with_suffix(".corrupt").exists()  # kept for forensics
    assert entry_file.exists()  # the recompute re-put a fresh entry
    third = CompilationService(cache=ResultCache(directory=str(store)))
    assert third.submit(request).cache_hit  # the recompute healed the store
    RESULTS["corrupt_cache"] = {"quarantined": info["corrupt_quarantined"]}
    print_banner("chaos-smoke — corrupt disk-cache entry")
    print("  1 entry garbled: quarantined to .corrupt, recompute "
          "bit-identical, store healed")


def test_chaos_smoke_connection_reset_retry():
    (request,) = _smoke_requests(1)
    reference = CompilationService().submit(request)
    service = CompilationService(cache=ResultCache())
    plan = faults.FaultPlan.from_spec(
        "seed=23; http.request:reset@1; client.request:reset@2")
    with ServiceServer(service) as server:
        client = ServiceClient(server.url,
                               retry=RetryPolicy(seed=23, base_seconds=0.01))
        with faults.injected(plan):
            response = client.submit(request)
    assert client.retry_count >= 2  # one server-side, one client-side reset
    assert response.result.circuit == reference.result.circuit
    assert response.result.swap_count == reference.result.swap_count
    RESULTS["connection_reset"] = {"retries": client.retry_count}
    print_banner("chaos-smoke — connection resets")
    print(f"  2 resets injected: {client.retry_count} retries, "
          "bit-identical result")


def test_chaos_smoke_connection_cap_refusal(monkeypatch):
    from repro.service import server as server_module

    (request,) = _smoke_requests(1)
    reference = CompilationService().submit(request)
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
    with ServiceServer(CompilationService(cache=ResultCache())) as server:
        hogs = [http.client.HTTPConnection(server.host, server.port,
                                           timeout=30) for _ in range(2)]
        for hog in hogs:  # both slots held by idle kept-alive connections
            hog.request("GET", "/v1/healthz")
            hog.getresponse().read()
        threading.Timer(0.3, hogs[0].close).start()
        client = ServiceClient(server.url,
                               retry=RetryPolicy(seed=31, base_seconds=0.01))
        response = client.submit(request)
        counts = server.connection_counts()
        hogs[1].close()
    assert counts["refused"] >= 1 and client.retry_count >= 1
    assert response.result.circuit == reference.result.circuit
    assert response.result.swap_count == reference.result.swap_count
    RESULTS["connection_cap"] = {"refused": counts["refused"],
                                 "retries": client.retry_count}
    print_banner("chaos-smoke — connection cap")
    print(f"  2 slots held: {counts['refused']} refusal(s), "
          f"{client.retry_count} retries, bit-identical result")


def _spawn_serve(tmp_path, *extra, env_faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop(faults.ENV_VAR, None)
    if env_faults:
        env[faults.ENV_VAR] = env_faults
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--port", "0",
         "--journal", str(tmp_path / "jobs.jsonl"),
         "--cache-dir", str(tmp_path / "cache"), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(tmp_path),
    )
    try:
        url = None
        banner = []
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            banner.append(line.rstrip())
            if line.startswith("serving on http://"):
                url = line.split()[2]
                break
        assert url, f"serve never came up: {banner!r}"
    except BaseException:
        proc.kill()
        raise
    return proc, url, banner


def test_chaos_smoke_sigkill_journal_recovery(tmp_path):
    warm, cold = _smoke_requests(2)
    # pre-warm one fingerprint in the shared disk store: the recovered
    # job must serve it as a hit, never recompile it
    store = CompilationService(
        cache=ResultCache(directory=str(tmp_path / "cache")))
    reference_warm = store.submit(warm)
    reference_cold = CompilationService().submit(cold)

    # first server: the injected jobs.execute delay wedges the job
    # mid-run, modelling a compile that never finishes before the crash
    proc, url, _ = _spawn_serve(
        tmp_path, env_faults="jobs.execute:delay@1:seconds=600")
    try:
        client = ServiceClient(url, timeout=30)
        job = client.submit_job([warm, cold])
        assert job["status"] == "queued"
        deadline = time.monotonic() + 60
        while client.job(job["id"])["status"] != "running":
            assert time.monotonic() < deadline, "job never claimed"
            time.sleep(0.05)
    finally:
        proc.send_signal(signal.SIGKILL)  # no shutdown, no drain
        proc.wait(timeout=60)

    # second server, no faults: recovery must come from the journal
    proc, url, banner = _spawn_serve(tmp_path)
    try:
        assert any("recovered 1 job" in line for line in banner), banner
        client = ServiceClient(url, timeout=30,
                               retry=RetryPolicy(seed=29,
                                                 base_seconds=0.05))
        done = client.wait_job(job["id"], timeout=300)
        assert done["status"] == "done", done
        responses = client.job_responses(done)
        assert [r.cache_hit for r in responses] == [True, False]
        assert responses[0].result.circuit == reference_warm.result.circuit
        assert responses[1].result.circuit == reference_cold.result.circuit
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)

    RESULTS["sigkill_recovery"] = {"recovered_jobs": 1,
                                   "warm_hits": 1, "cold_compiles": 1}
    print_banner("chaos-smoke — SIGKILL mid-queue, journal recovery")
    print("  1 job wedged + SIGKILLed: recovered from journal, warm "
          "fingerprint served from cache, cold one compiled")

    OUTPUT.write_text(json.dumps({"chaos": RESULTS}, indent=2) + "\n",
                      encoding="utf-8")
    print(f"  -> {OUTPUT}")
