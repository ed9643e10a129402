"""CompilationService: cache-first submission, batching, determinism."""

import pytest

from repro.arch import get_architecture
from repro.evalx.harness import evaluate
from repro.obs import metrics as obs_metrics
from repro.pipeline import PipelineTool, build_pipeline
from repro.qls import QLSError, SabreLayout, validate_transpiled
from repro.qubikos import generate
from repro.service import (
    CompilationService,
    CompileRequest,
    ResultCache,
)


@pytest.fixture(scope="module")
def device():
    return get_architecture("grid3x3")


@pytest.fixture(scope="module")
def instances(device):
    return [generate(device, num_swaps=2, num_two_qubit_gates=24,
                     seed=40 + k) for k in range(3)]


@pytest.fixture(scope="module")
def requests(instances):
    return [CompileRequest.from_instance(instance, spec=spec, seed=5)
            for instance in instances
            for spec in ("sabre", "tketlike")]


class TestSubmit:
    def test_miss_then_bit_identical_hit(self, device, requests):
        service = CompilationService()
        first = service.submit(requests[0])
        second = service.submit(requests[0])
        assert not first.cache_hit and second.cache_hit
        assert second.result.circuit == first.result.circuit
        assert second.result.initial_mapping == first.result.initial_mapping
        assert second.result.swap_count == first.result.swap_count
        assert second.result.stages == first.result.stages
        assert second.compile_seconds == first.compile_seconds
        report = validate_transpiled(requests[0].circuit,
                                     second.result.circuit, device,
                                     second.result.initial_mapping)
        assert report.valid, report.error

    def test_result_matches_direct_pipeline_run(self, device, requests):
        request = requests[0]
        response = CompilationService().submit(request)
        direct = build_pipeline(request.spec, seed=request.seed).run(
            request.circuit, device
        )
        assert response.result.circuit == direct.circuit
        assert response.result.swap_count == direct.swap_count
        assert response.result.initial_mapping == direct.initial_mapping

    def test_cache_disabled(self, requests):
        service = CompilationService(cache=False)
        assert service.cache is None
        assert not service.submit(requests[0]).cache_hit
        assert not service.submit(requests[0]).cache_hit

    def test_pipeline_errors_propagate(self, small_instance):
        request = CompileRequest(circuit=small_instance.circuit,
                                 device="grid3x3", spec="no-such-stage")
        with pytest.raises(QLSError, match="unknown pipeline stage"):
            CompilationService().submit(request)


class TestSubmitMany:
    def test_serial_identical_ordering(self, requests):
        batch = CompilationService().submit_many(requests)
        serial = [CompilationService(cache=ResultCache()).submit(r)
                  for r in requests]
        # (fresh per-request services: every serial response is a miss)
        assert [b.request_fingerprint for b in batch] == \
            [s.request_fingerprint for s in serial]
        for b, s in zip(batch, serial):
            assert b.result.circuit == s.result.circuit
            assert b.result.swap_count == s.result.swap_count

    def test_duplicates_compile_once(self, requests):
        service = CompilationService()
        batch = service.submit_many([requests[0], requests[1], requests[0]])
        assert [r.cache_hit for r in batch] == [False, False, True]
        assert batch[2].result.circuit == batch[0].result.circuit

    def test_warm_batch_is_all_hits(self, requests):
        service = CompilationService()
        cold = service.submit_many(requests)
        warm = service.submit_many(requests)
        assert all(not r.cache_hit for r in cold)
        assert all(r.cache_hit for r in warm)
        for c, w in zip(cold, warm):
            assert w.result.circuit == c.result.circuit

    def test_progress_streams_every_response(self, requests):
        seen = []
        responses = CompilationService().submit_many(
            requests, progress=seen.append
        )
        assert sorted(r.request_fingerprint for r in seen) == \
            sorted(r.request_fingerprint for r in responses)

    def test_map_yields_in_request_order(self, requests):
        service = CompilationService()
        mapped = list(service.map(requests))
        assert [m.request_fingerprint for m in mapped] == \
            [r.fingerprint() for r in requests]


class _FailingPool:
    """Pool whose submissions all die at the transport layer."""

    def __init__(self):
        self.submissions = 0

    def submit(self, fn, *args):
        from concurrent.futures import BrokenExecutor, Future

        self.submissions += 1
        future = Future()
        future.set_exception(BrokenExecutor("worker killed"))
        return future


class TestPoisonedEntryRecovery:
    """Stale/corrupt cache entries are misses, recomputed and healed —
    never crashes, never false tool failures."""

    def test_submit_recovers_and_heals(self, requests):
        service = CompilationService()
        good = service.submit(requests[0])
        key = good.request_fingerprint
        service.cache.put(key, {"entry_version": 99, "bogus": True})
        healed = service.submit(requests[0])  # must not raise
        assert not healed.cache_hit  # recomputed
        assert healed.result.circuit == good.result.circuit
        assert service.submit(requests[0]).cache_hit  # store healed

    def test_submit_many_treats_poison_as_miss(self, requests):
        service = CompilationService()
        reference = service.submit_many(requests)
        key = reference[0].request_fingerprint
        service.cache.put(key, {"entry_version": 1,
                                "result": {"schema": 99}})
        warm = service.submit_many(requests)
        assert not warm[0].cache_hit
        assert warm[0].result.circuit == reference[0].result.circuit
        assert all(r.cache_hit for r in warm[1:])

    def test_stale_entries_reclassified_in_stats(self, requests):
        service = CompilationService()
        good = service.submit(requests[0])
        service.cache.put(good.request_fingerprint, {"entry_version": 99})
        before = service.cache.stats.hits
        service.submit(requests[0])  # decode fails -> miss, not a hit
        stats = service.cache.stats
        assert stats.stale == 1
        assert stats.hits == before  # the raw lookup hit was reclassified

    def test_evaluate_recomputes_instead_of_false_failure(self, instances):
        tools = [PipelineTool(build_pipeline("sabre", seed=3))]
        cache = ResultCache()
        cold = evaluate(tools, instances, cache=cache)
        poisoned_key = cache.keys()[0]
        cache.put(poisoned_key, {"entry_version": 99})
        warm = evaluate(tools, instances, cache=cache)
        assert all(r.valid for r in warm.records)  # no false tool failure
        assert sum(1 for r in warm.records if not r.cache_hit) == 1
        assert [r.result_key() for r in warm.records] == \
            [r.result_key() for r in cold.records]
        healed = evaluate(tools, instances, cache=cache)
        assert all(r.cache_hit for r in healed.records)


class TestVerifyOnce:
    """A cache entry is decoded once, then served as its verified result
    text; ``.result`` decodes lazily and equals an eager decode."""

    @staticmethod
    def _count_decodes(monkeypatch):
        from repro.service import service as service_module

        calls = []
        real = service_module.decode_entry
        monkeypatch.setattr(service_module, "decode_entry",
                            lambda entry: calls.append(1) or real(entry))
        return calls

    def test_hits_after_the_first_serve_never_decode(self, requests,
                                                     monkeypatch):
        service = CompilationService()
        decodes = self._count_decodes(monkeypatch)
        service.submit(requests[0])      # miss: decoded and verified
        service.submit_many(requests)    # one more miss per new request
        service.submit(requests[0])
        warm = service.submit_many(requests)
        assert all(r.cache_hit for r in warm)
        assert len(decodes) == len(requests)  # once per entry, ever
        assert all("result" not in r.__dict__ for r in warm)  # still lazy

    def test_lazy_result_equals_eager_decode(self, requests):
        import json
        import pickle

        from repro.service import CompileResponse, canonical_json

        service = CompilationService()
        first = service.submit(requests[1])
        lazy = service.submit(requests[1])
        assert "result" not in lazy.__dict__
        wire = lazy.canonical_json()
        eager = CompileResponse.from_dict(json.loads(wire))
        assert lazy.result == eager.result == first.result
        assert type(lazy.result) is type(first.result)
        assert canonical_json(lazy.to_dict()) == wire
        assert pickle.loads(pickle.dumps(
            service.submit(requests[1]))).result == first.result
        assert lazy.result is lazy.result  # decoded once, then kept

    def test_undecodable_disk_entry_is_never_spliced(self, requests,
                                                     tmp_path):
        """Good envelope, unknown result schema, promoted from disk: a
        miss counted as stale, and the recompute heals the file."""
        import json

        service = CompilationService(
            cache=ResultCache(capacity=1, directory=tmp_path))
        good = service.submit(requests[0])
        key = good.request_fingerprint
        service.submit(requests[1])  # evicts the verified entry from memory
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({
            "schema": 1, "key": key,
            "entry": {"entry_version": 1, "result": {"schema": 99}}}))
        again = service.submit(requests[0])
        assert not again.cache_hit
        assert service.cache.stats.stale == 1
        assert again.result == good.result.__class__.from_dict(
            json.loads(again.canonical_json())["result"])
        assert again.result.circuit == good.result.circuit
        healed = json.loads(path.read_text())["entry"]["result"]
        assert healed["schema"] == 1
        assert service.submit(requests[0]).cache_hit


class TestBatchFailureRecovery:
    def test_pool_casualties_recompiled_in_parent(self, requests):
        reference = CompilationService().submit_many(requests)
        pool = _FailingPool()
        service = CompilationService(pool=pool)
        batch = service.submit_many(requests)
        assert pool.submissions == len(requests)
        assert [b.request_fingerprint for b in batch] == \
            [r.request_fingerprint for r in reference]
        for b, r in zip(batch, reference):
            assert b.result.circuit == r.result.circuit
        # the recompilations still warmed the cache
        assert all(r.cache_hit for r in service.submit_many(requests))


class TestPooledPipelineErrors:
    """A pipeline error in a pooled batch reaches the caller unchanged
    and is not mistaken for a pool failure."""

    @pytest.mark.parametrize("source, spec, match", [
        # rejected in the parent, while the batch is fingerprinted
        ("grid3x3", "no-such-stage", "unknown pipeline stage"),
        # rejected inside the worker that compiles it
        ("aspen4", "sabre", "circuit needs 16 qubits"),
    ])
    def test_error_propagates_without_fallback(self, requests, source,
                                               spec, match):
        circuit = generate(get_architecture(source), num_swaps=2,
                           num_two_qubit_gates=20, seed=1).circuit
        bad = CompileRequest(circuit=circuit, device="grid3x3", spec=spec)
        registry = obs_metrics.MetricsRegistry()
        service = CompilationService(workers=2)
        with obs_metrics.enabled(registry):
            with pytest.raises(QLSError, match=match):
                service.submit_many(requests[:2] + [bad])
        assert service.pool_fallbacks == 0
        assert registry.counter("repro_pool_fallbacks_total").total() == 0


class TestEvaluateIntegration:
    """evaluate(..., cache=/service=) only pays for cache misses."""

    def test_warm_rerun_is_all_hits_and_record_identical(self, instances):
        tools = [PipelineTool(build_pipeline("sabre", seed=3)),
                 PipelineTool(build_pipeline("tketlike", seed=13))]
        cache = ResultCache()
        cold = evaluate(tools, instances, cache=cache)
        warm = evaluate(tools, instances, cache=cache)
        plain = evaluate(tools, instances)
        assert not any(r.cache_hit for r in cold.records)
        assert all(r.cache_hit for r in warm.records)
        keys = [r.result_key() for r in plain.records]
        assert [r.result_key() for r in cold.records] == keys
        assert [r.result_key() for r in warm.records] == keys

    def test_service_param_uses_the_service_cache(self, instances):
        service = CompilationService()
        tools = [PipelineTool(build_pipeline("sabre", seed=3))]
        evaluate(tools, instances, service=service)
        warm = evaluate(tools, instances, service=service)
        assert all(r.cache_hit for r in warm.records)

    def test_router_only_mode_keys_separately(self, instances):
        tools = [PipelineTool(build_pipeline("sabre", seed=3))]
        cache = ResultCache()
        evaluate(tools, instances, cache=cache)
        pinned = evaluate(tools, instances, router_only=True, cache=cache)
        # distinct mode: no cross-contamination from the full-mode entries
        assert not any(r.cache_hit for r in pinned.records)
        warm = evaluate(tools, instances, router_only=True, cache=cache)
        assert all(r.cache_hit for r in warm.records)
        assert [r.result_key() for r in warm.records] == \
            [r.result_key() for r in pinned.records]

    def test_tool_configuration_keys_separately(self, instances):
        cache = ResultCache()
        evaluate([PipelineTool(build_pipeline("sabre", seed=3))], instances,
                 cache=cache)
        other_seed = evaluate([PipelineTool(build_pipeline("sabre", seed=4))],
                              instances, cache=cache)
        assert not any(r.cache_hit for r in other_seed.records)

    def test_parallel_cache_matches_serial(self, instances):
        tools = [PipelineTool(build_pipeline("sabre", seed=3))]
        cache = ResultCache()
        cold = evaluate(tools, instances, workers=2, cache=cache)
        warm = evaluate(tools, instances, workers=2, cache=cache)
        plain = evaluate(tools, instances)
        assert all(r.cache_hit for r in warm.records)
        assert [r.result_key() for r in cold.records] == \
            [r.result_key() for r in plain.records]
        assert [r.result_key() for r in warm.records] == \
            [r.result_key() for r in plain.records]


class TestEvaluateSharesTheServiceKey:
    """A cached evaluate() run and the compilation service key pairs
    alike: each warms the other's cache."""

    SPECS = (("sabre", 3), ("tketlike", 13))

    def _tools(self):
        return [PipelineTool(build_pipeline(spec, seed=seed))
                for spec, seed in self.SPECS]

    def _requests(self, instances, router_only=False):
        return [CompileRequest.from_instance(instance, spec=spec, seed=seed,
                                             router_only=router_only)
                for instance in instances for spec, seed in self.SPECS]

    def test_evaluate_warms_the_service(self, instances):
        cache = ResultCache()
        run = evaluate(self._tools(), instances, cache=cache)
        service = CompilationService(cache=cache)
        for record, request in zip(run.records, self._requests(instances)):
            response = service.submit(request)
            assert response.cache_hit
            fresh = CompilationService().submit(request).result
            assert response.result.circuit == fresh.circuit
            assert response.result.initial_mapping == fresh.initial_mapping
            assert response.result.swap_count == fresh.swap_count \
                == record.observed_swaps

    @pytest.mark.parametrize("router_only", [False, True])
    def test_service_warms_evaluate(self, instances, router_only):
        cache = ResultCache()
        CompilationService(cache=cache).submit_many(
            self._requests(instances, router_only))
        warm = evaluate(self._tools(), instances, router_only=router_only,
                        cache=cache)
        plain = evaluate(self._tools(), instances, router_only=router_only)
        assert all(r.cache_hit for r in warm.records)
        assert [r.result_key() for r in warm.records] == \
            [r.result_key() for r in plain.records]

    def test_opaque_tool_is_refused_and_nothing_is_stored(self, instances):
        cache = ResultCache()
        tools = [PipelineTool(build_pipeline("sabre", seed=3)),
                 SabreLayout(seed=3)]
        with pytest.raises(ValueError, match="spec-built.*sabre"):
            evaluate(tools, instances, cache=cache)
        assert len(cache) == 0


class TestEvaluateFailingPair:
    """One failing compile costs its own record, never the whole grid."""

    @pytest.fixture(scope="class")
    def grid(self, instances):
        # exact:max_swaps=1 cannot route a two-SWAP instance: it raises
        tools = [PipelineTool(build_pipeline("exact:max_swaps=1")),
                 PipelineTool(build_pipeline("sabre", seed=3))]
        return tools, instances[:2]

    def test_every_route_records_the_failure_alike(self, grid):
        tools, instances = grid
        plain = evaluate(tools, instances)
        keys = [r.result_key() for r in plain.records]
        assert [r.valid for r in plain.records] == [False, True] * 2
        assert all("exhausted its budget" in r.error
                   for r in plain.records[::2])
        runs = [
            evaluate(tools, instances, cache=ResultCache()),
            evaluate(tools, instances, service=CompilationService()),
            evaluate(tools, instances, service=CompilationService(),
                     workers=2),
        ]
        for run in runs:
            assert [r.result_key() for r in run.records] == keys

    def test_remote_failure_is_recorded_per_pair(self, grid):
        from repro.service import ServiceClient, ServiceServer

        tools, instances = grid
        with ServiceServer(CompilationService()) as server:
            run = evaluate(tools, instances,
                           service=ServiceClient(server.url))
        assert [r.valid for r in run.records] == [False, True] * 2
        assert all(r.error.startswith("RemoteServiceError")
                   for r in run.records[::2])

    def test_unreachable_server_aborts_the_run(self, grid):
        import socket

        from repro.service import RemoteServiceError, ServiceClient

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        tools, instances = grid
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5)
        with pytest.raises(RemoteServiceError) as excinfo:
            evaluate(tools[1:], instances, service=client)
        assert excinfo.value.status is None
