"""CompileRequest/CompileResponse: typing, fingerprints, provenance."""

import pytest

from repro.arch import get_architecture, grid
from repro.qubikos import generate
from repro.service import (
    CompileRequest,
    ServiceError,
    circuit_fingerprint,
    coupling_fingerprint,
    normalize_spec,
)


class TestFromInstance:
    def test_carries_circuit_device_and_name(self, small_instance):
        request = CompileRequest.from_instance(small_instance, spec="sabre",
                                               seed=3)
        assert request.circuit is small_instance.circuit
        assert request.device == small_instance.architecture
        assert request.instance == small_instance.name
        assert request.initial_mapping is None

    def test_router_only_pins_optimal_mapping(self, small_instance):
        request = CompileRequest.from_instance(small_instance,
                                               router_only=True)
        assert request.initial_mapping == small_instance.mapping()

    def test_options_ride_along(self, small_instance):
        request = CompileRequest.from_instance(small_instance, owner="bench")
        assert request.options == {"owner": "bench"}


class TestFingerprint:
    def test_deterministic(self, small_instance):
        a = CompileRequest.from_instance(small_instance, spec="sabre", seed=3)
        b = CompileRequest.from_instance(small_instance, spec="sabre", seed=3)
        assert a.fingerprint() == b.fingerprint()

    def test_seed_and_spec_change_the_key(self, small_instance):
        base = CompileRequest.from_instance(small_instance, spec="sabre",
                                            seed=3)
        other_seed = CompileRequest.from_instance(small_instance,
                                                  spec="sabre", seed=4)
        other_spec = CompileRequest.from_instance(small_instance,
                                                  spec="tketlike", seed=3)
        assert base.fingerprint() != other_seed.fingerprint()
        assert base.fingerprint() != other_spec.fingerprint()

    def test_pinned_mapping_changes_the_key(self, small_instance):
        free = CompileRequest.from_instance(small_instance, spec="sabre")
        pinned = CompileRequest.from_instance(small_instance, spec="sabre",
                                              router_only=True)
        assert free.fingerprint() != pinned.fingerprint()

    def test_provenance_fields_do_not_enter_the_key(self, small_instance):
        a = CompileRequest.from_instance(small_instance, spec="sabre",
                                         seed=3, note="alpha")
        b = CompileRequest.from_instance(small_instance, spec="sabre",
                                         seed=3, note="beta")
        b.instance = "renamed"
        assert a.fingerprint() == b.fingerprint()

    def test_spec_spellings_key_alike(self, small_instance):
        canonical = CompileRequest.from_instance(small_instance,
                                                 spec="tketlike", seed=3)
        alias = CompileRequest.from_instance(small_instance, spec="tket",
                                             seed=3)
        preset = CompileRequest.from_instance(small_instance,
                                              spec="tketlike-tool", seed=3)
        assert alias.fingerprint() == canonical.fingerprint()
        assert preset.fingerprint() == canonical.fingerprint()

    def test_circuit_name_is_not_content(self, small_instance):
        renamed = small_instance.circuit.copy(name="renamed")
        assert circuit_fingerprint(renamed) == \
            circuit_fingerprint(small_instance.circuit)

    def test_gate_stream_is_content(self, small_instance):
        from repro.circuit import cx

        tweaked = small_instance.circuit.copy()
        tweaked.append(cx(0, 1))
        assert circuit_fingerprint(tweaked) != \
            circuit_fingerprint(small_instance.circuit)

    def test_coupling_content_addressing(self):
        # Same graph under two names: identical fingerprints.
        assert coupling_fingerprint(get_architecture("grid3x3")) == \
            coupling_fingerprint(grid(3, 3))
        assert coupling_fingerprint(grid(3, 3)) != \
            coupling_fingerprint(grid(3, 4))

    def test_coupling_digest_is_pinned_and_computed_once(self, monkeypatch):
        from repro.service import fingerprint

        calls = []
        digest = fingerprint._digest
        monkeypatch.setattr(fingerprint, "_digest",
                            lambda text: calls.append(text) or digest(text))
        device = grid(3, 3)
        for _ in range(3):
            assert coupling_fingerprint(device) == (
                "a2be3ff0c93c4f2f0c202dd8a9fb1200"
                "a820fd9cc2eb9c991ae72ca970f6baf4")
        assert len(calls) == 1
        # A second graph object hashes its own edges once.
        assert coupling_fingerprint(grid(3, 3)) == coupling_fingerprint(device)
        assert len(calls) == 2


class TestNormalizeSpec:
    def test_alias_and_preset_resolution(self):
        assert normalize_spec("tket") == "tketlike"
        assert normalize_spec("sabre-tool") == "sabre"
        assert normalize_spec("staged-sabre") == \
            "greedy+skeleton+sabre-route+reinsert+validate"

    def test_argument_sorting(self):
        assert normalize_spec("lightsabre:workers=2,trials=8") == \
            normalize_spec("lightsabre:trials=8,workers=2")

    def test_distinct_arguments_stay_distinct(self):
        assert normalize_spec("lightsabre:trials=8") != \
            normalize_spec("lightsabre:trials=16")


class TestValidation:
    def test_unknown_device_raises_service_error(self, small_instance):
        request = CompileRequest(circuit=small_instance.circuit,
                                 device="warp-core-9")
        with pytest.raises(ServiceError, match="unknown device"):
            request.coupling()

    def test_bad_request_schema_version(self, small_instance):
        payload = CompileRequest.from_instance(small_instance).to_dict()
        payload["schema"] = 42
        with pytest.raises(ServiceError, match="schema version"):
            CompileRequest.from_dict(payload)


@pytest.fixture(scope="module")
def tiny_instance():
    device = get_architecture("grid3x3")
    return generate(device, num_swaps=1, num_two_qubit_gates=12, seed=2)


class TestResponseProvenance:
    def test_provenance_block(self, tiny_instance):
        from repro.service import CompilationService, code_fingerprint

        service = CompilationService()
        request = CompileRequest.from_instance(tiny_instance, spec="tket",
                                               seed=5, owner="bench")
        response = service.submit(request)
        prov = response.provenance
        assert prov["device"] == tiny_instance.architecture
        assert prov["spec"] == "tket"
        assert prov["normalized_spec"] == "tketlike"
        assert prov["seed"] == 5
        assert prov["instance"] == tiny_instance.name
        assert prov["options"] == {"owner": "bench"}
        assert prov["code"] == code_fingerprint()
        assert prov["cache"] == "miss"
        assert service.submit(request).provenance["cache"] == "hit"
