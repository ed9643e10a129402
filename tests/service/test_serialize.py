"""Round-trip tests: serialize -> deserialize is bit-identical.

The cache contract rests on these: a cache hit returns a result
reconstructed from canonical JSON, so every serializable type must
round-trip exactly — gate streams, float parameters and timings, stage
records, mappings, metadata.
"""

import dataclasses
import hashlib
import json
import math
import random
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit
from repro.circuit.gates import (
    GATE_PARAM_COUNTS,
    ONE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    Gate,
)
from repro.evalx.harness import RunRecord, evaluate
from repro.pipeline import PipelineResult, StageRecord, build_pipeline
from repro.qls.base import _RESULT_TYPES, QLSResult
from repro.qubikos import Mapping
from repro.service import (
    CompilationService,
    CompileRequest,
    CompileResponse,
    canonical_json,
)


def circuit_hash(circuit):
    payload = "\n".join(str(g) for g in circuit.gates)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def json_round_trip(payload):
    """Through actual JSON text, as the disk cache stores it."""
    return json.loads(canonical_json(payload))


# -- circuits -----------------------------------------------------------------

@st.composite
def circuits(draw):
    num_qubits = draw(st.integers(min_value=2, max_value=8))
    names_1q = sorted(ONE_QUBIT_GATES)
    names_2q = sorted(TWO_QUBIT_GATES)
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        if draw(st.booleans()):
            name = draw(st.sampled_from(names_1q))
            qubits = (draw(st.integers(0, num_qubits - 1)),)
        else:
            name = draw(st.sampled_from(names_2q))
            a = draw(st.integers(0, num_qubits - 1))
            b = draw(st.integers(0, num_qubits - 2))
            if b >= a:
                b += 1
            qubits = (a, b)
        arity = GATE_PARAM_COUNTS.get(name, 0)
        params = tuple(
            draw(st.floats(allow_nan=False, allow_infinity=False,
                           min_value=-10, max_value=10))
            for _ in range(arity)
        )
        gates.append(Gate(name, qubits, params))
    return QuantumCircuit(num_qubits, gates,
                          name=draw(st.sampled_from(["c", "circuit", "x1"])))


class TestCircuitRoundTrip:
    @given(circuits())
    @settings(max_examples=50, deadline=None)
    def test_bit_identical(self, circuit):
        back = QuantumCircuit.from_dict(json_round_trip(circuit.to_dict()))
        assert back == circuit
        assert back.name == circuit.name
        assert back.num_qubits == circuit.num_qubits
        assert circuit_hash(back) == circuit_hash(circuit)

    def test_instance_circuits_round_trip(self, small_instance):
        for circuit in (small_instance.circuit, small_instance.witness):
            back = QuantumCircuit.from_dict(json_round_trip(circuit.to_dict()))
            assert back == circuit


class TestMappingRoundTrip:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_complete_mapping(self, seed):
        mapping = Mapping.random_complete(9, random.Random(seed))
        back = Mapping.from_pairs(json_round_trip(mapping.to_pairs()))
        assert back == mapping

    def test_partial_mapping(self):
        mapping = Mapping({0: 4, 2: 1, 5: 0})
        back = Mapping.from_pairs(json_round_trip(mapping.to_pairs()))
        assert back == mapping
        assert back.to_dict() == {0: 4, 2: 1, 5: 0}


# -- results ------------------------------------------------------------------

class TestResultRoundTrip:
    def test_pipeline_result_bit_identical(self, small_instance, grid33):
        result = build_pipeline("greedy+sabre", seed=5).run(
            small_instance.circuit, grid33
        )
        back = QLSResult.from_dict(json_round_trip(result.to_dict()))
        assert isinstance(back, PipelineResult)
        assert back.circuit == result.circuit
        assert circuit_hash(back.circuit) == circuit_hash(result.circuit)
        assert back.initial_mapping == result.initial_mapping
        assert back.swap_count == result.swap_count
        assert back.runtime_seconds == result.runtime_seconds
        assert back.metadata == result.metadata
        assert back.stages == result.stages  # per-stage records, exact floats

    def test_plain_result_round_trip(self, small_instance, grid33):
        from repro.qls import SabreLayout

        result = SabreLayout(seed=3).run(small_instance.circuit, grid33)
        back = QLSResult.from_dict(json_round_trip(result.to_dict()))
        assert type(back) is QLSResult
        assert back.circuit == result.circuit
        assert back.initial_mapping == result.initial_mapping
        assert back.swap_count == result.swap_count

    def test_stage_record_round_trip(self):
        record = StageRecord(name="sabre", seconds=0.1234567891234,
                             swaps_after=17)
        assert StageRecord.from_dict(json_round_trip(record.to_dict())) \
            == record

    def test_unknown_schema_version_rejected(self, small_instance, grid33):
        result = build_pipeline("sabre", seed=3).run(
            small_instance.circuit, grid33
        )
        payload = result.to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema version"):
            QLSResult.from_dict(payload)

    def test_unknown_result_type_rejected(self, small_instance, grid33):
        result = build_pipeline("sabre", seed=3).run(
            small_instance.circuit, grid33
        )
        payload = result.to_dict()
        payload["type"] = "MysteryResult"
        with pytest.raises(ValueError, match="unknown result type"):
            QLSResult.from_dict(payload)


def wire_classes():
    """Every dataclass that can cross the wire inside a CompileResponse:
    the dataclasses named by field types (through ``List[...]`` and the
    like) reachable from ``CompileResponse`` and from every registered
    result type, which ``QLSResult.from_dict`` may dispatch to."""
    roots = [CompileResponse, *_RESULT_TYPES.values()]
    queue, seen = list(roots), []
    while queue:
        cls = queue.pop()
        if cls in seen or not dataclasses.is_dataclass(cls):
            continue
        seen.append(cls)
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            types = [hints[field.name]]
            while types:
                tp = types.pop()
                if isinstance(tp, type):
                    queue.append(tp)
                types.extend(typing.get_args(tp))
    return roots, seen


class TestWireCoverage:
    """Responses cross process and version boundaries (HTTP, the disk
    cache, the job journal), so every class they can carry round-trips
    and every root writes a schema version old readers can reject."""

    def test_every_reachable_dataclass_round_trips(self):
        _, classes = wire_classes()
        names = {cls.__name__ for cls in classes}
        assert names >= {"CompileResponse", "QLSResult", "PipelineResult",
                         "StageRecord"}
        for cls in classes:
            for method in ("to_dict", "from_dict"):
                assert callable(getattr(cls, method, None)), \
                    f"{cls.__name__} lacks {method}"

    def test_every_root_writes_a_schema_version(self, small_instance,
                                                grid33):
        from repro.qls import SabreLayout

        response = CompilationService().submit(CompileRequest.from_instance(
            small_instance, spec="sabre", seed=5))
        payloads = {type(obj): obj.to_dict() for obj in (
            response, response.result,
            SabreLayout(seed=3).run(small_instance.circuit, grid33))}
        roots, _ = wire_classes()
        assert set(payloads) == set(roots)
        for cls, payload in payloads.items():
            assert isinstance(payload.get("schema"), int), cls.__name__


class TestRequestRoundTrip:
    """QubikosInstance-derived requests survive the JSONL wire format."""

    @pytest.mark.parametrize("router_only", [False, True])
    def test_request_round_trip_preserves_fingerprint(self, small_instance,
                                                      router_only):
        request = CompileRequest.from_instance(
            small_instance, spec="lightsabre:trials=4", seed=7,
            router_only=router_only, note="demo",
        )
        back = CompileRequest.from_dict(json_round_trip(request.to_dict()))
        assert back.circuit == request.circuit
        assert back.device == request.device
        assert back.spec == request.spec
        assert back.seed == request.seed
        assert back.initial_mapping == request.initial_mapping
        assert back.instance == request.instance
        assert back.options == request.options
        assert back.fingerprint() == request.fingerprint()


class TestRunRecordRoundTrip:
    def test_records_round_trip(self, small_instance, grid33):
        from repro.qls import SabreLayout, TketLikeRouter

        run = evaluate([SabreLayout(seed=3), TketLikeRouter(seed=13)],
                       [small_instance])
        for record in run.records:
            back = RunRecord.from_dict(json_round_trip(record.to_dict()))
            assert back == record
            assert back.result_key() == record.result_key()

    def test_nan_ratio_round_trips(self):
        record = RunRecord(
            tool="t", instance="i", architecture="grid3x3",
            optimal_swaps=2, observed_swaps=-1, swap_ratio=float("nan"),
            runtime_seconds=0.5, valid=False, error="boom",
        )
        back = RunRecord.from_dict(json_round_trip(record.to_dict()))
        assert math.isnan(back.swap_ratio)
        assert back.result_key() == record.result_key()

    def test_unknown_schema_rejected(self):
        record = RunRecord(
            tool="t", instance="i", architecture="grid3x3",
            optimal_swaps=2, observed_swaps=2, swap_ratio=1.0,
            runtime_seconds=0.5, valid=True,
        )
        payload = record.to_dict()
        payload["schema"] = 0
        with pytest.raises(ValueError, match="schema version"):
            RunRecord.from_dict(payload)
