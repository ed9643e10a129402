"""``QuantumCircuit.from_dict`` keeps validated rows instead of gates.

The decoder must be indistinguishable from building one ``Gate`` per row
and range-checking it: the same exception type and message on a bad
payload, and otherwise the same ``to_dict()``, equality, fingerprint and
pickle round trip.  ``Gate`` objects appear only on first read.
"""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import get_architecture
from repro.circuit import Gate, QuantumCircuit
from repro.qubikos import generate
from repro.service import CompileRequest, circuit_fingerprint


def reference_from_dict(payload):
    """Reference decoder: one validated ``Gate`` per row, then the
    circuit's range check."""
    gates = (
        Gate(entry[0], tuple(entry[1]),
             tuple(entry[2]) if len(entry) > 2 else ())
        for entry in payload["gates"]
    )
    return QuantumCircuit(payload["num_qubits"], gates,
                          name=payload.get("name", "circuit"))


def outcome(decode, payload):
    try:
        return decode(payload), None
    except Exception as exc:  # noqa: BLE001 - compared below
        return None, (type(exc), str(exc))


qubit = st.one_of(
    st.integers(min_value=-2, max_value=5),
    st.booleans(),
    st.floats(min_value=-2, max_value=5, allow_nan=False),
)
params = st.lists(st.floats(allow_nan=False, allow_infinity=False,
                            width=32), max_size=3)


@st.composite
def rows(draw):
    name = draw(st.sampled_from(["h", "rz", "u3", "cx", "swap", "rzz",
                                 "ccx"]))
    arity = draw(st.sampled_from([0, 1, 2, 2, 2, 3]))
    qubits = draw(st.lists(qubit, min_size=arity, max_size=arity))
    if draw(st.booleans()):
        distinct = draw(st.permutations(range(6)))[:arity]
        qubits = list(distinct)  # mostly-valid rows reach the range check
    shape = draw(st.sampled_from(["bare", "params", "empty-params"]))
    if shape == "bare":
        return [name, qubits]
    if shape == "empty-params":
        return [name, qubits, []]
    return [name, qubits, draw(params)]


payloads = st.fixed_dictionaries(
    {"num_qubits": st.integers(min_value=-1, max_value=6),
     "gates": st.lists(rows(), max_size=8)},
    optional={"name": st.text(max_size=3)},
)


class TestRowsDecodeMatchesGateDecode:
    @given(payloads)
    @settings(max_examples=400, deadline=None)
    def test_same_errors_or_same_circuit(self, payload):
        got, got_error = outcome(QuantumCircuit.from_dict, payload)
        want, want_error = outcome(reference_from_dict, payload)
        assert got_error == want_error
        if want is None:
            return
        assert "_gates" not in got.__dict__  # rows kept, no gates yet
        assert got.to_dict() == want.to_dict()
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        assert circuit_fingerprint(got) == circuit_fingerprint(want)
        assert len(got) == len(want)
        assert "_gates" not in got.__dict__
        assert pickle.loads(pickle.dumps(got)) == want
        assert got == want and want == got

    @pytest.mark.parametrize("payload", [
        {"num_qubits": 2, "gates": []},
        {"num_qubits": 3, "gates": [["cx", [0, 0]]]},
        {"num_qubits": 3, "gates": [["cx", [0, -1]]]},
        {"num_qubits": 3, "gates": [["h", []]]},
        {"num_qubits": 3, "gates": [["cx", [0, 3]], ["cx", [1, 1]]]},
        {"num_qubits": 3, "gates": [["cx", [True, 1]]]},
        {"num_qubits": 3, "gates": [["cx", [0.0, 1.0]]]},
        {"num_qubits": 3, "gates": [["rz", [0]]]},
        {"num_qubits": 3, "gates": [["rz", [0], []]]},
        {"num_qubits": 3, "gates": [["h", [0], []]]},
        {"num_qubits": 3, "gates": [["ccx", [0, 1, 2]], ["ccx", [0, 1, 0]]]},
        {"num_qubits": 0, "gates": [["h", [0]]]},
        {"num_qubits": 3, "gates": [["cx"]]},
        {"num_qubits": 3, "gates": [["cx", 5]]},
        {"num_qubits": 3, "gates": 7},
        {"num_qubits": 3},
        {"gates": []},
    ], ids=["empty", "repeated", "negative", "no-qubits", "range-first",
            "bool-repeat", "float", "param-count", "empty-params-parametric",
            "empty-params", "three-qubit", "zero-qubits", "short-row",
            "scalar-qubits", "scalar-gates", "no-gates", "no-num-qubits"])
    def test_named_cases(self, payload):
        got, got_error = outcome(QuantumCircuit.from_dict, payload)
        want, want_error = outcome(reference_from_dict, payload)
        assert got_error == want_error
        if want is not None:
            assert got.to_dict() == want.to_dict() and got == want


class TestGatesBuiltOnFirstRead:
    PAYLOAD = {"num_qubits": 3, "name": "c",
               "gates": [["h", [0]], ["cx", [0, 1]], ["rz", [2], [0.5]]]}

    @pytest.mark.parametrize("read", [
        lambda c: c.gates, lambda c: list(c), lambda c: c[1],
        lambda c: c == QuantumCircuit(3), lambda c: c.swap_count(),
        lambda c: c.append(Gate("x", (1,))),
    ], ids=["gates", "iter", "index", "eq", "query", "append"])
    def test_read_materializes_once(self, read):
        circuit = QuantumCircuit.from_dict(self.PAYLOAD)
        read(circuit)
        assert "_rows" not in circuit.__dict__
        assert circuit.to_dict()["gates"][:3] == self.PAYLOAD["gates"]

    def test_mutation_after_decode_is_seen_by_to_dict(self):
        circuit = QuantumCircuit.from_dict(self.PAYLOAD)
        circuit.append(Gate("swap", (1, 2)))
        assert len(circuit) == 4
        assert circuit.to_dict()["gates"][-1] == ["swap", [1, 2]]

    def test_to_dict_lists_are_fresh(self):
        circuit = QuantumCircuit.from_dict(self.PAYLOAD)
        circuit.to_dict()["gates"][0][1].append(9)
        assert circuit.to_dict() == self.PAYLOAD


#: ``request_fingerprint`` of the golden requests of
#: ``tests/qls/test_perf_equivalence.py`` (its ``CONFIGS``): the sabre
#: request (seed 3) and the router-only tketlike one (seed 13).  Cache
#: keys must not move when the decoder changes; a ``CACHE_EPOCH`` or
#: version bump moves them by design.
GOLDEN_REQUEST_FINGERPRINTS = {
    "aspen4": ((3, 80, 11), (
        "eef9da095ab6bd5f58d081228ebb93ea3923396b9807a48800c031806e27094d",
        "a2951f8f7fecfa355d5d08e847a0159249df82efed1a987b3854880e6334b7d3")),
    "sycamore54": ((4, 120, 5), (
        "23a632f196a47e6ef061490844f36ab7fea7466890ea114add1af8b565ad79dc",
        "61c9b51275fcfc7baa9e5e9096e56afec4b0606e712bddfb5877e178b13fdf94")),
    "rochester53": ((4, 120, 5), (
        "3f6fc98eb9a9e4618c531202894de6a0195d63b9e6896775891da93945490ac2",
        "f06dd05e30f5db0d13b0ac46d514fc8485e6d5c7f1901bee9f1f9a81e8752938")),
    "eagle127": ((3, 120, 5), (
        "0506ffc372770c1b651625fafd85a3bbc373e0bb9d20e82267580656abcc00d6",
        "0ca666831c92264e2649d93128593e91a3167eab5222d80428fff610d7191214")),
}


@pytest.mark.parametrize("arch", sorted(GOLDEN_REQUEST_FINGERPRINTS))
def test_golden_request_fingerprints_unchanged(arch):
    (swaps, gates, seed), expected = GOLDEN_REQUEST_FINGERPRINTS[arch]
    instance = generate(get_architecture(arch), num_swaps=swaps,
                        num_two_qubit_gates=gates, seed=seed)
    requests = (
        CompileRequest.from_instance(instance, spec="sabre", seed=3),
        CompileRequest.from_instance(instance, spec="tketlike", seed=13,
                                     router_only=True),
    )
    for request, fingerprint in zip(requests, expected):
        decoded = CompileRequest.from_dict(json.loads(request.canonical_json()))
        assert request.fingerprint() == fingerprint
        assert decoded.fingerprint() == fingerprint
        assert "_gates" not in decoded.circuit.__dict__
