"""Unit tests for the gate primitives."""

import math

import pytest

from repro.circuit import (CircuitError, Gate, GateError, QuantumCircuit, cx,
                           h, rz, swap)
from repro.circuit.gates import random_single_qubit_gate
import random


class TestGateConstruction:
    def test_simple_gate(self):
        g = Gate("cx", (0, 1))
        assert g.num_qubits == 2
        assert g.is_two_qubit
        assert not g.is_swap

    def test_swap_flag(self):
        assert swap(0, 1).is_swap
        assert not cx(0, 1).is_swap

    def test_parametric_gate(self):
        g = rz(math.pi / 2, 3)
        assert g.params == (math.pi / 2,)
        assert g.qubits == (3,)

    def test_repeated_qubits_rejected(self):
        with pytest.raises(GateError):
            Gate("cx", (1, 1))

    def test_negative_qubit_rejected(self):
        with pytest.raises(GateError):
            Gate("h", (-1,))

    def test_empty_qubits_rejected(self):
        with pytest.raises(GateError):
            Gate("h", ())

    def test_wrong_param_count_rejected(self):
        with pytest.raises(GateError):
            Gate("rz", (0,))  # rz needs exactly one angle

    def test_gates_are_hashable_and_equal(self):
        assert cx(0, 1) == cx(0, 1)
        assert cx(0, 1) != cx(1, 0)
        assert len({cx(0, 1), cx(0, 1), cx(1, 2)}) == 2


class TestGateAccessors:
    def test_paper_index_notation(self):
        g = cx(4, 7)
        assert g[0] == 4
        assert g[1] == 7

    def test_qubit_pair_sorted(self):
        assert cx(7, 4).qubit_pair() == (4, 7)
        assert cx(4, 7).qubit_pair() == (4, 7)

    def test_qubit_pair_rejects_single_qubit(self):
        with pytest.raises(GateError):
            h(0).qubit_pair()

    def test_remap(self):
        g = cx(0, 1).remap({0: 5, 1: 3})
        assert g.qubits == (5, 3)
        assert g.name == "cx"

    def test_remap_preserves_params(self):
        g = rz(1.5, 0).remap({0: 9})
        assert g.params == (1.5,)
        assert g.qubits == (9,)

    def test_str_forms(self):
        assert str(cx(0, 1)) == "cx 0, 1"
        assert "rz(" in str(rz(0.5, 2))


class TestRandomSingleQubitGate:
    def test_produces_valid_single_qubit_gates(self):
        rng = random.Random(0)
        for _ in range(50):
            g = random_single_qubit_gate(rng, 3)
            assert g.num_qubits == 1
            assert g.qubits == (3,)

    def test_parametric_draws_have_angles(self):
        rng = random.Random(1)
        seen_param = False
        for _ in range(50):
            g = random_single_qubit_gate(rng, 0)
            if g.params:
                seen_param = True
                assert 0.0 <= g.params[0] <= 2 * math.pi + 1e-9
        assert seen_param


class TestValidationParity:
    """The hand-written ``Gate.__init__`` and the one-loop range check in
    ``QuantumCircuit`` keep the exact messages (and check order) of the
    per-gate validation they replaced."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Gate("h", ()), GateError,
         "gate 'h' must act on at least one qubit"),
        (lambda: Gate("cx", (1, 1)), GateError,
         "gate 'cx' has repeated qubits (1, 1)"),
        (lambda: Gate("ccx", (0, 2, 0)), GateError,
         "gate 'ccx' has repeated qubits (0, 2, 0)"),
        (lambda: Gate("cx", (-1, -1)), GateError,  # repeats checked first
         "gate 'cx' has repeated qubits (-1, -1)"),
        (lambda: Gate("cx", (0, -1)), GateError,
         "gate 'cx' has negative qubit index (0, -1)"),
        (lambda: Gate("h", (-1,)), GateError,
         "gate 'h' has negative qubit index (-1,)"),
        (lambda: Gate("rz", (0,)), GateError,
         "gate 'rz' expects 1 parameter(s), got 0"),
        (lambda: Gate("rzz", (0, 1), (1.0, 2.0)), GateError,
         "gate 'rzz' expects 1 parameter(s), got 2"),
        (lambda: QuantumCircuit.from_dict(
            {"num_qubits": 2, "gates": [["cx", [0, 1]], ["cx", [0, 2]]]}),
         CircuitError, "gate cx 0, 2 out of range for 2-qubit circuit"),
        (lambda: QuantumCircuit.from_dict(  # range error before a later
            {"num_qubits": 2,               # gate's own error, as before
             "gates": [["h", [3]], ["cx", [1, 1]]]}),
         CircuitError, "gate h 3 out of range for 2-qubit circuit"),
        (lambda: QuantumCircuit(2).append(Gate("h", (5,))), CircuitError,
         "gate h 5 out of range for 2-qubit circuit"),
        (lambda: QuantumCircuit(2, [cx(0, 1), cx(1, 3)]), CircuitError,
         "gate cx 1, 3 out of range for 2-qubit circuit"),
    ], ids=["empty", "repeated-2q", "repeated-3q", "repeated-before-negative",
            "negative-2q", "negative-1q", "param-count", "param-count-2q",
            "from-dict-range", "from-dict-order", "append-range",
            "constructor-range"])
    def test_literal_messages(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    def test_values_are_stored_unchanged(self):
        qubits, params = [0, 1], [0.5]
        g = Gate("rzz", qubits, params)
        assert g.qubits is qubits and g.params is params

    def test_frozen_hashable_picklable_replaceable(self):
        import dataclasses
        import pickle

        g = rz(0.25, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.name = "rx"
        assert pickle.loads(pickle.dumps(g)) == g
        assert hash(Gate("rz", (3,), (0.25,))) == hash(g)
        moved = dataclasses.replace(g, qubits=(4,))
        assert moved == Gate("rz", (4,), (0.25,))
        with pytest.raises(GateError, match="repeated"):
            dataclasses.replace(cx(0, 1), qubits=(2, 2))
