"""Quantum circuit container.

A :class:`QuantumCircuit` is an ordered gate list over ``num_qubits`` program
qubits.  It is deliberately minimal — the layout-synthesis pipeline needs the
gate *sequence* (for dependency analysis) and nothing else — but supports the
editing operations the QUBIKOS generator uses: append, insert, compose,
qubit remapping, and filtered views of the two-qubit skeleton.

A circuit decoded by :meth:`QuantumCircuit.from_dict` keeps its validated
``(name, qubits, params)`` rows and builds its :class:`Gate` objects only
when something first reads them: ``len`` and ``to_dict`` (and so every
fingerprint) work from the rows, which is all a served cache hit needs.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gates import Gate, GateError, check_gate


class CircuitError(ValueError):
    """Raised for structurally invalid circuit operations."""


class QuantumCircuit:
    """An ordered sequence of gates on ``num_qubits`` program qubits."""

    def __init__(self, num_qubits: int, gates: Optional[Iterable[Gate]] = None,
                 name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise CircuitError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: List[Gate] = []
        if gates is not None:
            self._extend_checked(gates)

    # -- basic container protocol ------------------------------------------

    def __getattr__(self, name: str) -> object:
        # Reached only for attributes missing from the instance: the
        # ``_gates`` of a ``from_dict`` circuit, built from its rows on
        # first read (the rows go, so every later edit sees one list).
        rows = self.__dict__.get("_rows")
        if name != "_gates" or rows is None:
            raise AttributeError(name)
        gates = [Gate(*row) for row in rows]
        self._gates = gates
        del self._rows
        return gates

    def __len__(self) -> int:
        rows = self.__dict__.get("_rows")
        return len(rows if rows is not None else self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index):
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._gates == other._gates

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """Immutable snapshot of the gate sequence."""
        return tuple(self._gates)

    # -- mutation ------------------------------------------------------------

    def _range_error(self, gate: Gate) -> CircuitError:
        return CircuitError(
            f"gate {gate} out of range for {self.num_qubits}-qubit circuit")

    def _check(self, gate: Gate) -> None:
        if max(gate.qubits) >= self.num_qubits:
            raise self._range_error(gate)

    def _extend_checked(self, gates: Iterable[Gate]) -> None:
        """Range-check and append ``gates`` in one loop (the bulk path
        behind the constructor and ``extend``); same errors, in the same
        order, as one ``append`` per gate."""
        num_qubits = self.num_qubits
        push = self._gates.append
        for gate in gates:
            if max(gate.qubits) >= num_qubits:
                raise self._range_error(gate)
            push(gate)

    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append ``gate`` and return ``self`` for chaining."""
        self._check(gate)
        self._gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        """Append every gate in ``gates``."""
        self._extend_checked(gates)
        return self

    def insert(self, position: int, gate: Gate) -> "QuantumCircuit":
        """Insert ``gate`` before sequence index ``position``."""
        self._check(gate)
        if not 0 <= position <= len(self._gates):
            raise CircuitError(f"insert position {position} out of range")
        self._gates.insert(position, gate)
        return self

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit running ``self`` then ``other``."""
        if other.num_qubits > self.num_qubits:
            raise CircuitError("composed circuit has more qubits than base")
        result = self.copy()
        result.extend(other.gates)
        return result

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Deep-enough copy (gates are immutable)."""
        return QuantumCircuit(self.num_qubits, self._gates, name or self.name)

    def remap_qubits(self, mapping: Dict[int, int],
                     num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Relabel every operand qubit through ``mapping``."""
        new_n = num_qubits if num_qubits is not None else self.num_qubits
        return QuantumCircuit(new_n, (g.remap(mapping) for g in self._gates), self.name)

    # -- queries ---------------------------------------------------------------

    def two_qubit_gates(self) -> List[Gate]:
        """The gates that impose connectivity constraints (includes SWAPs)."""
        return [g for g in self._gates if g.is_two_qubit]

    def two_qubit_indices(self) -> List[int]:
        """Sequence indices of the two-qubit gates."""
        return [i for i, g in enumerate(self._gates) if g.is_two_qubit]

    def count_ops(self) -> Counter:
        """Histogram of gate names, Qiskit-style."""
        return Counter(g.name for g in self._gates)

    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates (the paper's circuit-size metric)."""
        return sum(1 for g in self._gates if g.is_two_qubit)

    def swap_count(self) -> int:
        """Number of explicit SWAP gates (the routing-cost metric)."""
        return sum(1 for g in self._gates if g.is_swap)

    def used_qubits(self) -> List[int]:
        """Sorted list of qubits touched by at least one gate."""
        seen = set()
        for gate in self._gates:
            seen.update(gate.qubits)
        return sorted(seen)

    def depth(self, two_qubit_only: bool = False) -> int:
        """Circuit depth as the longest qubit-wise dependency chain."""
        level = [0] * self.num_qubits
        depth = 0
        for gate in self._gates:
            if two_qubit_only and not gate.is_two_qubit:
                continue
            at = 1 + max(level[q] for q in gate.qubits)
            for q in gate.qubits:
                level[q] = at
            depth = max(depth, at)
        return depth

    def interaction_pairs(self) -> List[Tuple[int, int]]:
        """Unordered operand pairs of every two-qubit gate, in order."""
        return [g.qubit_pair() for g in self._gates if g.is_two_qubit]

    # -- canonical serialization ----------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe canonical form; round-trips bit-identically.

        Gates serialize as ``[name, [qubits...]]`` or
        ``[name, [qubits...], [params...]]`` triples.  Unlike the QASM
        writer this covers *every* gate name, and float parameters survive
        the JSON round trip exactly (shortest-repr floats).
        """
        rows = self.__dict__.get("_rows")
        if rows is None:
            rows = [(g.name, g.qubits, g.params) for g in self._gates]
        return {
            "num_qubits": self.num_qubits,
            "name": self.name,
            "gates": [
                [name, list(qubits)] if not params
                else [name, list(qubits), list(params)]
                for name, qubits, params in rows
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QuantumCircuit":
        """Inverse of :meth:`to_dict`.

        Each row is checked exactly as ``Gate(...)`` plus the range check
        would check it (same errors, same order) and kept as a
        ``(name, qubits, params)`` tuple; no :class:`Gate` is built until
        the gates are first read.
        """
        entries = iter(payload["gates"])  # checked before num_qubits
        circuit = cls(payload["num_qubits"],
                      name=payload.get("name", "circuit"))
        num_qubits = circuit.num_qubits
        rows = []
        push = rows.append
        for entry in entries:
            name = entry[0]
            qubits = tuple(entry[1])
            params = tuple(entry[2]) if len(entry) > 2 else ()
            check_gate(name, qubits, params)
            if max(qubits) >= num_qubits:
                raise circuit._range_error(Gate(name, qubits, params))
            push((name, qubits, params))
        del circuit._gates
        circuit._rows = rows
        return circuit

    def without_single_qubit_gates(self) -> "QuantumCircuit":
        """Projection onto the two-qubit skeleton analysed by QLS."""
        return QuantumCircuit(self.num_qubits, self.two_qubit_gates(), self.name)

    def __str__(self) -> str:
        body = "\n".join(f"  {g}" for g in self._gates[:40])
        more = "" if len(self._gates) <= 40 else f"\n  ... ({len(self._gates) - 40} more)"
        return (f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
                f"gates={len(self._gates)})\n{body}{more}")

    def __repr__(self) -> str:
        return (f"QuantumCircuit(num_qubits={self.num_qubits}, "
                f"gates=<{len(self._gates)}>, name={self.name!r})")


def circuit_from_pairs(num_qubits: int, pairs: Sequence[Tuple[int, int]],
                       gate_name: str = "cx", name: str = "circuit") -> QuantumCircuit:
    """Build a two-qubit-gate-only circuit from operand pairs.

    This is the workhorse for constructing backbone sections, where only the
    interaction structure matters.
    """
    circuit = QuantumCircuit(num_qubits, name=name)
    for a, b in pairs:
        if a == b:
            raise GateError(f"degenerate pair ({a}, {b})")
        circuit.append(Gate(gate_name, (int(a), int(b))))
    return circuit
