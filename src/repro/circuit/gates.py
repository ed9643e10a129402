"""Gate primitives for the quantum-circuit IR.

The layout-synthesis problem only constrains *two-qubit* gates (they must be
mapped onto coupling-graph edges); single-qubit gates ride along for realism
and for OpenQASM round-trips.  A :class:`Gate` is therefore a small immutable
record: a name, the program qubits it acts on, and optional real parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

#: Gate names understood by the OpenQASM writer, keyed by arity.
ONE_QUBIT_GATES = frozenset(
    {"id", "h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "rx", "ry", "rz", "u1", "u2", "u3"}
)
TWO_QUBIT_GATES = frozenset({"cx", "cz", "cy", "ch", "swap", "iswap", "crz", "rzz", "rxx"})

#: Number of parameters expected per parametric gate name.
GATE_PARAM_COUNTS = {
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "u1": 1,
    "u2": 2,
    "u3": 3,
    "crz": 1,
    "rzz": 1,
    "rxx": 1,
}


class GateError(ValueError):
    """Raised when a gate is constructed with inconsistent data."""


def check_gate(name: str, qubits: Tuple[int, ...],
               params: Tuple[float, ...]) -> None:
    """Raise :class:`GateError` unless ``(name, qubits, params)`` is a
    valid gate: at least one qubit, no repeats, none negative, and the
    parameter count its name expects — checked in that order.

    The one copy of the rules: :class:`Gate` runs it on construction and
    :meth:`QuantumCircuit.from_dict` on every decoded row, so both raise
    the same errors.  Two-qubit gates take a fast branch.
    """
    if not qubits:
        raise GateError(f"gate {name!r} must act on at least one qubit")
    if len(qubits) == 2:
        a, b = qubits
        if a == b:
            raise GateError(f"gate {name!r} has repeated qubits {qubits}")
        if a < 0 or b < 0:
            raise GateError(f"gate {name!r} has negative qubit index {qubits}")
    else:
        if len(set(qubits)) != len(qubits):
            raise GateError(f"gate {name!r} has repeated qubits {qubits}")
        if any(q < 0 for q in qubits):
            raise GateError(f"gate {name!r} has negative qubit index {qubits}")
    expected = GATE_PARAM_COUNTS.get(name)
    if expected is not None and len(params) != expected:
        raise GateError(
            f"gate {name!r} expects {expected} parameter(s), got {len(params)}"
        )


@dataclass(frozen=True, init=False)
class Gate:
    """An immutable gate application.

    Attributes
    ----------
    name:
        Lower-case gate mnemonic, e.g. ``"cx"``.
    qubits:
        Program-qubit indices the gate acts on, in order.  For a controlled
        gate the control comes first.
    params:
        Real parameters (rotation angles), empty for non-parametric gates.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default=())

    def __init__(self, name: str, qubits: Tuple[int, ...],
                 params: Tuple[float, ...] = ()) -> None:
        # Every gate is built here (routers, the generator, decoded
        # circuits on first read), so this replaces the slower dataclass __init__ +
        # __post_init__ pair: values are stored as given straight into
        # __dict__ (the class stays frozen, hashable, picklable and
        # ``dataclasses.replace``-able).
        check_gate(name, qubits, params)
        fields = self.__dict__
        fields["name"] = name
        fields["qubits"] = qubits
        fields["params"] = params

    @property
    def num_qubits(self) -> int:
        """Arity of the gate."""
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        """True when the gate constrains two qubits to be adjacent."""
        return len(self.qubits) == 2

    @property
    def is_swap(self) -> bool:
        """True for explicit SWAP gates (the routing cost unit)."""
        return self.name == "swap"

    def __getitem__(self, index: int) -> int:
        """Paper notation ``g[0]``/``g[1]`` for operand qubits."""
        return self.qubits[index]

    def qubit_pair(self) -> Tuple[int, int]:
        """The unordered operand pair of a two-qubit gate, sorted."""
        if not self.is_two_qubit:
            raise GateError(f"gate {self.name!r} is not a two-qubit gate")
        a, b = self.qubits
        return (a, b) if a < b else (b, a)

    def remap(self, mapping) -> "Gate":
        """Return a copy acting on ``mapping[q]`` for each operand qubit."""
        return Gate(self.name, tuple(mapping[q] for q in self.qubits), self.params)

    def __str__(self) -> str:
        args = ", ".join(str(q) for q in self.qubits)
        if self.params:
            angles = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({angles}) {args}"
        return f"{self.name} {args}"


# ---------------------------------------------------------------------------
# Convenience constructors — keep call sites terse and typo-proof.
# ---------------------------------------------------------------------------

def h(q: int) -> Gate:
    """Hadamard gate."""
    return Gate("h", (q,))


def x(q: int) -> Gate:
    """Pauli-X gate."""
    return Gate("x", (q,))


def y(q: int) -> Gate:
    """Pauli-Y gate."""
    return Gate("y", (q,))


def z(q: int) -> Gate:
    """Pauli-Z gate."""
    return Gate("z", (q,))


def s(q: int) -> Gate:
    """Phase gate (sqrt(Z))."""
    return Gate("s", (q,))


def t(q: int) -> Gate:
    """T gate (fourth root of Z)."""
    return Gate("t", (q,))


def rx(theta: float, q: int) -> Gate:
    """X-rotation by ``theta``."""
    return Gate("rx", (q,), (float(theta),))


def ry(theta: float, q: int) -> Gate:
    """Y-rotation by ``theta``."""
    return Gate("ry", (q,), (float(theta),))


def rz(theta: float, q: int) -> Gate:
    """Z-rotation by ``theta``."""
    return Gate("rz", (q,), (float(theta),))


def cx(control: int, target: int) -> Gate:
    """Controlled-NOT gate."""
    return Gate("cx", (control, target))


def cz(control: int, target: int) -> Gate:
    """Controlled-Z gate."""
    return Gate("cz", (control, target))


def swap(a: int, b: int) -> Gate:
    """SWAP gate — the unit of routing cost in layout synthesis."""
    return Gate("swap", (a, b))


def rzz(theta: float, a: int, b: int) -> Gate:
    """ZZ-interaction rotation."""
    return Gate("rzz", (a, b), (float(theta),))


def u3(theta: float, phi: float, lam: float, q: int) -> Gate:
    """Generic single-qubit rotation."""
    return Gate("u3", (q,), (float(theta), float(phi), float(lam)))


def random_single_qubit_gate(rng, q: int) -> Gate:
    """Draw a plausible single-qubit gate for circuit dressing."""
    name = rng.choice(["h", "x", "t", "s", "rz", "rx"])
    if name in GATE_PARAM_COUNTS:
        return Gate(name, (q,), (rng.uniform(0.0, 2.0 * math.pi),))
    return Gate(name, (q,))
