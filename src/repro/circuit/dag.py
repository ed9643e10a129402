"""Gate dependency DAG over the two-qubit skeleton of a circuit.

This mirrors the paper's ``D(G2, EG)``: nodes are two-qubit gates, and an
edge ``(g, g')`` means ``g'`` is the next gate after ``g`` on one of its
operand qubits.  Single-qubit gates are excluded — they impose no
connectivity constraint and can be re-inserted after layout synthesis.

The DAG supplies the primitives the QUBIKOS construction and the QLS tools
both rely on: front layers, ``Prev(g)`` ancestor sets, topological iteration,
and reachability queries used by the optimality certificate checker.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .circuit import QuantumCircuit
from .gates import Gate


class DependencyDag:
    """Dependency DAG over the two-qubit gates of a circuit.

    Nodes are integers ``0..n-1`` indexing into :attr:`gates`, which preserves
    the original two-qubit gate order of the source circuit.
    """

    def __init__(self, gates: Sequence[Gate]) -> None:
        self.gates: Tuple[Gate, ...] = tuple(g for g in gates if g.is_two_qubit)
        #: Flat per-gate operand pairs: ``op_pairs[i] == (g[0], g[1])``.
        #: Routing hot loops index these instead of ``gates[i].qubits``.
        self.op_pairs: Tuple[Tuple[int, int], ...] = tuple(
            (g.qubits[0], g.qubits[1]) for g in self.gates
        )
        n = len(self.gates)
        self._succ: List[List[int]] = [[] for _ in range(n)]
        self._pred: List[List[int]] = [[] for _ in range(n)]
        last_on_qubit: Dict[int, int] = {}
        for i, gate in enumerate(self.gates):
            hooked: Set[int] = set()
            for q in gate.qubits:
                prev = last_on_qubit.get(q)
                if prev is not None and prev not in hooked:
                    self._succ[prev].append(i)
                    self._pred[i].append(prev)
                    hooked.add(prev)
                last_on_qubit[q] = i

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "DependencyDag":
        """Build the DAG from any circuit (single-qubit gates dropped)."""
        return cls(circuit.gates)

    def reversed(self) -> "DependencyDag":
        """The DAG of the gate sequence played backwards.

        SABRE's backward layout passes route the reversed circuit; building
        the reverse once here lets :class:`repro.qls.sabre.SabreLayout`
        reuse it across every pass instead of rebuilding per ``route()``.
        """
        return DependencyDag(tuple(reversed(self.gates)))

    def __len__(self) -> int:
        return len(self.gates)

    # -- structure queries ---------------------------------------------------

    def successors(self, node: int) -> Tuple[int, ...]:
        """Immediate successors of ``node``."""
        return tuple(self._succ[node])

    def predecessors(self, node: int) -> Tuple[int, ...]:
        """Immediate predecessors of ``node``."""
        return tuple(self._pred[node])

    def sources(self) -> List[int]:
        """Nodes with no predecessors (the initial front layer)."""
        return [i for i in range(len(self.gates)) if not self._pred[i]]

    def sinks(self) -> List[int]:
        """Nodes with no successors."""
        return [i for i in range(len(self.gates)) if not self._succ[i]]

    def prev_set(self, node: int) -> FrozenSet[int]:
        """The paper's ``Prev(g)``: all gates with a path *to* ``node``."""
        seen: Set[int] = set()
        stack = list(self._pred[node])
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._pred[cur])
        return frozenset(seen)

    def descendants(self, node: int) -> FrozenSet[int]:
        """All gates with a path *from* ``node``."""
        seen: Set[int] = set()
        stack = list(self._succ[node])
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._succ[cur])
        return frozenset(seen)

    def is_before(self, earlier: int, later: int) -> bool:
        """True when a dependency path forces ``earlier`` before ``later``."""
        if earlier == later:
            return False
        target_qubits = set(self.gates[later].qubits)
        # BFS forward from ``earlier``; bounded by DAG size.
        seen: Set[int] = set()
        queue = deque([earlier])
        while queue:
            cur = queue.popleft()
            for nxt in self._succ[cur]:
                if nxt == later:
                    return True
                if nxt not in seen and nxt <= later:
                    # Node indices respect sequence order, so any path to
                    # ``later`` only visits smaller indices.
                    seen.add(nxt)
                    queue.append(nxt)
        del target_qubits
        return False

    def topological_order(self) -> List[int]:
        """Kahn topological order (equals index order by construction)."""
        indegree = [len(p) for p in self._pred]
        queue = deque(i for i, d in enumerate(indegree) if d == 0)
        order: List[int] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for nxt in self._succ[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    queue.append(nxt)
        if len(order) != len(self.gates):
            raise RuntimeError("dependency graph has a cycle; construction bug")
        return order

    def front_layer(self, executed: Set[int]) -> List[int]:
        """Nodes whose predecessors are all in ``executed`` and not executed."""
        front = []
        for i in range(len(self.gates)):
            if i in executed:
                continue
            if all(p in executed for p in self._pred[i]):
                front.append(i)
        return front

    def longest_path_length(self) -> int:
        """Number of nodes on the longest dependency chain."""
        if not self.gates:
            return 0
        dist = [1] * len(self.gates)
        for node in self.topological_order():
            for nxt in self._succ[node]:
                dist[nxt] = max(dist[nxt], dist[node] + 1)
        return max(dist)

    def layers(self) -> List[List[int]]:
        """ASAP layering: gates grouped by earliest possible timestep."""
        level = [0] * len(self.gates)
        for node in self.topological_order():
            for nxt in self._succ[node]:
                level[nxt] = max(level[nxt], level[node] + 1)
        if not self.gates:
            return []
        result: List[List[int]] = [[] for _ in range(max(level) + 1)]
        for i, lvl in enumerate(level):
            result[lvl].append(i)
        return result

    def edges(self) -> List[Tuple[int, int]]:
        """All dependency edges as (earlier, later) node pairs."""
        return [(i, j) for i in range(len(self.gates)) for j in self._succ[i]]


class ExecutionFrontier:
    """Incrementally tracked front layer used by routing algorithms.

    Routing tools repeatedly execute the currently-satisfiable gates and ask
    for the new front layer; recomputing from scratch is quadratic, so this
    class maintains in-degrees incrementally.

    The sorted front layer and the extended set (:meth:`following_gates`)
    are additionally memoised per frontier revision: between two gate
    executions the frontier is unchanged, so every SWAP decision taken in a
    stall window reuses the same lists instead of re-sorting and re-running
    the BFS.  Both caches are invalidated by :meth:`execute`, the only
    mutating operation, which keeps the memoised values bit-identical to a
    from-scratch recomputation.
    """

    def __init__(self, dag: DependencyDag) -> None:
        self.dag = dag
        self._remaining_pred = [len(dag.predecessors(i)) for i in range(len(dag))]
        self._executed: Set[int] = set()
        self.front: Set[int] = {i for i, d in enumerate(self._remaining_pred) if d == 0}
        self._front_sorted: Optional[List[int]] = None
        self._following: Optional[List[int]] = None
        self._following_limit = -1

    @property
    def executed(self) -> FrozenSet[int]:
        return frozenset(self._executed)

    def done(self) -> bool:
        """True when every gate has been executed.

        O(1): in an acyclic DAG some unexecuted gate always has every
        predecessor executed, so the front layer is empty exactly when
        nothing is left.
        """
        return not self.front

    def execute(self, node: int) -> List[int]:
        """Mark ``node`` executed; return newly released front nodes."""
        if node not in self.front:
            raise ValueError(f"gate {node} is not in the front layer")
        self.front.remove(node)
        self._executed.add(node)
        self._front_sorted = None
        self._following = None
        released = []
        for nxt in self.dag.successors(node):
            self._remaining_pred[nxt] -= 1
            if self._remaining_pred[nxt] == 0:
                self.front.add(nxt)
                released.append(nxt)
        return released

    def front_sorted(self) -> List[int]:
        """The front layer in ascending node order (memoised).

        The returned list is shared until the next :meth:`execute`; treat it
        as read-only.
        """
        if self._front_sorted is None:
            self._front_sorted = sorted(self.front)
        return self._front_sorted

    def following_gates(self, limit: int) -> List[int]:
        """Up to ``limit`` unexecuted gates beyond the front layer.

        This is SABRE's *extended set*: a BFS over successors of the front
        layer in dependency order, capped at ``limit`` gates.  The result is
        memoised until the frontier changes; treat it as read-only.
        """
        if self._following is not None and self._following_limit == limit:
            return self._following
        result: List[int] = []
        seen = set(self.front)
        queue = deque(self.front_sorted())
        succ = self.dag._succ
        # A successor of an unexecuted gate is itself unexecuted, so the
        # walk needs no executed-set test.
        while queue and len(result) < limit:
            node = queue.popleft()
            for nxt in succ[node]:
                if nxt in seen:
                    continue
                seen.add(nxt)
                result.append(nxt)
                if len(result) >= limit:
                    break
                queue.append(nxt)
        self._following = result
        self._following_limit = limit
        return result


def serialization_partition(dag: DependencyDag,
                            special_nodes: Sequence[int]) -> Optional[List[List[int]]]:
    """Partition DAG nodes into serial sections delimited by special gates.

    Returns ``sections`` where ``sections[i]`` ends with ``special_nodes[i]``
    and every gate in ``sections[i]`` precedes every gate in
    ``sections[i+1]`` in the dependency order — the property Theorem 4 needs.
    Returns ``None`` when the property does not hold.
    """
    specials = list(special_nodes)
    if len(set(specials)) != len(specials):
        return None
    prev_sets = {s: dag.prev_set(s) for s in specials}
    sections: List[List[int]] = []
    assigned: Set[int] = set()
    for idx, special in enumerate(specials):
        members = set(prev_sets[special]) - assigned
        members.add(special)
        # Every member must come after the previous special gate.
        if idx > 0:
            prior = specials[idx - 1]
            for node in members:
                if node != prior and prior not in dag.prev_set(node):
                    return None
        sections.append(sorted(members))
        assigned |= members
    leftovers = set(range(len(dag))) - assigned
    if leftovers:
        # Trailing gates after the last special gate are allowed (fillers),
        # attach them to the final section.
        last = specials[-1]
        for node in leftovers:
            if last in dag.prev_set(node) or node > last:
                continue
            return None
        sections[-1].extend(sorted(leftovers))
    return sections


def dependency_closure_respected(dag: DependencyDag, order: Iterable[int]) -> bool:
    """Check that ``order`` is a valid linear extension of the DAG."""
    position = {node: i for i, node in enumerate(order)}
    if len(position) != len(dag):
        return False
    for earlier, later in dag.edges():
        if position[earlier] >= position[later]:
            return False
    return True
