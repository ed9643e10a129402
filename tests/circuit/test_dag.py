"""Unit and property tests for the gate dependency DAG."""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    DependencyDag,
    ExecutionFrontier,
    QuantumCircuit,
    circuit_from_pairs,
    cx,
    h,
    serialization_partition,
)
from repro.circuit.dag import dependency_closure_respected


def figure1_dag():
    """The paper's Figure 1(c): g3 depends on g1/g2 chain structure.

    Circuit (two-qubit part): g0(0,1), g1(1,2), g2(0,2).
    """
    return DependencyDag([cx(0, 1), cx(1, 2), cx(0, 2)])


class TestDagStructure:
    def test_nodes_are_two_qubit_only(self, paper_figure1_circuit):
        dag = DependencyDag.from_circuit(paper_figure1_circuit)
        assert len(dag) == 3

    def test_edges_follow_shared_qubits(self):
        dag = figure1_dag()
        assert dag.successors(0) == (1, 2)   # shares q1 with g1, q0 with g2
        assert dag.predecessors(2) == (0, 1)

    def test_no_duplicate_edges_for_double_shared(self):
        # Two gates on the same pair share two qubits but get one edge.
        dag = DependencyDag([cx(0, 1), cx(0, 1)])
        assert dag.successors(0) == (1,)
        assert dag.predecessors(1) == (0,)

    def test_sources_and_sinks(self):
        dag = figure1_dag()
        assert dag.sources() == [0]
        assert dag.sinks() == [2]

    def test_independent_gates(self):
        dag = DependencyDag([cx(0, 1), cx(2, 3)])
        assert dag.sources() == [0, 1]
        assert dag.edges() == []

    def test_prev_set(self):
        dag = figure1_dag()
        assert dag.prev_set(2) == {0, 1}
        assert dag.prev_set(0) == frozenset()

    def test_descendants(self):
        dag = figure1_dag()
        assert dag.descendants(0) == {1, 2}
        assert dag.descendants(2) == frozenset()

    def test_is_before(self):
        dag = figure1_dag()
        assert dag.is_before(0, 2)
        assert dag.is_before(0, 1)
        assert not dag.is_before(2, 0)
        assert not dag.is_before(1, 1)

    def test_topological_order(self):
        dag = figure1_dag()
        order = dag.topological_order()
        assert dependency_closure_respected(dag, order)

    def test_layers(self):
        dag = DependencyDag([cx(0, 1), cx(2, 3), cx(1, 2)])
        layers = dag.layers()
        assert layers == [[0, 1], [2]]

    def test_longest_path(self):
        chain = DependencyDag([cx(0, 1), cx(1, 2), cx(2, 3)])
        assert chain.longest_path_length() == 3
        parallel = DependencyDag([cx(0, 1), cx(2, 3)])
        assert parallel.longest_path_length() == 1

    def test_empty_dag(self):
        dag = DependencyDag([])
        assert len(dag) == 0
        assert dag.layers() == []
        assert dag.longest_path_length() == 0


class TestExecutionFrontier:
    def test_initial_front(self):
        frontier = ExecutionFrontier(figure1_dag())
        assert frontier.front == {0}

    def test_execute_releases_successors(self):
        frontier = ExecutionFrontier(figure1_dag())
        released = frontier.execute(0)
        assert set(released) == {1}
        assert frontier.front == {1}

    def test_execute_non_front_rejected(self):
        frontier = ExecutionFrontier(figure1_dag())
        with pytest.raises(ValueError):
            frontier.execute(2)

    def test_done(self):
        frontier = ExecutionFrontier(figure1_dag())
        for node in [0, 1, 2]:
            assert not frontier.done()
            frontier.execute(node)
        assert frontier.done()

    def test_following_gates_limit(self):
        gates = [cx(0, 1)] + [cx(1, 2), cx(2, 3), cx(3, 0), cx(0, 1)]
        frontier = ExecutionFrontier(DependencyDag(gates))
        assert len(frontier.following_gates(2)) == 2
        assert len(frontier.following_gates(100)) == 4

    def test_following_gates_excludes_front(self):
        frontier = ExecutionFrontier(figure1_dag())
        following = frontier.following_gates(10)
        assert 0 not in following


class TestSerializationPartition:
    def test_partition_of_chain(self):
        # Sections: [0, 1], [2, 3] with specials 1 and 3.
        dag = DependencyDag([cx(0, 1), cx(1, 2), cx(2, 3), cx(3, 0)])
        sections = serialization_partition(dag, [1, 3])
        assert sections is not None
        assert sections[0] == [0, 1]
        assert 3 in sections[1]

    def test_partition_fails_on_parallel_sections(self):
        dag = DependencyDag([cx(0, 1), cx(2, 3)])
        assert serialization_partition(dag, [0, 1]) is None

    def test_duplicate_specials_rejected(self):
        dag = figure1_dag()
        assert serialization_partition(dag, [1, 1]) is None


@st.composite
def random_gate_lists(draw):
    n_qubits = draw(st.integers(min_value=2, max_value=6))
    n_gates = draw(st.integers(min_value=1, max_value=15))
    gates = []
    for _ in range(n_gates):
        a = draw(st.integers(min_value=0, max_value=n_qubits - 1))
        b = draw(st.integers(min_value=0, max_value=n_qubits - 1).filter(lambda x: True))
        if a == b:
            b = (a + 1) % n_qubits
        gates.append(cx(a, b))
    return n_qubits, gates


class TestDagProperties:
    @given(random_gate_lists())
    @settings(max_examples=60, deadline=None)
    def test_topological_order_is_valid_linear_extension(self, data):
        _, gates = data
        dag = DependencyDag(gates)
        assert dependency_closure_respected(dag, dag.topological_order())

    @given(random_gate_lists())
    @settings(max_examples=60, deadline=None)
    def test_prev_set_matches_is_before(self, data):
        _, gates = data
        dag = DependencyDag(gates)
        for later in range(len(dag)):
            prev = dag.prev_set(later)
            for earlier in range(len(dag)):
                assert (earlier in prev) == dag.is_before(earlier, later)

    @given(random_gate_lists())
    @settings(max_examples=40, deadline=None)
    def test_frontier_executes_everything_in_dependency_order(self, data):
        _, gates = data
        dag = DependencyDag(gates)
        frontier = ExecutionFrontier(dag)
        rng = random.Random(0)
        executed = []
        while not frontier.done():
            node = rng.choice(sorted(frontier.front))
            executed.append(node)
            frontier.execute(node)
        assert dependency_closure_respected(dag, executed)

    @given(random_gate_lists())
    @settings(max_examples=40, deadline=None)
    def test_layers_partition_all_nodes(self, data):
        _, gates = data
        dag = DependencyDag(gates)
        flattened = [n for layer in dag.layers() for n in layer]
        assert sorted(flattened) == list(range(len(dag)))
        # No two gates in a layer share a qubit.
        for layer in dag.layers():
            qubits = [q for n in layer for q in dag.gates[n].qubits]
            assert len(qubits) == len(set(qubits))


def _reference_following(dag, front, executed, limit):
    """The extended-set BFS as first written: it skips executed successors."""
    result = []
    seen = set(front)
    queue = deque(sorted(front))
    while queue and len(result) < limit:
        node = queue.popleft()
        for nxt in dag.successors(node):
            if nxt in seen or nxt in executed:
                continue
            seen.add(nxt)
            result.append(nxt)
            if len(result) >= limit:
                break
            queue.append(nxt)
    return result


class TestFrontierInvariants:
    """Along random executions, the incremental frontier agrees with a
    from-scratch recomputation at every step."""

    @given(n_qubits=st.integers(min_value=2, max_value=8),
           n_gates=st.integers(min_value=0, max_value=40),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_recomputation_along_random_execution(self, n_qubits,
                                                          n_gates, seed):
        rng = random.Random(seed)
        gates = [cx(*rng.sample(range(n_qubits), 2)) for _ in range(n_gates)]
        dag = DependencyDag(gates)
        frontier = ExecutionFrontier(dag)
        executed = set()
        while True:
            front = frontier.front
            assert front == set(dag.front_layer(executed))
            qubits = [q for node in front for q in dag.gates[node].qubits]
            assert len(qubits) == len(set(qubits))  # qubit-disjoint
            assert frontier.done() == (len(executed) == len(dag))
            for limit in (0, 1, 3, 20):
                assert frontier.following_gates(limit) == _reference_following(
                    dag, front, executed, limit)
            if frontier.done():
                break
            node = rng.choice(sorted(front))
            frontier.execute(node)
            executed.add(node)
