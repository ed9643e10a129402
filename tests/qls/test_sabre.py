"""SABRE router and layout tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import get_architecture, grid, line
from repro.circuit import QuantumCircuit, circuit_from_pairs, cx, h
from repro.qls import (
    QLSError,
    SabreCostModel,
    SabreLayout,
    SabreParameters,
    route,
    validate_transpiled,
)
from repro.circuit.dag import DependencyDag, ExecutionFrontier
from repro.obs import metrics as obs_metrics
from repro.obs.profile import profiling
from repro.qubikos import Mapping, generate


class TestRoute:
    def test_already_executable_circuit_needs_no_swaps(self, line4):
        circuit = circuit_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        outcome = route(circuit, line4, Mapping.identity(4),
                        SabreParameters(), random.Random(0))
        assert outcome.swap_count == 0

    def test_distant_pair_needs_swaps(self):
        device = line(5)
        circuit = circuit_from_pairs(5, [(0, 4)])
        outcome = route(circuit, device, Mapping.identity(5),
                        SabreParameters(), random.Random(0))
        assert outcome.swap_count == 3  # distance 4 -> 3 swaps

    def test_routed_output_is_valid(self, grid33):
        inst = generate(grid33, num_swaps=2, num_two_qubit_gates=40, seed=2)
        mapping = inst.mapping()
        outcome = route(inst.circuit.without_single_qubit_gates(), grid33,
                        mapping, SabreParameters(), random.Random(0),
                        record_mappings=True)
        transpiled = QuantumCircuit(9, [g for _, g in outcome.routed])
        report = validate_transpiled(
            inst.circuit, transpiled, grid33, inst.mapping()
        )
        assert report.valid, report.error
        assert report.swap_count == outcome.swap_count

    def test_empty_circuit(self, line4):
        outcome = route(QuantumCircuit(4), line4, Mapping.identity(4),
                        SabreParameters(), random.Random(0))
        assert outcome.swap_count == 0
        assert outcome.routed == []


class TestCostModel:
    def _state(self, device):
        circuit = circuit_from_pairs(
            device.num_qubits, [(0, device.num_qubits - 1)]
        )
        dag = DependencyDag.from_circuit(circuit)
        return dag, ExecutionFrontier(dag)

    def test_candidates_touch_front_qubits(self):
        device = line(5)
        dag, frontier = self._state(device)
        model = SabreCostModel(device, SabreParameters())
        mapping = Mapping.identity(5)
        candidates = model.candidate_swaps(dag, frontier, mapping)
        assert (0, 1) in candidates
        assert (3, 4) in candidates
        assert (1, 2) not in candidates  # touches neither q0 nor q4

    def test_score_prefers_distance_reducing_swap(self):
        device = line(5)
        dag, frontier = self._state(device)
        model = SabreCostModel(device, SabreParameters())
        mapping = Mapping.identity(5)
        front = sorted(frontier.front)
        good = model.score(dag, mapping, (0, 1), front, [], {})
        # Swapping (0,1) moves q0 toward q4: distance 4 -> 3.
        assert good.basic == pytest.approx(3.0)

    def test_decay_multiplies_total(self):
        device = line(5)
        dag, frontier = self._state(device)
        model = SabreCostModel(device, SabreParameters())
        mapping = Mapping.identity(5)
        front = sorted(frontier.front)
        plain = model.score(dag, mapping, (0, 1), front, [], {})
        decayed = model.score(dag, mapping, (0, 1), front, [], {0: 2.0})
        assert decayed.total == pytest.approx(2.0 * plain.total)
        assert decayed.decay == pytest.approx(2.0)

    def test_lookahead_decay_reweights_extended_set(self):
        device = line(6)
        # Extended set gates at different distances so reweighting matters.
        circuit = circuit_from_pairs(6, [(0, 3), (0, 1), (3, 5)])
        dag = DependencyDag.from_circuit(circuit)
        frontier = ExecutionFrontier(dag)
        mapping = Mapping.identity(6)
        front = sorted(frontier.front)
        extended = frontier.following_gates(20)
        stock = SabreCostModel(device, SabreParameters())
        decayed = SabreCostModel(
            device, SabreParameters(lookahead_decay=0.5)
        )
        s1 = stock.score(dag, mapping, (0, 1), front, extended, {})
        s2 = decayed.score(dag, mapping, (0, 1), front, extended, {})
        # Same basic cost, different lookahead weighting.
        assert s1.basic == s2.basic
        assert s1.lookahead != s2.lookahead

    def test_score_all_covers_candidates(self, grid33):
        circuit = circuit_from_pairs(9, [(0, 8)])
        dag = DependencyDag.from_circuit(circuit)
        frontier = ExecutionFrontier(dag)
        model = SabreCostModel(grid33, SabreParameters())
        mapping = Mapping.identity(9)
        scores = model.score_all(dag, frontier, mapping)
        assert len(scores) == len(model.candidate_swaps(dag, frontier, mapping))


class TestSabreLayout:
    def test_full_run_validates(self, aspen_instance, aspen):
        tool = SabreLayout(seed=3)
        result = tool.run(aspen_instance.circuit, aspen)
        report = validate_transpiled(
            aspen_instance.circuit, result.circuit, aspen, result.initial_mapping
        )
        assert report.valid, report.error
        assert result.swap_count == report.swap_count

    def test_honours_pinned_mapping(self, small_instance, grid33):
        pinned = small_instance.mapping()
        tool = SabreLayout(seed=1)
        result = tool.run(small_instance.circuit, grid33, initial_mapping=pinned)
        assert result.initial_mapping == pinned

    def test_circuit_too_large_rejected(self, line4):
        circuit = QuantumCircuit(10, [cx(0, 9)])
        with pytest.raises(QLSError):
            SabreLayout().run(circuit, line4)

    def test_single_qubit_gates_preserved(self, grid33):
        inst = generate(grid33, num_swaps=1, num_two_qubit_gates=20,
                        one_qubit_gate_fraction=0.5, seed=13)
        result = SabreLayout(seed=0).run(inst.circuit, grid33)
        original_1q = sorted(
            g.name for g in inst.circuit.gates if not g.is_two_qubit
        )
        routed_1q = sorted(
            g.name for g in result.circuit.gates if not g.is_two_qubit
        )
        assert original_1q == routed_1q
        report = validate_transpiled(
            inst.circuit, result.circuit, grid33, result.initial_mapping
        )
        assert report.valid

    def test_deterministic_given_seed(self, small_instance, grid33):
        a = SabreLayout(seed=5).run(small_instance.circuit, grid33)
        b = SabreLayout(seed=5).run(small_instance.circuit, grid33)
        assert a.swap_count == b.swap_count
        assert a.circuit == b.circuit

    def test_finds_zero_swap_embedding_often(self, grid33):
        """A circuit whose interaction graph is a grid path should route
        with very few swaps once the layout pass has converged."""
        circuit = circuit_from_pairs(9, [(0, 1), (1, 2), (2, 3)] * 5)
        result = SabreLayout(seed=8).run(circuit, grid33)
        assert result.swap_count <= 2


PAPER_DEVICES = ("aspen4", "sycamore54", "rochester53", "eagle127")


def _reference_choice(model, dag, frontier, mapping, decay, rng):
    """``score_all`` + min + ``rng.choice``: what ``best_swap`` must pick."""
    scores = model.score_all(dag, frontier, mapping, decay)
    best = min(s.total for s in scores)
    ties = [s.swap for s in scores if s.total <= best + 1e-12]
    return rng.choice(ties), best, len(ties)


def _random_routing_state(device, rng):
    """A mid-routing state: partial random mapping (sometimes leaving the
    top physical qubits past ``len(mapping.backward)``), a random circuit
    partly executed, and a few SWAPs already applied."""
    n = device.num_qubits
    usable = n - rng.choice((0, 0, 1, 3))
    k = rng.randint(2, usable)
    placed = rng.sample(range(usable), k)
    mapping = Mapping({q: placed[q] for q in range(k)})
    pairs = [tuple(rng.sample(range(k), 2))
             for _ in range(rng.randint(1, 3 * k + 5))]
    dag = DependencyDag.from_circuit(circuit_from_pairs(k, pairs))
    frontier = ExecutionFrontier(dag)
    for _ in range(rng.randint(0, len(dag) - 1)):
        frontier.execute(rng.choice(sorted(frontier.front)))
    inside = [e for e in device.edges if max(e) < len(mapping.backward)]
    # A few placed qubits low in the numbering may share no edge.
    for _ in range(rng.randint(0, 6) if inside else 0):
        mapping.swap_physical(*rng.choice(inside))
    return dag, frontier, mapping


class TestBestSwapKernel:
    """The partner-map kernel equals the introspection reference exactly:
    same swap, same float total, same rng consumption."""

    @given(device_name=st.sampled_from(PAPER_DEVICES),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           extended_set_size=st.sampled_from((0, 1, 5, 20)),
           lookahead_decay=st.sampled_from((None, None, 0.5)),
           decay_keys=st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_score_all_reference(self, device_name, seed,
                                         extended_set_size, lookahead_decay,
                                         decay_keys):
        device = get_architecture(device_name)
        rng = random.Random(seed)
        params = SabreParameters(extended_set_size=extended_set_size,
                                 lookahead_decay=lookahead_decay)
        model = SabreCostModel(device, params)
        # One model across several states: its scratch must not leak.
        for _ in range(3):
            dag, frontier, mapping = _random_routing_state(device, rng)
            # Keys past the program qubits name nothing mapped.
            decay = {q: 1.0 + rng.randint(1, 3) * params.decay_increment
                     for q in rng.sample(range(len(mapping.forward) + 2),
                                         min(decay_keys,
                                             len(mapping.forward) + 2))}
            draw = rng.randrange(2**32)
            ref_rng = random.Random(draw)
            expected_swap, expected_total, _ = _reference_choice(
                model, dag, frontier, mapping, decay, ref_rng)
            got_rng = random.Random(draw)
            swap, total = model.best_swap(dag, frontier, mapping, decay,
                                          got_rng)
            assert (swap, total) == (expected_swap, expected_total)
            assert got_rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("draw", range(8))
    def test_forced_ties_draw_like_the_reference(self, draw):
        """q0 and q4 at the ends of a line: moving either end inward
        ties, so the pick is the rng's."""
        device = line(5)
        dag = DependencyDag.from_circuit(circuit_from_pairs(5, [(0, 4)]))
        frontier = ExecutionFrontier(dag)
        mapping = Mapping.identity(5)
        model = SabreCostModel(device, SabreParameters())
        ref_rng = random.Random(draw)
        expected_swap, expected_total, ties = _reference_choice(
            model, dag, frontier, mapping, {}, ref_rng)
        assert ties == 2
        got_rng = random.Random(draw)
        assert model.best_swap(dag, frontier, mapping, {}, got_rng) == (
            expected_swap, expected_total)
        assert got_rng.getstate() == ref_rng.getstate()

    @staticmethod
    def _assert_matches_reference(device, pairs, mapping, params=None,
                                  decay=None, draw=0):
        dag = DependencyDag.from_circuit(
            circuit_from_pairs(len(mapping.forward), pairs))
        frontier = ExecutionFrontier(dag)
        model = SabreCostModel(device, params or SabreParameters())
        decay = decay or {}
        ref_rng = random.Random(draw)
        expected_swap, expected_total, ties = _reference_choice(
            model, dag, frontier, mapping, decay, ref_rng)
        got_rng = random.Random(draw)
        assert model.best_swap(dag, frontier, mapping, decay, got_rng) == (
            expected_swap, expected_total)
        assert got_rng.getstate() == ref_rng.getstate()
        return model.candidate_swaps(dag, frontier, mapping), ties

    @pytest.mark.parametrize("draw", range(8))
    def test_edge_between_two_front_gates_is_scored_once(self, draw):
        """Front gates (q0, q5) and (q4, q1) on a line, (q5, q2) next: edge
        (4, 5) joins the two front gates and ties with one other swap, so
        it must be scored, and drawn from, once."""
        candidates, ties = self._assert_matches_reference(
            line(6), [(0, 5), (4, 1), (5, 2)], Mapping.identity(6),
            draw=draw)
        assert ties == 2
        assert (4, 5) in candidates

    @pytest.mark.parametrize("draw", range(4))
    def test_tie_found_in_both_orientations(self, draw):
        """Gate (q5, q1) on a line: (5, 4) and (1, 2) tie, met from the
        larger endpoint first; the draw is from the sorted ties."""
        _, ties = self._assert_matches_reference(
            line(7), [(5, 1)], Mapping.identity(7), draw=draw)
        assert ties == 2

    def test_no_extended_set(self):
        _, ties = self._assert_matches_reference(
            get_architecture("sycamore54"), [(0, 9), (3, 20), (9, 3)],
            Mapping.identity(54), SabreParameters(extended_set_size=0),
            decay={0: 1.002, 20: 1.001})
        assert ties >= 1

    @pytest.mark.parametrize("draw", range(4))
    def test_candidates_past_the_backward_array(self, draw):
        """Gate (q1, q2) on a 2x3 grid with physical 4 and 5 past
        ``len(mapping.backward)``: SWAP (2, 5) takes only q1's decay and
        ties with (1, 2)."""
        mapping = Mapping({0: 0, 1: 2, 2: 3})
        assert len(mapping.backward) == 4
        _, ties = self._assert_matches_reference(
            grid(2, 3), [(1, 2)], mapping, decay={1: 1.001, 2: 1.003},
            draw=draw)
        assert ties == 2


def _route_observed(device, circuit, mapping, params, seed, emit):
    """One ``route`` with metrics and profiling armed: the outcome, the
    rng afterwards, and what the pass reported."""
    rng = random.Random(seed)
    with obs_metrics.enabled() as registry, profiling() as collector:
        outcome = route(circuit, device, mapping.copy(), params, rng,
                        emit=emit)
    return outcome, rng.getstate(), registry.snapshot(), collector.snapshot()


class TestOutputFreeRoute:
    """``route(..., emit=False)`` takes the same decisions as the emitting
    pass; it only skips building the routed gates."""

    @pytest.mark.parametrize("device_name,params,gen_seed,route_seed", [
        *[(name, SabreParameters(), 5, 1) for name in PAPER_DEVICES],
        ("sycamore54", SabreParameters(lookahead_decay=0.5), 5, 1),
        # Reaches the livelock escape (asserted below).
        ("aspen4", SabreParameters(extended_set_weight=3.0,
                                   decay_increment=0.0), 1, 0),
    ], ids=[*PAPER_DEVICES, "lookahead-decay", "livelock"])
    def test_same_routing_as_emitting_pass(self, device_name, params,
                                           gen_seed, route_seed):
        device = get_architecture(device_name)
        instance = generate(device, num_swaps=3, num_two_qubit_gates=60,
                            seed=gen_seed)
        circuit = instance.circuit.without_single_qubit_gates()
        placement = random.Random(route_seed).sample(
            range(device.num_qubits), circuit.num_qubits)
        mapping = Mapping(dict(enumerate(placement)))
        full, full_rng, full_metrics, full_profile = _route_observed(
            device, circuit, mapping, params, route_seed, emit=True)
        bare, bare_rng, bare_metrics, bare_profile = _route_observed(
            device, circuit, mapping, params, route_seed, emit=False)
        assert full.swap_count > 0
        assert bare.routed == [] and bare.mapping_at == {}
        assert bare.final_mapping == full.final_mapping
        assert (bare.swap_count, bare.fallback_swaps) == (
            full.swap_count, full.fallback_swaps)
        assert bare_rng == full_rng
        assert bare_metrics == full_metrics
        assert bare_profile == full_profile == {
            key: value for key, value in (
                ("sabre.swaps", full.swap_count - full.fallback_swaps),
                ("sabre.forced_swaps", full.fallback_swaps)) if value}
        if device_name == "aspen4" and params.decay_increment == 0.0:
            assert full.fallback_swaps > 0

    def test_no_timeline_without_output(self, line4):
        with pytest.raises(ValueError):
            route(circuit_from_pairs(4, [(0, 3)]), line4, Mapping.identity(4),
                  SabreParameters(), random.Random(0), record_mappings=True,
                  emit=False)
