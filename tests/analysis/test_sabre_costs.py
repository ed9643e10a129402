"""Instrumented routing trace tests."""

import random

import pytest

from repro.arch import get_architecture
from repro.analysis import cost_breakdown_table, trace_routing
from repro.qls.sabre import SabreParameters, route
from repro.qubikos import generate


@pytest.fixture(scope="module")
def traced():
    device = get_architecture("grid3x3")
    instance = generate(device, num_swaps=2, num_two_qubit_gates=40, seed=3)
    return instance, trace_routing(instance, seed=0)


class TestTraceRouting:
    def test_completes(self, traced):
        _, trace = traced
        assert trace.completed
        assert trace.total_swaps >= 2

    def test_one_decision_per_swap(self, traced):
        _, trace = traced
        assert len(trace.decisions) == trace.total_swaps

    def test_scores_cover_chosen_swap(self, traced):
        _, trace = traced
        for decision in trace.decisions:
            assert decision.score_of(decision.chosen) is not None

    def test_swap_ratio(self, traced):
        instance, trace = traced
        assert trace.swap_ratio == trace.total_swaps / instance.optimal_swaps

    def test_divergence_flags_consistent(self, traced):
        _, trace = traced
        for decision in trace.decisions:
            if decision.witness_swap is None:
                assert not decision.diverged
            else:
                expected = (tuple(sorted(decision.chosen))
                            != tuple(sorted(decision.witness_swap)))
                assert decision.diverged == expected

    def test_budget_cap_marks_incomplete(self):
        device = get_architecture("grid3x3")
        instance = generate(device, num_swaps=2, num_two_qubit_gates=40, seed=3)
        trace = trace_routing(instance, seed=0, max_swaps=1)
        # Either routing finished within one swap (impossible: optimum 2)
        # or the trace is marked incomplete.
        assert not trace.completed or trace.total_swaps <= 1

    def test_lookahead_decay_parameter_respected(self):
        device = get_architecture("grid3x3")
        instance = generate(device, num_swaps=2, num_two_qubit_gates=40, seed=3)
        params = SabreParameters(lookahead_decay=0.5)
        trace = trace_routing(instance, params=params, seed=0)
        assert trace.completed


class TestCostBreakdownTable:
    def test_renders_components(self, traced):
        _, trace = traced
        if not trace.decisions:
            pytest.skip("routing needed no swaps")
        table = cost_breakdown_table(trace.decisions[0])
        assert "basic" in table
        assert "lookahead" in table
        assert "SABRE's choice" in table


#: The golden instances of tests/qls/test_perf_equivalence.py:
#: (architecture, qubikos swaps, two-qubit gates, generator seed).
GOLDEN_INSTANCES = (
    ("aspen4", 3, 80, 11),
    ("sycamore54", 4, 120, 5),
    ("rochester53", 4, 120, 5),
    ("eagle127", 3, 120, 5),
)


class TestTraceMatchesRouter:
    """The case study replays the router: ``trace_routing`` scores with
    ``score_all`` (the reference of ``best_swap``) but must take the SWAPs
    ``route`` takes from the same mapping and rng seed, as long as the
    router never needed its livelock escape."""

    @pytest.mark.parametrize("arch,swaps,gates,gen_seed", GOLDEN_INSTANCES)
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("params", [
        SabreParameters(),
        SabreParameters(extended_set_size=0),
        SabreParameters(lookahead_decay=0.5),
    ], ids=["stock", "no-lookahead", "lookahead-decay"])
    def test_same_swap_sequence(self, arch, swaps, gates, gen_seed, seed,
                                params):
        device = get_architecture(arch)
        instance = generate(device, num_swaps=swaps,
                            num_two_qubit_gates=gates, seed=gen_seed)
        outcome = route(instance.circuit.without_single_qubit_gates(),
                        device, instance.mapping(), params,
                        random.Random(seed))
        if outcome.fallback_swaps:
            pytest.skip("route used its livelock escape; the trace has none")
        trace = trace_routing(instance, params=params, seed=seed)
        assert trace.completed
        routed_swaps = [g.qubits for node, g in outcome.routed if node == -1]
        assert [d.chosen for d in trace.decisions] == routed_swaps
        assert trace.total_swaps == outcome.swap_count
