"""CDCL solver tests: known instances, model soundness, and brute-force
equivalence fuzzing."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import CdclSolver, SolverResult, solve_clauses


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


class TestBasics:
    def test_empty_formula_sat(self):
        result, _ = solve_clauses([])
        assert result is SolverResult.SAT

    def test_empty_clause_unsat(self):
        result, _ = solve_clauses([[]])
        assert result is SolverResult.UNSAT

    def test_unit_propagation_chain(self):
        result, model = solve_clauses([[1], [-1, 2], [-2, 3], [-3, 4]])
        assert result is SolverResult.SAT
        assert all(model.value(v) for v in [1, 2, 3, 4])

    def test_contradictory_units(self):
        result, _ = solve_clauses([[1], [-1]])
        assert result is SolverResult.UNSAT

    def test_tautology_ignored(self):
        result, _ = solve_clauses([[1, -1], [2]])
        assert result is SolverResult.SAT

    def test_duplicate_literals_deduped(self):
        result, model = solve_clauses([[1, 1, 1]])
        assert result is SolverResult.SAT
        assert model.value(1)

    def test_simple_conflict_analysis(self):
        # (x1 | x2) & (x1 | -x2) & (-x1 | x3) & (-x1 | -x3) is UNSAT.
        result, _ = solve_clauses([[1, 2], [1, -2], [-1, 3], [-1, -3]])
        assert result is SolverResult.UNSAT


class TestKnownInstances:
    def test_pigeonhole_3_into_2(self):
        clauses = []
        def var(i, j):
            return i * 2 + j + 1
        for i in range(3):
            clauses.append([var(i, 0), var(i, 1)])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append([-var(i1, j), -var(i2, j)])
        result, _ = solve_clauses(clauses)
        assert result is SolverResult.UNSAT

    def test_pigeonhole_4_into_3(self):
        clauses = []
        def var(i, j):
            return i * 3 + j + 1
        for i in range(4):
            clauses.append([var(i, j) for j in range(3)])
        for j in range(3):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    clauses.append([-var(i1, j), -var(i2, j)])
        result, _ = solve_clauses(clauses)
        assert result is SolverResult.UNSAT

    def test_graph_coloring_triangle_2_colors_unsat(self):
        # Each of 3 vertices gets one of 2 colors; adjacent differ.
        def var(v, c):
            return v * 2 + c + 1
        clauses = []
        for v in range(3):
            clauses.append([var(v, 0), var(v, 1)])
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            for c in range(2):
                clauses.append([-var(a, c), -var(b, c)])
        result, _ = solve_clauses(clauses)
        assert result is SolverResult.UNSAT

    def test_graph_coloring_triangle_3_colors_sat(self):
        def var(v, c):
            return v * 3 + c + 1
        clauses = []
        for v in range(3):
            clauses.append([var(v, c) for c in range(3)])
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            for c in range(3):
                clauses.append([-var(a, c), -var(b, c)])
        result, model = solve_clauses(clauses)
        assert result is SolverResult.SAT
        colors = {}
        for v in range(3):
            chosen = [c for c in range(3) if model[var(v, c)]]
            assert len(chosen) >= 1
            colors[v] = chosen[0]
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            assert colors[a] != colors[b]


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) is SolverResult.SAT
        assert solver.model().value(2)

    def test_conflicting_assumptions(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1, -2]) is SolverResult.UNSAT

    def test_solver_reusable_after_assumptions(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) is SolverResult.SAT
        assert solver.solve(assumptions=[-2]) is SolverResult.SAT
        assert solver.solve() is SolverResult.SAT


class TestLiteralValidation:
    """Clause and assumption literals are validated alike: 0 and
    non-integers raise ``ValueError`` naming the literal; numpy ints pass."""

    @pytest.mark.parametrize("bad, named", [
        (0, "literal 0"), (1.5, "literal 1.5"), (2.0, "literal 2.0"),
        ("3", "literal '3'"), (None, "literal None"),
    ])
    def test_bad_clause_literal_raises(self, bad, named):
        solver = CdclSolver()
        with pytest.raises(ValueError, match=re.escape(named)):
            solver.add_clause([1, bad])
        assert solver.num_vars == 0 and not solver._clauses

    @pytest.mark.parametrize("bad, named", [
        (0, "literal 0"), (1.5, "literal 1.5"), (-0.5, "literal -0.5"),
    ])
    def test_bad_assumption_raises(self, bad, named):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        with pytest.raises(ValueError, match=re.escape(named)):
            solver.solve(assumptions=[bad])
        with pytest.raises(ValueError, match=re.escape(named)):
            solver.solve(assumptions=(lit for lit in [1, bad]))
        # The solver is untouched and still answers.
        assert solver.solve() is SolverResult.SAT

    def test_bad_literal_in_tautology_still_raises(self):
        with pytest.raises(ValueError, match="literal 0"):
            CdclSolver().add_clause([1, -1, 0])

    def test_numpy_integers_pass(self):
        solver = CdclSolver()
        solver.add_clause([np.int64(1), np.int32(-2)])
        solver.add_clause(np.array([2, 3]))
        assert solver._clauses == [[2, 5], [4, 6]]  # packed 2v / 2v+1
        assert all(type(l) is int for c in solver._clauses for l in c)
        assert solver.solve(assumptions=[np.int64(-1)]) is SolverResult.SAT
        model = solver.model()
        assert not model.value(1) and not model.value(2) and model.value(3)


class TestBudgets:
    def test_conflict_limit_returns_unknown(self):
        # A hard pigeonhole with a tiny conflict budget.
        clauses = []
        holes = 5
        def var(i, j):
            return i * holes + j + 1
        for i in range(holes + 1):
            clauses.append([var(i, j) for j in range(holes)])
        for j in range(holes):
            for i1 in range(holes + 1):
                for i2 in range(i1 + 1, holes + 1):
                    clauses.append([-var(i1, j), -var(i2, j)])
        result, _ = solve_clauses(clauses, conflict_limit=10)
        assert result is SolverResult.UNKNOWN

    @pytest.mark.parametrize("time_limit", [0, 0.0, -1.0])
    def test_zero_time_limit_is_unknown(self, time_limit):
        # A spent budget is UNKNOWN, not "unlimited", even on a formula
        # the root level does not decide.
        result, model = solve_clauses([[1, 2], [-1, 2]],
                                      time_limit=time_limit)
        assert result is SolverResult.UNKNOWN and model is None


class TestFuzzing:
    @given(st.integers(min_value=0, max_value=100000))
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        m = rng.randint(1, 35)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, min(3, n))
            variables = rng.sample(range(1, n + 1), width)
            clauses.append([
                v if rng.random() < 0.5 else -v for v in variables
            ])
        result, model = solve_clauses(clauses)
        expected = brute_force_sat(n, clauses)
        assert (result is SolverResult.SAT) == expected
        if result is SolverResult.SAT:
            for clause in clauses:
                assert any(model.value(l) for l in clause)

    @given(st.integers(min_value=0, max_value=100000))
    @settings(max_examples=40, deadline=None)
    def test_learned_clause_deletion_keeps_correctness(self, seed):
        """Larger random instances exercise restarts and DB reduction."""
        rng = random.Random(seed)
        n = rng.randint(10, 25)
        m = int(n * 4.0)
        clauses = []
        for _ in range(m):
            variables = rng.sample(range(1, n + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        result, model = solve_clauses(clauses)
        if result is SolverResult.SAT:
            for clause in clauses:
                assert any(model.value(l) for l in clause)
        else:
            assert result is SolverResult.UNSAT


class TestStats:
    def test_stats_populated(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        solver.add_clause([1, -2])
        solver.solve()
        assert solver.stats["decisions"] >= 0
        assert solver.stats["propagations"] >= 0


def _pigeonhole_clauses(pigeons, holes):
    clauses = []
    def var(p, h):
        return p * holes + h + 1
    for p in range(pigeons):
        clauses.append([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class TestIncrementalUse:
    """The contracts the incremental k-sweep relies on."""

    def test_conflict_budget_is_per_call(self):
        # The budget must reset every call: after an UNKNOWN, the same
        # limit makes progress again instead of failing immediately.
        solver = CdclSolver()
        solver.add_clauses(_pigeonhole_clauses(6, 5))
        assert solver.solve(conflict_limit=1) is SolverResult.UNKNOWN
        before = solver.stats["conflicts"]
        assert solver.solve(conflict_limit=1) is SolverResult.UNKNOWN
        assert solver.stats["conflicts"] > before

    def test_assumption_budget_exhaustion_then_close(self):
        solver = CdclSolver()
        solver.add_clauses(_pigeonhole_clauses(6, 5))
        free = 31  # a variable outside the pigeonhole encoding
        solver.add_clause([free, -free])
        assert solver.solve(assumptions=[free],
                            conflict_limit=1) is SolverResult.UNKNOWN
        # Unlimited budget under the same assumptions closes the proof.
        assert solver.solve(assumptions=[free]) is SolverResult.UNSAT
        # And the instance stays decidable without assumptions.
        assert solver.solve() is SolverResult.UNSAT

    def test_learned_clauses_survive_calls(self):
        solver = CdclSolver()
        solver.add_clauses(_pigeonhole_clauses(5, 4))
        assert solver.solve() is SolverResult.UNSAT
        learned_after_first = solver.stats["learned"]
        assert learned_after_first > 0
        # Re-deciding the same formula reuses the learned database; the
        # second proof must be far cheaper than the first.
        conflicts_before = solver.stats["conflicts"]
        assert solver.solve() is SolverResult.UNSAT
        assert solver.stats["conflicts"] - conflicts_before <= \
            conflicts_before

    def test_clause_added_after_solve_is_respected(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve() is SolverResult.SAT
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() is SolverResult.UNSAT

    def test_root_falsified_clause_added_between_solves(self):
        # Regression for the incremental encoder: units fixed at root
        # level plus a later clause contradicting them must UNSAT.
        solver = CdclSolver()
        solver.add_clause([1])
        solver.add_clause([2])
        assert solver.solve() is SolverResult.SAT
        solver.add_clause([-1, -2])
        assert solver.solve() is SolverResult.UNSAT
