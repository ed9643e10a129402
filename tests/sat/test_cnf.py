"""Tests for the named-variable CNF builder."""

import numpy as np
import pytest

from repro.sat import CnfBuilder, SolverResult, solve_clauses


class TestVariables:
    def test_var_allocation_stable(self):
        b = CnfBuilder()
        v1 = b.var(("x", 0))
        v2 = b.var(("x", 1))
        assert v1 != v2
        assert b.var(("x", 0)) == v1
        assert b.num_vars == 2

    def test_fresh_unique(self):
        b = CnfBuilder()
        assert b.fresh() != b.fresh()

    def test_name_of(self):
        b = CnfBuilder()
        v = b.var(("map", 3, 4))
        assert b.name_of(v) == ("map", 3, 4)

    def test_has_var(self):
        b = CnfBuilder()
        b.var("a")
        assert b.has_var("a")
        assert not b.has_var("b")


class TestLiteralValidation:
    @pytest.mark.parametrize("bad", [0, 1.5, 2.0, "3"])
    def test_bad_literal_raises_naming_it(self, bad):
        b = CnfBuilder()
        with pytest.raises(ValueError, match=f"literal {bad!r}"):
            b.add([1, bad])
        assert b.clauses == []

    def test_numpy_integers_become_ints(self):
        b = CnfBuilder()
        b.add([np.int64(3), np.int16(-1)])
        assert b.clauses == [[3, -1]]
        assert all(type(l) is int for l in b.clauses[0])


class TestCombinators:
    def _solve(self, builder, extra=()):
        return solve_clauses(list(builder.clauses) + list(extra))

    def test_implies(self):
        b = CnfBuilder()
        a, c = b.var("a"), b.var("c")
        b.implies(a, c)
        result, model = self._solve(b, [[a]])
        assert result is SolverResult.SAT
        assert model[c]

    def test_iff(self):
        b = CnfBuilder()
        x, y = b.var("x"), b.var("y")
        b.iff(x, y)
        result, _ = self._solve(b, [[x], [-y]])
        assert result is SolverResult.UNSAT

    def test_iff_and(self):
        b = CnfBuilder()
        t, c1, c2 = b.var("t"), b.var("c1"), b.var("c2")
        b.iff_and(t, [c1, c2])
        result, model = self._solve(b, [[c1], [c2]])
        assert result is SolverResult.SAT
        assert model[t]
        result, model = self._solve(b, [[c1], [-c2]])
        assert result is SolverResult.SAT
        assert not model[t]

    def test_iff_or(self):
        b = CnfBuilder()
        t, d1, d2 = b.var("t"), b.var("d1"), b.var("d2")
        b.iff_or(t, [d1, d2])
        result, model = self._solve(b, [[-d1], [-d2]])
        assert result is SolverResult.SAT
        assert not model[t]
        result, model = self._solve(b, [[d1]])
        assert result is SolverResult.SAT
        assert model[t]

    def test_exactly_one(self):
        b = CnfBuilder()
        xs = [b.var(i) for i in range(4)]
        b.exactly_one(xs)
        result, model = self._solve(b)
        assert result is SolverResult.SAT
        assert sum(model[x] for x in xs) == 1

    def test_at_most_one_allows_zero(self):
        b = CnfBuilder()
        xs = [b.var(i) for i in range(3)]
        b.at_most_one(xs)
        result, _ = self._solve(b, [[-x] for x in xs])
        assert result is SolverResult.SAT

    def test_at_most_one_blocks_two(self):
        b = CnfBuilder()
        xs = [b.var(i) for i in range(3)]
        b.at_most_one(xs)
        result, _ = self._solve(b, [[xs[0]], [xs[2]]])
        assert result is SolverResult.UNSAT


class TestDecoding:
    def test_true_keys(self):
        b = CnfBuilder()
        x, y = b.var("x"), b.var("y")
        b.add([x])
        b.add([-y])
        _, model = solve_clauses(b.clauses)
        assert "x" in b.true_keys(model)
        assert "y" not in b.true_keys(model)

    def test_value(self):
        b = CnfBuilder()
        x = b.var("x")
        b.add([x])
        _, model = solve_clauses(b.clauses)
        assert b.value(model, "x")

    def test_stats(self):
        b = CnfBuilder()
        b.add([b.var("x"), b.var("y")])
        assert b.stats() == {"vars": 2, "clauses": 1}
