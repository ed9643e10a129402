"""Backend protocol tests: python session semantics, registry resolution,
and the subprocess DIMACS backend driven by a stub executable."""

import os
import stat
import sys
import textwrap
import types

import numpy as np
import pytest

from repro.arch import ring
from repro.circuit import circuit_from_pairs
from repro.qls import ExactSolver
from repro.sat import (
    AUTO_ORDER,
    DimacsProcessBackend,
    PythonBackend,
    SolverResult,
    available_backends,
    get_backend,
)
from repro.sat.backend import PysatSession


class _StubPysatSolver:
    """Just enough of ``pysat.solvers.Solver`` to drive a session: every
    call answers SAT, and the literals it is handed are recorded."""

    def __init__(self, name):
        self.clauses = []
        self.assumptions = []

    def add_clause(self, clause):
        self.clauses.append(clause)

    def solve(self, assumptions=()):
        self.assumptions.append(assumptions)
        return True

    solve_limited = solve

    def conf_budget(self, budget):
        pass

    def get_model(self):
        return []


@pytest.fixture
def stub_pysat(monkeypatch):
    """Make ``import pysat.solvers`` resolve to :class:`_StubPysatSolver`."""
    solvers = types.ModuleType("pysat.solvers")
    solvers.Solver = _StubPysatSolver
    package = types.ModuleType("pysat")
    package.solvers = solvers
    monkeypatch.setitem(sys.modules, "pysat", package)
    monkeypatch.setitem(sys.modules, "pysat.solvers", solvers)


class TestPythonSession:
    def test_sat_and_model(self):
        session = PythonBackend().session(3, [[1, 2], [-1, 3]])
        assert session.solve() is SolverResult.SAT
        model = session.model()
        assert model is not None
        assert any(model.value(l) for l in (1, 2))
        assert not model.value(1) or model.value(3)

    def test_unsat(self):
        session = PythonBackend().session(1, [[1], [-1]])
        assert session.solve() is SolverResult.UNSAT
        assert session.model() is None

    def test_assumptions_flip_answer(self):
        session = PythonBackend().session(2, [[1, 2]])
        assert session.solve([-1]) is SolverResult.SAT
        assert session.model().value(2)
        assert session.solve([-1, -2]) is SolverResult.UNSAT
        # The session stays usable after an assumption-UNSAT answer.
        assert session.solve([1]) is SolverResult.SAT

    def test_incremental_add_clause(self):
        session = PythonBackend().session(2, [[1, 2]])
        assert session.solve() is SolverResult.SAT
        session.add_clause([-1])
        session.add_clause([-2])
        assert session.solve() is SolverResult.UNSAT

    def test_add_clause_falsified_at_root_is_seen(self):
        # Regression: a clause added after a solve whose literals are all
        # false under root-level units must still trigger UNSAT on the
        # next call (the solver re-propagates the root trail).
        session = PythonBackend().session(2, [[1], [2]])
        assert session.solve() is SolverResult.SAT
        session.add_clause([-1, -2])
        assert session.solve() is SolverResult.UNSAT

    def test_conflict_limit_per_call(self):
        # Pigeonhole 4-into-3 is UNSAT but needs far more than one
        # conflict; a tiny per-call budget must return UNKNOWN.
        clauses = []
        holes, pigeons = 3, 4
        var = lambda p, h: p * holes + h + 1  # noqa: E731
        for p in range(pigeons):
            clauses.append([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        session = PythonBackend().session(pigeons * holes, clauses)
        assert session.solve(conflict_limit=1) is SolverResult.UNKNOWN
        # A fresh (full) budget on the same session still closes it.
        assert session.solve() is SolverResult.UNSAT

    def test_stats_keys(self):
        session = PythonBackend().session(2, [[1, 2]])
        session.solve()
        stats = session.stats()
        for key in ("conflicts", "decisions", "propagations"):
            assert key in stats


class TestRegistry:
    def test_python_always_available(self):
        assert "python" in available_backends()
        assert get_backend("python").name == "python"

    def test_auto_resolves(self):
        backend = get_backend("auto")
        assert backend.name in AUTO_ORDER
        assert backend.available()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown SAT backend"):
            get_backend("zchaff")

    def test_unavailable_named_backend_raises(self):
        missing = [name for name in ("kissat", "cadical", "minisat", "pysat")
                   if name not in available_backends()]
        if not missing:
            pytest.skip("every external backend is installed here")
        with pytest.raises(ValueError, match="not available"):
            get_backend(missing[0])

    def test_solve_once_convenience(self):
        result, model, stats = get_backend("python").solve_once(2, [[1], [2]])
        assert result is SolverResult.SAT
        assert model.value(1) and model.value(2)
        assert stats["conflicts"] == 0


def _write_stub_solver(directory, behaviour: str) -> str:
    """A fake DIMACS solver executable with scripted output/exit code."""
    path = os.path.join(directory, f"stubsat-{behaviour}")
    bodies = {
        "sat": ['print("s SATISFIABLE")', 'print("v 1 -2 3 0")',
                'sys.exit(10)'],
        "unsat": ['print("s UNSATISFIABLE")', 'sys.exit(20)'],
        "crash": ['sys.exit(1)'],
    }
    script = "\n".join(
        [f"#!{sys.executable}", "import sys"] + bodies[behaviour]
    ) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(script)
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return path


class TestDimacsProcessBackend:
    def test_sat_exit_code_and_model(self, tmp_path):
        exe = _write_stub_solver(tmp_path, "sat")
        backend = DimacsProcessBackend("stub", executable=exe)
        assert backend.available()
        session = backend.session(3, [[1, 2]])
        assert session.solve() is SolverResult.SAT
        model = session.model()
        assert model.value(1) and not model.value(2) and model.value(3)

    def test_unsat_exit_code(self, tmp_path):
        exe = _write_stub_solver(tmp_path, "unsat")
        session = DimacsProcessBackend("stub", executable=exe).session(1, [[1]])
        assert session.solve() is SolverResult.UNSAT
        assert session.model() is None

    def test_unexpected_exit_is_unknown(self, tmp_path):
        exe = _write_stub_solver(tmp_path, "crash")
        session = DimacsProcessBackend("stub", executable=exe).session(1, [[1]])
        assert session.solve() is SolverResult.UNKNOWN

    def test_literals_validated_like_the_python_backend(self, tmp_path):
        # Literal 0 would split a DIMACS line into an empty clause, and a
        # float would reach the solver's parser: both raise up front.
        backend = DimacsProcessBackend(
            "stub", executable=_write_stub_solver(tmp_path, "sat"))
        with pytest.raises(ValueError, match="literal 0"):
            backend.session(2, [[1, 0]])
        session = backend.session(2, [[1, 2]])
        with pytest.raises(ValueError, match="literal 0"):
            session.solve(assumptions=[0])
        with pytest.raises(ValueError, match="literal 1.5"):
            session.add_clause([1.5, 2])
        assert session.stats()["calls"] == 0

    def test_missing_executable_unavailable(self):
        backend = DimacsProcessBackend("stub", executable="/nonexistent/sat")
        assert not backend.available()

    def test_own_cli_as_external_solver(self, tmp_path):
        # The repo's DIMACS CLI speaks the same protocol, so it can serve
        # as the executable behind the subprocess backend: a full
        # round-trip through dump/solve/exit-code conventions.
        exe = tmp_path / "reprosat"
        root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        exe.write_text(textwrap.dedent(f"""\
            #!/bin/sh
            PYTHONPATH={os.path.abspath(root)} exec {sys.executable} \
-m repro.sat solve "$1"
        """))
        exe.chmod(exe.stat().st_mode | stat.S_IXUSR)
        backend = DimacsProcessBackend("reprosat", executable=str(exe))
        session = backend.session(2, [[1, 2], [-1]])
        assert session.solve() is SolverResult.SAT
        assert session.model().value(2)
        session.add_clause([-2])
        assert session.solve() is SolverResult.UNSAT


class TestPysatSession:
    def test_literals_validated_like_the_python_backend(self, stub_pysat):
        with pytest.raises(ValueError, match="literal 0"):
            PysatSession(2, [[1, 0]], "stub")
        session = PysatSession(2, [[1, 2]], "stub")
        with pytest.raises(ValueError, match="literal 0"):
            session.solve(assumptions=[0])
        with pytest.raises(ValueError, match="literal 1.5"):
            session.add_clause([1.5, 2])
        assert session.stats()["calls"] == 0
        # What does pass reaches python-sat as plain ints.
        session.add_clause([np.int64(1), -2])
        assert session.solve(assumptions=[np.int32(2)]) is SolverResult.SAT
        assert session._solver.clauses == [[1, 2], [1, -2]]
        assert session._solver.assumptions == [[2]]
        assert type(session._solver.assumptions[0][0]) is int


class TestZeroTimeBudget:
    """``time_limit=0`` is a spent budget on every backend: UNKNOWN from a
    session, ``timed_out`` from the exact solver — never "unlimited"."""

    @pytest.fixture(params=["python", "pysat", "dimacs"])
    def session(self, request, tmp_path):
        clauses = [[1, 2], [-1, 2]]
        if request.param == "python":
            return PythonBackend().session(2, clauses)
        if request.param == "pysat":
            request.getfixturevalue("stub_pysat")
            return PysatSession(2, clauses, "stub")
        exe = _write_stub_solver(tmp_path, "sat")
        return DimacsProcessBackend("stub", executable=exe).session(
            2, clauses)

    @pytest.mark.parametrize("time_limit", [0, 0.0])
    def test_session_answers_unknown(self, session, time_limit):
        assert session.solve(time_limit=time_limit) is SolverResult.UNKNOWN
        assert session.model() is None

    @pytest.mark.parametrize("mode", [
        {}, {"incremental": False}, {"workers": 2},
    ])
    def test_exact_solver_times_out(self, mode):
        device = ring(4)
        circuit = circuit_from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 3)])
        outcome = ExactSolver(max_swaps=3, time_limit=0, **mode).solve(
            circuit, device)
        assert outcome.timed_out
        assert outcome.optimal_swaps is None and outcome.result is None
        # Without the budget the same instance is solved outright.
        solved = ExactSolver(max_swaps=3, **mode).solve(circuit, device)
        assert solved.optimal_swaps is not None and not solved.timed_out
