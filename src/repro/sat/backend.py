"""Pluggable SAT solver backends behind one session protocol.

The exact QLS tool (and anything else that consumes CNF) talks to a
:class:`SatBackend`, never to a concrete solver, so the pure-Python
:class:`~repro.sat.solver.CdclSolver` and external engines are
interchangeable: same ``optimal_swaps``, same machine-checked UNSAT lower
bounds, regardless of which engine did the work (decoded circuits are
re-validated by the caller either way).

Three backend families, aig-cube style:

* ``python`` — the in-repo CDCL solver.  Always available, fully
  deterministic, incremental (one session keeps its learned clauses
  across ``solve(assumptions=...)`` calls).
* ``pysat`` — `python-sat` when installed (import-gated; never a hard
  dependency).  Incremental via native assumptions.
* subprocess DIMACS solvers — ``kissat`` / ``cadical`` / ``minisat``
  found on ``PATH``.  One process per call; assumptions become appended
  unit clauses, which is equivalent for the decide-under-assumptions use
  here (the caller never needs the final conflict clause).

``get_backend("auto")`` picks the fastest available engine
(kissat > cadical > minisat > pysat > python); ``available_backends()``
reports what this host offers.  Everything degrades to ``python`` —
there is no configuration in which the exact tool stops working.
"""

from __future__ import annotations

import abc
import importlib.util
import os
import shutil
import subprocess
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import dimacs
from .solver import CdclSolver
from .types import Model, SolverResult, as_literals

#: ``auto`` preference order: external engines are orders of magnitude
#: faster than the pure-Python solver, so any of them wins when present.
AUTO_ORDER = ("kissat", "cadical", "minisat", "pysat", "python")

#: Subprocess solver executables probed on PATH (SAT-competition exit
#: codes: 10 = SAT, 20 = UNSAT).
_DIMACS_EXECUTABLES = ("kissat", "cadical", "minisat")


class SatSession(abc.ABC):
    """One loaded formula, solvable repeatedly under assumptions."""

    @abc.abstractmethod
    def solve(self, assumptions: Sequence[int] = (),
              conflict_limit: Optional[int] = None,
              time_limit: Optional[float] = None) -> SolverResult:
        """Decide satisfiability under per-call assumptions and budgets.

        A ``time_limit`` of 0 is a spent budget: the answer is UNKNOWN.
        """

    @abc.abstractmethod
    def model(self) -> Optional[Model]:
        """Satisfying assignment of the last ``solve``, or None."""

    @abc.abstractmethod
    def stats(self) -> Dict[str, int]:
        """Cumulative engine counters (keys are backend-specific)."""

    def add_clause(self, clause: Sequence[int]) -> None:
        """Grow the formula between solves (optional capability)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental clauses"
        )


class SatBackend(abc.ABC):
    """A SAT engine: names itself and opens sessions on formulas."""

    #: Registry / CLI identifier.
    name: str = "backend"
    #: Whether a session reuses learned state across ``solve`` calls.
    incremental: bool = False

    @abc.abstractmethod
    def available(self) -> bool:
        """Whether this engine can run on this host."""

    @abc.abstractmethod
    def session(self, num_vars: int,
                clauses: Sequence[Sequence[int]]) -> SatSession:
        """Load a formula and return a solvable session."""

    def solve_once(self, num_vars: int, clauses: Sequence[Sequence[int]],
                   assumptions: Sequence[int] = (),
                   conflict_limit: Optional[int] = None,
                   time_limit: Optional[float] = None
                   ) -> Tuple[SolverResult, Optional[Model], Dict[str, int]]:
        """One-shot convenience: (result, model-or-None, stats)."""
        session = self.session(num_vars, clauses)
        result = session.solve(assumptions, conflict_limit, time_limit)
        return result, session.model(), session.stats()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


# -- pure-Python backend ------------------------------------------------------

class PythonSession(SatSession):
    """Session over the in-repo :class:`CdclSolver` (incremental)."""

    def __init__(self, num_vars: int,
                 clauses: Sequence[Sequence[int]]) -> None:
        self._solver = CdclSolver()
        self._solver._ensure_vars(num_vars)
        self._solver.add_clauses(clauses)
        self._last: Optional[SolverResult] = None

    def solve(self, assumptions: Sequence[int] = (),
              conflict_limit: Optional[int] = None,
              time_limit: Optional[float] = None) -> SolverResult:
        self._last = self._solver.solve(assumptions, conflict_limit,
                                        time_limit)
        return self._last

    def model(self) -> Optional[Model]:
        if self._last is not SolverResult.SAT:
            return None
        return self._solver.model()

    def stats(self) -> Dict[str, int]:
        return dict(self._solver.stats)

    def add_clause(self, clause: Sequence[int]) -> None:
        self._solver.add_clause(clause)


class PythonBackend(SatBackend):
    """The always-available in-repo CDCL engine."""

    name = "python"
    incremental = True

    def available(self) -> bool:
        return True

    def session(self, num_vars: int,
                clauses: Sequence[Sequence[int]]) -> PythonSession:
        return PythonSession(num_vars, clauses)


# -- pysat backend (import-gated) --------------------------------------------

class PysatSession(SatSession):
    """Session over a python-sat solver (native assumptions).

    A positive ``time_limit`` is not enforced; a zero one answers UNKNOWN.
    """

    def __init__(self, num_vars: int, clauses: Sequence[Sequence[int]],
                 solver_name: str) -> None:
        import pysat.solvers  # gated: only reached when importable

        self._num_vars = num_vars
        self._solver = pysat.solvers.Solver(name=solver_name)
        for clause in clauses:
            self._solver.add_clause(as_literals(clause))
        self._last: Optional[SolverResult] = None
        self._calls = 0

    def solve(self, assumptions: Sequence[int] = (),
              conflict_limit: Optional[int] = None,
              time_limit: Optional[float] = None) -> SolverResult:
        assumptions = as_literals(assumptions)
        self._calls += 1
        if time_limit is not None and time_limit <= 0:
            self._last = SolverResult.UNKNOWN
            return self._last
        if conflict_limit is not None:
            self._solver.conf_budget(conflict_limit)
            answer = self._solver.solve_limited(assumptions=assumptions)
        else:
            answer = self._solver.solve(assumptions=assumptions)
        if answer is None:
            self._last = SolverResult.UNKNOWN
        else:
            self._last = SolverResult.SAT if answer else SolverResult.UNSAT
        return self._last

    def model(self) -> Optional[Model]:
        if self._last is not SolverResult.SAT:
            return None
        raw = self._solver.get_model() or []
        values = {v: False for v in range(1, self._num_vars + 1)}
        for lit in raw:
            values[abs(lit)] = lit > 0
        return Model(values)

    def stats(self) -> Dict[str, int]:
        stats = {"calls": self._calls}
        accum = getattr(self._solver, "accum_stats", None)
        if callable(accum):
            try:
                stats.update({k: int(v) for k, v in accum().items()})
            except Exception:  # noqa: BLE001 - stats are best-effort
                pass
        return stats

    def add_clause(self, clause: Sequence[int]) -> None:
        self._solver.add_clause(as_literals(clause))


class PysatBackend(SatBackend):
    """python-sat when installed (``pip install python-sat``)."""

    name = "pysat"
    incremental = True

    def __init__(self, solver_name: str = "cadical153") -> None:
        self.solver_name = solver_name

    def available(self) -> bool:
        return importlib.util.find_spec("pysat") is not None and \
            importlib.util.find_spec("pysat.solvers") is not None

    def session(self, num_vars: int,
                clauses: Sequence[Sequence[int]]) -> PysatSession:
        return PysatSession(num_vars, clauses, self.solver_name)


# -- subprocess DIMACS backend ------------------------------------------------

class DimacsProcessSession(SatSession):
    """Session shelling out to a DIMACS solver executable per call.

    Assumptions are appended as unit clauses — equivalent to assumption
    literals for deciding satisfiability (the only contract the exact
    tool needs).  ``conflict_limit`` is not forwarded (no portable flag);
    ``time_limit`` maps to a process timeout, with UNKNOWN on expiry.
    """

    def __init__(self, num_vars: int, clauses: Sequence[Sequence[int]],
                 executable: str) -> None:
        self._num_vars = num_vars
        self._clauses = [as_literals(c) for c in clauses]
        self._executable = executable
        self._model: Optional[Model] = None
        self._stats = {"calls": 0, "timeouts": 0}

    def solve(self, assumptions: Sequence[int] = (),
              conflict_limit: Optional[int] = None,
              time_limit: Optional[float] = None) -> SolverResult:
        del conflict_limit  # no portable CLI flag; budget by time instead
        assumptions = as_literals(assumptions)
        self._stats["calls"] += 1
        self._model = None
        clauses = self._clauses + [[l] for l in assumptions]
        num_vars = self._num_vars
        for lit in assumptions:
            num_vars = max(num_vars, abs(lit))
        text = dimacs.dumps(num_vars, clauses)
        path = None
        try:
            with tempfile.NamedTemporaryFile(
                    "w", suffix=".cnf", delete=False,
                    encoding="utf-8") as handle:
                handle.write(text)
                path = handle.name
            start = time.monotonic()
            try:
                proc = subprocess.run(
                    [self._executable, path], capture_output=True,
                    text=True, timeout=time_limit,
                )
            except subprocess.TimeoutExpired:
                self._stats["timeouts"] += 1
                return SolverResult.UNKNOWN
            self._stats["last_seconds"] = int(
                (time.monotonic() - start) * 1000)
            if proc.returncode == 10:
                self._model = self._parse_model(proc.stdout, num_vars)
                return SolverResult.SAT
            if proc.returncode == 20:
                return SolverResult.UNSAT
            return SolverResult.UNKNOWN
        finally:
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    @staticmethod
    def _parse_model(stdout: str, num_vars: int) -> Model:
        values = {v: False for v in range(1, num_vars + 1)}
        for line in stdout.splitlines():
            if not line.startswith("v"):
                continue
            for token in line[1:].split():
                lit = int(token)
                if lit != 0 and abs(lit) <= num_vars:
                    values[abs(lit)] = lit > 0
        return Model(values)

    def model(self) -> Optional[Model]:
        return self._model

    def stats(self) -> Dict[str, int]:
        return dict(self._stats)

    def add_clause(self, clause: Sequence[int]) -> None:
        self._clauses.append(as_literals(clause))


class DimacsProcessBackend(SatBackend):
    """A DIMACS solver executable on PATH (kissat, cadical, minisat)."""

    incremental = False

    def __init__(self, name: str, executable: Optional[str] = None) -> None:
        self.name = name
        self.executable = executable or name

    def available(self) -> bool:
        return shutil.which(self.executable) is not None

    def session(self, num_vars: int,
                clauses: Sequence[Sequence[int]]) -> DimacsProcessSession:
        return DimacsProcessSession(num_vars, clauses, self.executable)


# -- registry -----------------------------------------------------------------

def _all_backends() -> Dict[str, SatBackend]:
    backends: Dict[str, SatBackend] = {"python": PythonBackend(),
                                       "pysat": PysatBackend()}
    for executable in _DIMACS_EXECUTABLES:
        backends[executable] = DimacsProcessBackend(executable)
    return backends


def available_backends() -> Dict[str, SatBackend]:
    """Name -> backend for every engine usable on this host."""
    return {name: backend for name, backend in _all_backends().items()
            if backend.available()}


def get_backend(name: str = "auto") -> SatBackend:
    """Resolve a backend by name; ``auto`` prefers external engines.

    Raises ``ValueError`` for an unknown name, and for a known engine
    that is not installed on this host (so a typo'd or missing
    ``--backend`` fails loudly instead of silently degrading).
    """
    if name == "auto":
        usable = available_backends()
        for candidate in AUTO_ORDER:
            if candidate in usable:
                return usable[candidate]
        return PythonBackend()  # unreachable: python is always available
    backends = _all_backends()
    backend = backends.get(name)
    if backend is None:
        raise ValueError(
            f"unknown SAT backend {name!r} "
            f"(known: auto, {', '.join(sorted(backends))})"
        )
    if not backend.available():
        raise ValueError(
            f"SAT backend {name!r} is not available on this host "
            f"(available: {', '.join(sorted(available_backends()))})"
        )
    return backend
