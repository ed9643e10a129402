"""Cube-and-conquer: split one CNF into assumption cubes and fan them out.

A *cube* is a conjunction of literals.  Given a family of cubes that is
exhaustive (their disjunction is a tautology — e.g. the branches of an
``exactly_one`` group, or "edge e swapped first" for every edge plus "no
listed edge swapped first"), the formula is SAT iff the formula plus any
single cube is SAT, and UNSAT iff it is UNSAT under *every* cube.  Each
cube is an independent subproblem, which is exactly the shape the shared
:class:`repro.parallel.WorkerPool` wants (the idiom aig-cube applies to
CircuitSAT).

Determinism contract
--------------------
Workers solve cubes with fresh sessions (pure tasks — required by the
pool's self-healing re-run guarantee) and the merge is *first SAT in cube
order*: the fan-out is :func:`repro.parallel.map_ordered` with a
first-SAT ``stop``, which ends at the lowest-index SAT cube once every
lower cube is refuted, so the winning model is that cube's model no
matter how the pool interleaved the work.  Remaining cubes are abandoned
(a process pool cannot abort a running call) — their results are
discarded when they land.  UNSAT needs every cube refuted; a cube that
exhausts its budget degrades the merged answer to UNKNOWN unless a later
cube is SAT.

Pool casualties degrade per cube: ``map_ordered`` re-solves a cube the
pool lost serially in the parent (with the time budget its pool attempt
was given), so the merged outcome is identical with or without a healthy
pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..parallel import map_ordered
from . import dimacs
from .backend import get_backend
from .types import Model, SolverResult

Cube = Tuple[int, ...]


@dataclass
class CubeOutcome:
    """Merged result of a cube fan-out."""

    result: SolverResult
    model: Optional[Model]
    #: Per-cube engine stats for every cube actually solved, in cube
    #: order, each tagged with ``{"cube": index, "result": value}``.
    cube_stats: List[Dict[str, int]] = field(default_factory=list)
    #: Index of the cube that decided SAT (None for UNSAT/UNKNOWN).
    decided_by: Optional[int] = None
    #: Cubes re-solved in the parent after a pool casualty.
    pool_fallbacks: int = 0


def solve_cube_task(text: str, assumptions: Sequence[int],
                    backend_name: str,
                    conflict_limit: Optional[int],
                    time_limit: Optional[float]
                    ) -> Tuple[str, Optional[List[int]], Dict[str, int]]:
    """Solve one cube in a worker process.

    Pure function of its arguments (the WorkerPool healing contract):
    parses the shared DIMACS text, opens a fresh backend session, and
    returns ``(result value, sorted true variables or None, stats)`` —
    plain picklable types only.
    """
    num_vars, clauses = dimacs.loads(text)
    session = get_backend(backend_name).session(num_vars, clauses)
    result = session.solve(assumptions, conflict_limit, time_limit)
    true_vars: Optional[List[int]] = None
    if result is SolverResult.SAT:
        model = session.model()
        true_vars = model.true_variables() if model is not None else []
    return result.value, true_vars, session.stats()


def _is_sat(answer: Tuple[str, Optional[List[int]], Dict[str, int]]) -> bool:
    return answer[0] == SolverResult.SAT.value


def _rebuild_model(num_vars: int, true_vars: Sequence[int]) -> Model:
    truths = set(true_vars)
    return Model({v: v in truths for v in range(1, num_vars + 1)})


def solve_cubes(num_vars: int, clauses: Sequence[Sequence[int]],
                cubes: Sequence[Cube],
                base_assumptions: Sequence[int] = (),
                backend: str = "python",
                pool=None,
                conflict_limit: Optional[int] = None,
                deadline: Optional[float] = None) -> CubeOutcome:
    """Fan ``cubes`` over ``pool`` and merge deterministically.

    ``cubes`` must be exhaustive for the merge to be sound; mutual
    exclusivity is not required (it only avoids duplicated work).
    ``base_assumptions`` are conjoined to every cube (the exact tool's
    transition-selector literals).  ``deadline`` is a
    ``time.monotonic()`` instant shared by every cube; with ``pool=None``
    cubes are solved serially in cube order, which produces the same
    merged outcome.
    """
    if not cubes:
        raise ValueError("cube set must be non-empty (and exhaustive)")
    text = dimacs.dumps(num_vars, [list(c) for c in clauses])
    base = tuple(base_assumptions)

    def remaining() -> Optional[float]:
        if deadline is None:
            return None
        return deadline - time.monotonic()

    outcome = CubeOutcome(SolverResult.UNSAT, None)
    if pool is None:
        answers = []
        for cube in cubes:
            time_limit = remaining()
            if time_limit is not None and time_limit <= 0:
                outcome.result = SolverResult.UNKNOWN
                break
            answers.append(solve_cube_task(text, base + tuple(cube), backend,
                                           conflict_limit, time_limit))
            if _is_sat(answers[-1]):
                break
    else:
        time_limit = remaining()
        if time_limit is not None and time_limit <= 0:
            return CubeOutcome(SolverResult.UNKNOWN, None)
        answers, outcome.pool_fallbacks = map_ordered(
            pool, solve_cube_task,
            [(text, base + tuple(cube), backend, conflict_limit, time_limit)
             for cube in cubes],
            stop=_is_sat,
        )
    for index, (value, true_vars, stats) in enumerate(answers):
        outcome.cube_stats.append(dict(stats, cube=index, result=value))
        result = SolverResult(value)
        if result is SolverResult.SAT:
            outcome.result = SolverResult.SAT
            outcome.model = _rebuild_model(num_vars, true_vars or [])
            outcome.decided_by = index
            return outcome  # first SAT in cube order: deterministic
        if result is SolverResult.UNKNOWN:
            outcome.result = SolverResult.UNKNOWN
    return outcome
