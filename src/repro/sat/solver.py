"""A CDCL SAT solver in pure Python.

This is the exact-solver substrate standing in for Z3/PySAT (unavailable
offline).  It implements the standard modern architecture:

* two-watched-literal unit propagation with *blocker literals* — each watch
  entry carries a cached clause literal checked before the clause itself is
  touched, the classic MiniSat trick that skips most clause visits;
* first-UIP conflict analysis with clause learning and non-chronological
  backjumping;
* exponential VSIDS activity (heap-backed decision queue) with phase
  saving;
* Luby-sequence restarts;
* learned-clause deletion by activity (simple geometric reduce schedule).

Performance.  MiniSat's design pays CPython costs MiniSat never had; the
kernel removes them without changing a single search decision, so the
conflicts, decisions, propagations, learned and deleted clauses and the
models of every call are those of the straightforward formulation
(pinned by ``tests/sat/test_search_golden.py``).  Each step, and why it
is decision-identical:

* *Per-literal values.*  ``_value[lit]`` is 1 (true), 0 (false) or -1
  (unassigned) for every packed literal, written for both polarities on
  assignment, so a literal test is one list load instead of
  ``assign[lit >> 1] ^ (lit & 1)``.  It is the only assignment store and
  holds the same truth values.  Backtracking leaves a variable's reason
  in place: reasons are only read while the variable is assigned.
* *Flat watch loop.*  Watch lists are packed ``[clause, blocker, ...]``
  integer arrays scanned by ``for i in range(0, n, 2)``; a kept watch is
  written back only once an earlier one has been dropped, and the gap is
  deleted in one slice.  The watches visited, their order and every
  clause edit are those of a read/write cursor pair.
* *Deduplicated decision heap.*  ``_in_heap[var]`` records that the heap
  holds an entry with ``var``'s current activity, so backtracking pushes
  only variables that lost theirs (popped, or bumped since).  Every
  unassigned variable still has a current entry, and the pick is a
  function of (activity, assignment) — highest activity, ties to the
  lowest variable — whatever stale entries the heap carries.
* *Reused analysis marks.*  ``_analyze`` and ``_minimize`` share one
  ``_seen`` array across conflicts (cleared after each use) in place of a
  fresh list and set, and bump activity inline: every variable they
  visit is assigned, so a bump only ever made its heap entry stale.
* *Kept unit list.*  Unit input clauses are recorded once, so each
  ``solve`` call enqueues the same units in the same order without
  rescanning the clause database.  Keeping them out of the database
  shifts clause indices uniformly, which preserves the index order
  ``_reduce_db`` breaks activity ties by.
* *One packing loop* per added clause: after ``as_literals`` validates
  the literals, one loop packs them, keeps first occurrences and spots a
  tautology, yielding the same packed clause.  Assumptions go through
  the same loop.

The solver is *incremental*: clauses may be added between ``solve`` calls,
and ``solve(assumptions=...)`` decides satisfiability under temporary
assumption literals while keeping everything learned so far — the engine
behind the exact QLS tool's single-encoding ``k`` sweep.  ``conflict_limit``
and ``time_limit`` are per-call budgets; a zero ``time_limit`` answers
UNKNOWN.  Throughput is tracked by ``perfbench/run.py --workload exact``
(``sat.propagations_per_s``, ``sat.solve_s``).
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .types import Model, SolverResult, as_literals


def _pack(literals: Iterable) -> Tuple[List[int], bool]:
    """Validate and pack DIMACS literals: ``+v`` -> ``2v``, ``-v`` -> ``2v+1``.

    Returns the packed literals without repeats, first occurrences in
    order, and whether some variable occurs in both polarities.  Raises
    ``ValueError`` for a literal that is 0 or not an integer.
    """
    # Clauses are short, so scanning the packed list beats a set.
    packed: List[int] = []
    tautology = False
    for lit in as_literals(literals):
        lit = 2 * lit if lit > 0 else 1 - 2 * lit
        if lit in packed:
            continue
        if lit ^ 1 in packed:
            tautology = True
        packed.append(lit)
    return packed, tautology


class CdclSolver:
    """Conflict-driven clause-learning solver over DIMACS-style clauses."""

    def __init__(self) -> None:
        self.num_vars = 0
        # Clause database (packed literals); unit input clauses live in
        # ``_units`` instead, as packed literals in input order.
        self._clauses: List[List[int]] = []
        self._learned_flags: List[bool] = []
        self._clause_activity: List[float] = []
        self._units: List[int] = []
        # Watches: packed literal -> flat [clause_index, blocker, ...] pairs.
        self._watches: List[List[int]] = [[], []]
        # Assignment: per packed literal 1 true / 0 false / -1 unassigned;
        # per variable the decision level and reason clause (-1: none).
        # A variable's reason is only read while it is assigned.
        self._value: List[int] = [-1, -1]
        self._level: List[int] = [0]
        self._reason: List[int] = [-1]
        self._trail: List[int] = []  # packed literals in assignment order
        self._trail_lim: List[int] = []
        self._qhead = 0
        # VSIDS.
        self._activity: List[float] = [0.0]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._phase: List[bool] = [False]
        self._heap: List[Tuple[float, int]] = []  # (-activity, var)
        self._in_heap: List[bool] = [False]  # heap holds a current entry
        self._seen: List[bool] = [False]  # conflict-analysis marks
        # Clause activity.
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._empty_clause = False
        # Stats (cumulative across solve calls).
        self.stats = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "deleted": 0,
        }

    # -- problem construction ---------------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self._ensure_vars(self.num_vars + 1)
        return self.num_vars

    def _ensure_vars(self, max_var: int) -> None:
        extra = max_var - self.num_vars
        if extra <= 0:
            return
        self.num_vars = max_var
        # Grown in place, like every per-variable array: hot loops and
        # ``solve`` hold them in locals across calls.
        self._value += [-1, -1] * extra
        self._watches += [[] for _ in range(2 * extra)]
        self._level += [0] * extra
        self._reason += [-1] * extra
        self._activity += [0.0] * extra
        self._phase += [False] * extra
        self._in_heap += [False] * extra
        self._seen += [False] * extra

    def add_clause(self, clause: Sequence[int]) -> None:
        """Add a DIMACS clause; empty clause marks the instance UNSAT.

        Raises ``ValueError`` for a literal that is 0 or not an integer.
        Repeated literals are dropped and tautologies ignored.
        """
        packed, tautology = _pack(clause)
        if tautology:
            return
        if not packed:
            self._empty_clause = True
            return
        top = max(packed) >> 1
        if top > self.num_vars:
            self._ensure_vars(top)
        if len(packed) == 1:
            # Enqueued as a root-level implication at solve time.
            self._units.append(packed[0])
            return
        index = len(self._clauses)
        self._clauses.append(packed)
        self._learned_flags.append(False)
        self._clause_activity.append(0.0)
        # Each watch carries the *other* watched literal as its blocker.
        self._watches[packed[0]] += (index, packed[1])
        self._watches[packed[1]] += (index, packed[0])

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    # -- assignment helpers -----------------------------------------------

    def _enqueue(self, packed: int, reason: int) -> None:
        var = packed >> 1
        self._value[packed] = 1
        self._value[packed ^ 1] = 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = not packed & 1
        self._trail.append(packed)

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> int:
        """Unit propagation; returns conflicting clause index or -1."""
        trail = self._trail
        value = self._value
        level = self._level
        reason = self._reason
        phase = self._phase
        clauses = self._clauses
        watches = self._watches
        depth = len(self._trail_lim)
        props = 0
        qhead = self._qhead
        conflict = -1
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            wl = watches[false_lit]
            j = 0  # next kept slot; j < i once a watch has been dropped
            for i in range(0, len(wl), 2):
                blocker = wl[i + 1]
                if value[blocker] == 1:
                    # Blocker satisfied: keep the watch, skip the clause.
                    if j != i:
                        wl[j] = wl[i]
                        wl[j + 1] = blocker
                    j += 2
                    continue
                ci = wl[i]
                clause = clauses[ci]
                # Normalize: false literal at position 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                fv = value[first]
                if fv == 1:
                    # Satisfied by the other watch; cache it as the blocker.
                    wl[j] = ci
                    wl[j + 1] = first
                    j += 2
                    continue
                # Look for a replacement watch (any non-false literal).
                for k in range(2, len(clause)):
                    other = clause[k]
                    if value[other] != 0:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other] += (ci, first)
                        break
                else:
                    wl[j] = ci
                    wl[j + 1] = first
                    j += 2
                    if fv == 0:
                        # first is false too: conflict.  The unvisited
                        # watches stay where they are; close the gap.
                        conflict = ci
                        del wl[j:i + 2]
                        break
                    # Unit: enqueue first (inlined _enqueue).
                    props += 1
                    var = first >> 1
                    value[first] = 1
                    value[first ^ 1] = 0
                    level[var] = depth
                    reason[var] = ci
                    phase[var] = not first & 1
                    trail.append(first)
            else:
                del wl[j:]
                continue
            break
        self._qhead = qhead
        self.stats["propagations"] += props
        return conflict

    # -- conflict analysis -----------------------------------------------

    # The per-variable arrays are rewritten in place (see _ensure_vars).

    def _rescale_activity(self) -> None:
        self._activity[:] = [a * 1e-100 for a in self._activity]
        self._var_inc *= 1e-100
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        value = self._value
        activity = self._activity
        in_heap = self._in_heap
        in_heap[:] = [False] + [value[2 * v] < 0
                                for v in range(1, self.num_vars + 1)]
        self._heap[:] = [(-activity[v], v)
                         for v in range(1, self.num_vars + 1) if in_heap[v]]
        heapify(self._heap)

    def _bump_clause(self, ci: int) -> None:
        activity = self._clause_activity
        activity[ci] += self._cla_inc
        if activity[ci] > 1e20:
            activity[:] = [a * 1e-20 for a in activity]
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """First-UIP learning: returns (learned packed clause, backjump level)."""
        clauses = self._clauses
        learned_flags = self._learned_flags
        level = self._level
        trail = self._trail
        seen = self._seen
        in_heap = self._in_heap
        activity = self._activity
        var_inc = self._var_inc
        learned: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        index = len(trail) - 1
        reason = conflict
        start = 0  # past the conflict, skip the reason's implied literal
        cur_level = len(self._trail_lim)
        while True:
            if learned_flags[reason]:
                self._bump_clause(reason)
            for lit in clauses[reason][start:]:
                var = lit >> 1
                if seen[var]:
                    continue
                var_level = level[var]
                if var_level == 0:
                    continue
                seen[var] = True
                # Bump (inlined): ``var`` is assigned, so its heap entry
                # just went stale and no push is due.
                bumped = activity[var] + var_inc
                activity[var] = bumped
                in_heap[var] = False
                if bumped > 1e100:
                    self._rescale_activity()
                    var_inc = self._var_inc
                if var_level >= cur_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Walk the trail back to the next marked literal.
            while not seen[trail[index] >> 1]:
                index -= 1
            packed = trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                break  # the UIP stays marked, like every learned variable
            var = packed >> 1
            seen[var] = False
            reason = self._reason[var]
            start = 1
        learned[0] = packed ^ 1
        # Clause minimization: drop literals implied by the rest.
        learned = self._minimize(learned)
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        back = max(level[l >> 1] for l in learned[1:])
        # Put a literal of the backjump level in position 1 for watching.
        for k in range(1, len(learned)):
            if level[learned[k] >> 1] == back:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, back

    def _minimize(self, learned: List[int]) -> List[int]:
        """Cheap recursive minimization (self-subsumption by reasons).

        ``_seen`` marks exactly the variables of ``learned`` on entry and
        is cleared on return.
        """
        seen = self._seen
        level = self._level
        reasons = self._reason
        clauses = self._clauses
        result = [learned[0]]
        for k in range(1, len(learned)):
            lit = learned[k]
            var = lit >> 1
            reason = reasons[var]
            if reason < 0:
                result.append(lit)
                continue
            for other in clauses[reason]:
                ov = other >> 1
                if ov != var and not seen[ov] and level[ov] != 0:
                    result.append(lit)  # not implied; keep
                    break
        for lit in learned:
            seen[lit >> 1] = False
        return result

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        value = self._value
        heap = self._heap
        activity = self._activity
        in_heap = self._in_heap
        trail = self._trail
        limit = trail_lim[level]
        for k in range(limit, len(trail)):
            packed = trail[k]
            value[packed] = -1
            value[packed ^ 1] = -1
            var = packed >> 1
            if not in_heap[var]:
                in_heap[var] = True
                heappush(heap, (-activity[var], var))
        del trail[limit:]
        del trail_lim[level:]
        self._qhead = limit

    def _record_learned(self, learned: List[int]) -> None:
        self.stats["learned"] += 1
        if len(learned) == 1:
            self._enqueue(learned[0], -1)
            return
        index = len(self._clauses)
        self._clauses.append(learned)
        self._learned_flags.append(True)
        self._clause_activity.append(self._cla_inc)
        self._watches[learned[0]] += (index, learned[1])
        self._watches[learned[1]] += (index, learned[0])
        self._enqueue(learned[0], index)

    # -- decisions ------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        """Highest-activity unassigned variable, ties to the lowest index.

        Entries whose activity is no longer the variable's are stale and
        skipped; popping a variable's current entry clears its
        ``_in_heap`` flag, so backtracking pushes it again.
        """
        heap = self._heap
        value = self._value
        activity = self._activity
        in_heap = self._in_heap
        while heap:
            neg_act, var = heappop(heap)
            if -neg_act == activity[var]:
                in_heap[var] = False
                if value[2 * var] < 0:
                    return var
        return 0

    # -- learned clause management -----------------------------------------

    def _reduce_db(self) -> None:
        """Drop the less-active half of long learned clauses."""
        learned = [
            i for i, is_learned in enumerate(self._learned_flags)
            if is_learned and len(self._clauses[i]) > 2
        ]
        if len(learned) < 100:
            return
        locked = {self._reason[packed >> 1] for packed in self._trail}
        learned.sort(key=lambda i: self._clause_activity[i])
        to_delete = set(learned[: len(learned) // 2]) - locked
        if not to_delete:
            return
        self.stats["deleted"] += len(to_delete)
        remap: Dict[int, int] = {}
        new_clauses: List[List[int]] = []
        new_flags: List[bool] = []
        new_act: List[float] = []
        for i in range(len(self._clauses)):
            if i not in to_delete:
                remap[i] = len(new_clauses)
                new_clauses.append(self._clauses[i])
                new_flags.append(self._learned_flags[i])
                new_act.append(self._clause_activity[i])
        self._clauses = new_clauses
        self._learned_flags = new_flags
        self._clause_activity = new_act
        for lit in range(len(self._watches)):
            wl = self._watches[lit]
            kept: List[int] = []
            for p in range(0, len(wl), 2):
                ci = wl[p]
                if ci in remap:
                    kept += (remap[ci], wl[p + 1])
            self._watches[lit] = kept
        self._reason[:] = [remap.get(r, -1) if r >= 0 else -1
                           for r in self._reason]

    # -- main loop ------------------------------------------------------------

    @staticmethod
    def _luby(i: int) -> int:
        """Luby restart sequence, 1-based: 1,1,2,1,1,2,4,1,1,2,..."""
        if i < 1:
            i = 1
        while True:
            k = i.bit_length()
            if (1 << k) - 1 == i:
                return 1 << (k - 1)
            i -= (1 << (k - 1)) - 1

    def solve(self, assumptions: Sequence[int] = (),
              conflict_limit: Optional[int] = None,
              time_limit: Optional[float] = None) -> SolverResult:
        """Decide satisfiability under optional assumptions and budgets.

        Both budgets are *per call*: ``conflict_limit`` counts conflicts in
        this call only (``self.stats`` stays cumulative), so an incremental
        caller gets a fresh budget each invocation.  A ``time_limit`` of 0
        (or less) answers UNKNOWN once the root level is propagated.
        Assumption literals are validated like clause literals.
        """
        # Dropping a repeated assumption changes nothing: its first copy
        # is already true by the time the loop below reaches it.
        assumption_packed, _ = _pack(assumptions)
        if self._empty_clause:
            return SolverResult.UNSAT
        self._backtrack(0)
        # Re-propagate the whole root trail: clauses added since the last
        # call may already be unit or falsified under level-0 assignments.
        self._qhead = 0
        value = self._value
        for packed in self._units:
            if value[packed] == 0:
                return SolverResult.UNSAT
            if value[packed] < 0:
                self._enqueue(packed, -1)
        if self._propagate() >= 0:
            return SolverResult.UNSAT
        if assumption_packed:
            self._ensure_vars(max(assumption_packed) >> 1)
        self._rebuild_heap()

        deadline = time.monotonic() + time_limit \
            if time_limit is not None else None
        stats = self.stats
        conflicts_at_start = stats["conflicts"]
        restart_count = 1
        budget = 100 * self._luby(restart_count)
        conflicts_here = 0
        reduce_at = stats["learned"] + 2000
        trail_lim = self._trail_lim

        while True:
            conflict = self._propagate()
            if conflict >= 0:
                stats["conflicts"] += 1
                conflicts_here += 1
                if not trail_lim:
                    return SolverResult.UNSAT
                learned, back = self._analyze(conflict)
                self._backtrack(back)
                self._record_learned(learned)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if conflict_limit is not None and \
                        stats["conflicts"] - conflicts_at_start \
                        >= conflict_limit:
                    return SolverResult.UNKNOWN
                if stats["learned"] >= reduce_at:
                    self._reduce_db()
                    reduce_at += 1000
                continue
            if deadline is not None and time.monotonic() >= deadline:
                return SolverResult.UNKNOWN
            if conflicts_here >= budget:
                stats["restarts"] += 1
                restart_count += 1
                budget = 100 * self._luby(restart_count)
                conflicts_here = 0
                self._backtrack(0)
                continue
            # Apply pending assumptions as pseudo-decisions: the first
            # unassigned one, or UNSAT if one is already false.
            packed = -1
            for lit in assumption_packed:
                if value[lit] == 0:
                    return SolverResult.UNSAT
                if value[lit] < 0:
                    packed = lit
                    break
            if packed == -1:
                var = self._pick_branch_var()
                if var == 0:
                    return SolverResult.SAT
                stats["decisions"] += 1
                packed = 2 * var + (0 if self._phase[var] else 1)
            trail_lim.append(len(self._trail))
            self._enqueue(packed, -1)

    def model(self) -> Model:
        """Extract the satisfying assignment after a SAT answer."""
        value = self._value
        return Model({var: value[2 * var] == 1
                      for var in range(1, self.num_vars + 1)})


def solve_clauses(clauses: Iterable[Sequence[int]],
                  assumptions: Sequence[int] = (),
                  conflict_limit: Optional[int] = None,
                  time_limit: Optional[float] = None
                  ) -> Tuple[SolverResult, Optional[Model]]:
    """One-shot convenience: solve a clause list, return (result, model)."""
    solver = CdclSolver()
    solver.add_clauses(clauses)
    result = solver.solve(assumptions, conflict_limit, time_limit)
    model = solver.model() if result is SolverResult.SAT else None
    return result, model
