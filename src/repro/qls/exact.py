"""Exact SWAP-optimal layout synthesis via SAT (OLSQ2-style transition
encoding, solved through the pluggable :mod:`repro.sat.backend` protocol).

The encoding follows OLSQ2's transition model specialized to SWAP-count
optimality: ``k`` *transitions* separate ``k+1`` mapping *blocks*; at most
one SWAP fires per transition; every two-qubit gate is assigned to a block
in dependency order and must sit on a coupling edge under that block's
mapping.  ``optimal <= k`` iff the formula is satisfiable, so incrementing
``k`` from 0 until SAT yields the exact optimum (each UNSAT answer is a
machine-checked lower-bound proof).

Incremental k-search
--------------------
The sweep keeps **one** growing formula and **one** solver session.  Each
bound ``j`` adds only the new transition and mapping block, and its gate
completeness constraint ("every gate runs by block ``j``") is emitted
behind a per-bound *selector* variable as ``y(g,0) | ... | y(g,j) |
bound_j``.  Solving bound ``j`` under the assumption ``¬bound_j`` is then
equisatisfiable with the standalone ``j``-encoding — earlier bounds'
relaxed clauses are switched off through their free selectors — so the
``k = 0, 1, ...`` sweep runs through ``session.solve(assumptions=...)``
and learned clauses, VSIDS activity, and saved phases survive across
iterations instead of being rebuilt per ``k``.  Every UNSAT answer is
still a machine-checked lower bound for exactly the seed ``k``-encoding.

Cube-and-conquer
----------------
With ``workers``/``pool`` set, each ``k`` iteration splits on a
deterministic frontier — "coupling edge ``e`` swaps in transition 0" for
each edge plus a no-listed-edge cube (block-0 assignment of program qubit
0 when ``k = 0`` has no transitions) — and fans the cubes over the shared
:class:`repro.parallel.WorkerPool` via :func:`repro.sat.cube.solve_cubes`
(first-SAT-in-cube-order merge, all-UNSAT lower bounds, parent-side
serial fallback on pool casualties).

Pure-Python CDCL limits practical sizes to roughly 16 physical qubits /
30 two-qubit gates / k <= 6 — the same scalability wall the paper reports
for OLSQ2, just at a smaller constant; an external backend
(``backend="auto"`` with kissat/cadical/pysat installed) and multi-core
cube splitting push that frontier out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..arch.coupling import CouplingGraph
from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import DependencyDag
from ..circuit.gates import Gate
from ..obs import metrics as obs_metrics
from ..parallel import borrow_pool
from ..qubikos.mapping import Mapping
from ..sat.backend import SatBackend, SatSession, get_backend
from ..sat.cnf import CnfBuilder
from ..sat.cube import solve_cubes
from ..sat.types import Model, SolverResult
from .base import QLSError, QLSResult, QLSTool
from .validate import validate_transpiled

Edge = Tuple[int, int]


@dataclass
class ExactOutcome:
    """Result of an exact optimality search."""

    optimal_swaps: Optional[int]  # None if the budget ran out
    proven_lower_bound: int  # largest k with a verified UNSAT proof, plus one
    result: Optional[QLSResult]
    solver_stats: List[Dict[str, int]]
    timed_out: bool = False
    #: Engine counters summed over every k iteration (and every cube).
    totals: Dict[str, int] = field(default_factory=dict)
    #: Backend and search mode that produced this outcome.
    backend: str = "python"
    mode: str = "incremental"


class SatEncoder:
    """Builds the CNF for 'routable with at most k SWAPs'.

    Two construction modes share the same clause emitters:

    * ``selectors=False`` (default) — the complete ``k``-encoding, built
      eagerly in the constructor: the seed behaviour, used by the fresh
      per-k sweep and anything wanting a standalone formula.
    * ``selectors=True`` — incremental: the constructor encodes bound 0
      only; :meth:`extend_to` grows the formula one transition + block at
      a time, emitting each bound's completeness constraint behind a
      selector variable ``("bound", j)``.  :meth:`assumptions_for` turns
      a bound into its assumption literal and :meth:`cube_frontier`
      derives the deterministic cube split.
    """

    def __init__(self, skeleton: QuantumCircuit, coupling: CouplingGraph, k: int,
                 initial_mapping: Optional[Mapping] = None,
                 selectors: bool = False) -> None:
        self.coupling = coupling
        self.k = k
        self.selectors = selectors
        self.dag = DependencyDag.from_circuit(skeleton)
        self.num_program = skeleton.num_qubits
        self.num_physical = coupling.num_qubits
        if self.num_program > self.num_physical:
            raise QLSError("circuit larger than device")
        self.builder = CnfBuilder()
        self.initial_mapping = initial_mapping
        # Variable tables, filled block by block in allocation order:
        # x(q, p, t) as ``_x_tables[t][q][p]``, y(g, t) / z(g, t) as
        # ``_ys[g][t]`` / ``_zs[g][t]``, s(e, t) as ``_swaps[t][edge]``.
        self._x_tables: List[List[List[int]]] = []
        self._ys: List[List[int]] = [[] for _ in range(len(self.dag))]
        self._zs: List[List[int]] = [[] for _ in range(len(self.dag))]
        self._swaps: List[List[int]] = []
        self._neighbors = [coupling.neighbors(p)
                           for p in range(self.num_physical)]
        self._incident = [
            [i for i, e in enumerate(coupling.edges) if p in e]
            for p in range(self.num_physical)
        ]
        if selectors:
            self.built_k = -1
            self.extend_to(0)
        else:
            self._encode()
            self.built_k = k

    # -- encoding -------------------------------------------------------------

    def _xs(self, t: int) -> List[List[int]]:
        """Block ``t``'s mapping variables, allocated q-major on first use
        (where the first clause naming them would allocate them)."""
        if t == len(self._x_tables):
            var = self.builder.var
            self._x_tables.append([
                [var(("x", q, p, t)) for p in range(self.num_physical)]
                for q in range(self.num_program)
            ])
        return self._x_tables[t]

    def _bound(self, j: int) -> int:
        return self.builder.var(("bound", j))

    def _encode(self) -> None:
        """Eager complete encoding at bound ``self.k`` (seed behaviour)."""
        for t in range(self.k + 1):
            self._encode_block(t)
        for ys in self._ys:
            self.builder.at_least_one(ys)
        for t in range(self.k):
            self._encode_transition(t)

    def _encode_block(self, t: int) -> None:
        """Mapping block ``t``: well-formedness, gate placement in ``t``."""
        b = self.builder
        var = b.var
        xt = self._xs(t)
        # Mapping well-formedness.
        for row in xt:
            b.exactly_one(row)
        for p in range(self.num_physical):
            b.at_most_one([row[p] for row in xt])
        # Optional pinned initial mapping (router-only verification).
        if t == 0 and self.initial_mapping is not None:
            for q in range(self.num_program):
                b.add_unit(xt[q][self.initial_mapping.phys(q)])
        # Gate-to-block bookkeeping and dependency order.
        for g, (ys, zs) in enumerate(zip(self._ys, self._zs)):
            z = var(("z", g, t))
            y = var(("y", g, t))
            if t == 0:
                b.iff(z, y)
            else:
                b.iff_or(z, [zs[-1], y])
            for earlier in ys:  # at most one block per gate
                b.add([-earlier, -y])
            zs.append(z)
            ys.append(y)
        for earlier, later in self.dag.edges():
            b.implies(self._ys[later][t], self._zs[earlier][t])
        # Executability: a gate in block t sits on a coupling edge.
        for g, gate in enumerate(self.dag.gates):
            q1, q2 = gate.qubits
            y = self._ys[g][t]
            x1, x2 = xt[q1], xt[q2]
            for p, neighbors in enumerate(self._neighbors):
                b.add([-y, -x1[p]] + [x2[p2] for p2 in neighbors])

    def _encode_transition(self, t: int) -> None:
        """Transition ``t``: at most one SWAP; mapping evolves accordingly."""
        b = self.builder
        physical = range(self.num_physical)
        swaps = [b.var(("s", e, t)) for e in self.coupling.edges]
        self._swaps.append(swaps)
        b.at_most_one(swaps)
        moved = [b.var(("moved", p, t)) for p in physical]
        for p in physical:
            b.iff_or(moved[p], [swaps[i] for i in self._incident[p]])
        xt, xn = self._xs(t), self._xs(t + 1)
        for q in range(self.num_program):
            now, nxt = xt[q], xn[q]
            for p in physical:
                # Unmoved qubits stay put.
                b.add([moved[p], -now[p], nxt[p]])
                b.add([moved[p], now[p], -nxt[p]])
        for s_var, (a, c) in zip(swaps, self.coupling.edges):
            for now, nxt in zip(xt, xn):
                # Swapped endpoints exchange occupants.
                b.add([-s_var, -now[a], nxt[c]])
                b.add([-s_var, -now[c], nxt[a]])

    # -- incremental growth and restriction -----------------------------------

    def extend_to(self, k_active: int) -> None:
        """Grow the incremental formula to bound ``k_active``.

        Adds one transition + mapping block per missing bound, plus the
        bound's relaxed completeness clause ``y(g,0)|...|y(g,j)|bound_j``
        per gate.  Clauses only accumulate — an open solver session can
        be fed ``builder.clauses[n:]`` after each call.
        """
        if not self.selectors:
            raise QLSError("extend_to needs selectors=True")
        if not 0 <= k_active <= self.k:
            raise QLSError(
                f"bound {k_active} outside the encoded range 0..{self.k}"
            )
        b = self.builder
        while self.built_k < k_active:
            t = self.built_k + 1
            if t > 0:
                self._encode_transition(t - 1)
            self._encode_block(t)
            for ys in self._ys:
                b.add(ys + [self._bound(t)])
            self.built_k = t

    def assumptions_for(self, k_active: int) -> List[int]:
        """Assumption literals restricting the formula to ``<= k_active``
        swaps: force this bound's completeness selector off (gates must
        then run by block ``k_active``; earlier bounds' clauses stay
        satisfiable through their free selectors)."""
        if not self.selectors:
            raise QLSError("assumptions_for needs selectors=True")
        if not 0 <= k_active <= self.built_k:
            raise QLSError(
                f"bound {k_active} not built (built to {self.built_k}); "
                f"call extend_to first"
            )
        return [-self._bound(k_active)]

    def cube_frontier(self, k_active: int,
                      max_cubes: Optional[int] = None) -> List[Tuple[int, ...]]:
        """Deterministic, exhaustive cube split for the ``k_active`` solve.

        For ``k_active >= 1`` the frontier is the first transition's swap
        choice: one cube per coupling edge (``s(e, 0)`` true) plus a final
        cube asserting none of the listed edges swap first — exhaustive by
        construction, mutually exclusive via the per-transition
        at-most-one.  For ``k_active = 0`` there are no transitions, so
        the split falls back to program qubit 0's block-0 placement
        (exhaustive via its exactly-one group).  ``max_cubes`` caps the
        fan-out: surplus branches fold into the final complement cube.
        """
        if k_active > self.built_k:
            raise QLSError(
                f"bound {k_active} not built (built to {self.built_k})"
            )
        if k_active >= 1 and self.coupling.edges:
            branch = list(self._swaps[0])
        elif self.num_program >= 1:
            branch = list(self._xs(0)[0])
        else:
            return [()]  # empty circuit: a single unconditional cube
        if max_cubes is not None and max_cubes >= 1:
            branch = branch[: max(max_cubes - 1, 0)]
        cubes: List[Tuple[int, ...]] = [(lit,) for lit in branch]
        cubes.append(tuple(-lit for lit in branch))
        return cubes

    # -- decoding ------------------------------------------------------------

    def decode(self, model: Model) -> Tuple[Mapping, List[Tuple[Optional[Edge], List[int]]]]:
        """Extract (initial mapping, [(swap_before_block, gate_list)] )."""
        b = self.builder
        blocks = self.built_k + 1  # only decode blocks actually encoded
        mappings: List[Mapping] = []
        for t in range(blocks):
            assignment = {}
            for q in range(self.num_program):
                for p in range(self.num_physical):
                    if b.value(model, ("x", q, p, t)):
                        assignment[q] = p
                        break
            mappings.append(Mapping(assignment))
        schedule: List[Tuple[Optional[Edge], List[int]]] = []
        for t in range(blocks):
            swap: Optional[Edge] = None
            if t > 0:
                for e in self.coupling.edges:
                    if b.value(model, ("s", e, t - 1)):
                        swap = e
                        break
            gates = [
                g for g in range(len(self.dag))
                if b.value(model, ("y", g, t))
            ]
            schedule.append((swap, gates))
        return mappings[0], schedule


class ExactSolver(QLSTool):
    """Incremental-k exact SWAP-count solver with pluggable backends.

    * ``backend`` — a :func:`repro.sat.backend.get_backend` name.  The
      default ``"python"`` is deterministic and always available;
      ``"auto"`` upgrades to kissat/cadical/pysat when installed (the
      answer is backend-independent, and decoded circuits are re-validated
      regardless).
    * ``workers`` / ``pool`` — enable cube-and-conquer: cubes of each
      ``k`` iteration fan over a pool of ``workers`` processes owned
      for the call,
      or a shared :class:`repro.parallel.WorkerPool` (assign ``pool``).
    * ``incremental=False`` re-encodes and cold-starts per ``k`` — the
      seed behaviour, kept as the benchmark baseline.
    """

    name = "exact"

    def __init__(self, max_swaps: int = 8,
                 conflict_limit: Optional[int] = None,
                 time_limit: Optional[float] = None,
                 backend: str = "python",
                 workers: Optional[int] = None,
                 pool=None,
                 max_cubes: Optional[int] = None,
                 incremental: bool = True) -> None:
        if workers is not None and workers < 0:
            raise QLSError("workers must be non-negative")
        self.max_swaps = max_swaps
        self.conflict_limit = conflict_limit
        self.time_limit = time_limit
        self.backend = backend
        self.workers = workers
        self.pool = pool
        self.max_cubes = max_cubes
        self.incremental = incremental

    # -- search modes ---------------------------------------------------------

    def solve(self, circuit: QuantumCircuit, coupling: CouplingGraph,
              initial_mapping: Optional[Mapping] = None,
              start_k: int = 0) -> ExactOutcome:
        """Find the exact optimum by incrementing the SWAP bound.

        One deadline (``time_limit`` from entry) governs the whole sweep:
        every k iteration — and every cube within it — receives the
        remaining budget, so encoding time and earlier iterations are
        charged against the same clock; ``time_limit=0`` times out before
        the first solve, as on every backend.
        """
        skeleton = circuit.without_single_qubit_gates()
        deadline = time.monotonic() + self.time_limit \
            if self.time_limit is not None else None
        engine = get_backend(self.backend)
        with borrow_pool(self.pool, self.workers) as pool:
            if pool is not None:
                return self._solve_cube(skeleton, coupling, initial_mapping,
                                        start_k, deadline, pool)
        if self.incremental and engine.incremental:
            return self._solve_incremental(skeleton, coupling,
                                           initial_mapping, start_k,
                                           deadline, engine)
        return self._solve_fresh(skeleton, coupling, initial_mapping,
                                 start_k, deadline, engine)

    @staticmethod
    def _remaining(deadline: Optional[float]) -> Optional[float]:
        if deadline is None:
            return None
        return deadline - time.monotonic()

    def _solve_incremental(self, skeleton: QuantumCircuit,
                           coupling: CouplingGraph,
                           initial_mapping: Optional[Mapping],
                           start_k: int, deadline: Optional[float],
                           engine: SatBackend) -> ExactOutcome:
        """One growing formula, one session: each bound feeds only its new
        transition/block clauses to the open session and solves under the
        bound's selector assumption, so learned clauses survive the sweep."""
        stats: List[Dict[str, int]] = []
        if start_k > self.max_swaps:
            return self._finish(None, self.max_swaps + 1, None, stats,
                                timed_out=True)
        encoder = SatEncoder(skeleton, coupling, self.max_swaps,
                             initial_mapping, selectors=True)
        encoder.extend_to(max(start_k, 0))
        session = engine.session(encoder.builder.num_vars,
                                 encoder.builder.clauses)
        fed = len(encoder.builder.clauses)
        previous = session.stats()
        for k in range(start_k, self.max_swaps + 1):
            remaining = self._remaining(deadline)
            if remaining is not None and remaining <= 0:
                return self._finish(None, k, None, stats, timed_out=True)
            encoder.extend_to(k)
            clauses = encoder.builder.clauses
            while fed < len(clauses):
                session.add_clause(clauses[fed])
                fed += 1
            outcome = session.solve(encoder.assumptions_for(k),
                                    conflict_limit=self.conflict_limit,
                                    time_limit=remaining)
            current = session.stats()
            stats.append({"k": k, **_delta(previous, current)})
            previous = current
            if outcome is SolverResult.UNKNOWN:
                return self._finish(None, k, None, stats, timed_out=True)
            if outcome is SolverResult.SAT:
                result = self._build_result(skeleton, coupling, encoder,
                                            session.model(), k)
                return self._finish(k, k, result, stats)
        return self._finish(None, self.max_swaps + 1, None, stats,
                            timed_out=True)

    def _solve_fresh(self, skeleton: QuantumCircuit, coupling: CouplingGraph,
                     initial_mapping: Optional[Mapping], start_k: int,
                     deadline: Optional[float],
                     engine: SatBackend) -> ExactOutcome:
        """Per-k re-encode + cold session: the seed strategy, kept for
        non-incremental backends and as the benchmark baseline."""
        stats: List[Dict[str, int]] = []
        for k in range(start_k, self.max_swaps + 1):
            if (r := self._remaining(deadline)) is not None and r <= 0:
                return self._finish(None, k, None, stats, timed_out=True,
                                    mode="fresh")
            encoder = SatEncoder(skeleton, coupling, k, initial_mapping)
            session = engine.session(encoder.builder.num_vars,
                                     encoder.builder.clauses)
            outcome = session.solve(conflict_limit=self.conflict_limit,
                                    time_limit=self._remaining(deadline))
            stats.append({"k": k, **session.stats()})
            if outcome is SolverResult.UNKNOWN:
                return self._finish(None, k, None, stats, timed_out=True,
                                    mode="fresh")
            if outcome is SolverResult.SAT:
                result = self._build_result(skeleton, coupling, encoder,
                                            session.model(), k)
                return self._finish(k, k, result, stats, mode="fresh")
        return self._finish(None, self.max_swaps + 1, None, stats,
                            timed_out=True, mode="fresh")

    def _solve_cube(self, skeleton: QuantumCircuit, coupling: CouplingGraph,
                    initial_mapping: Optional[Mapping], start_k: int,
                    deadline: Optional[float], pool) -> ExactOutcome:
        """Cube-and-conquer each k iteration over the worker pool."""
        stats: List[Dict[str, int]] = []
        if start_k > self.max_swaps:
            return self._finish(None, self.max_swaps + 1, None, stats,
                                timed_out=True, mode="cube")
        encoder = SatEncoder(skeleton, coupling, self.max_swaps,
                             initial_mapping, selectors=True)
        builder = encoder.builder
        for k in range(start_k, self.max_swaps + 1):
            remaining = self._remaining(deadline)
            if remaining is not None and remaining <= 0:
                return self._finish(None, k, None, stats, timed_out=True,
                                    mode="cube")
            encoder.extend_to(k)
            cubes = encoder.cube_frontier(k, self.max_cubes)
            merged = solve_cubes(
                builder.num_vars, builder.clauses, cubes,
                base_assumptions=encoder.assumptions_for(k),
                backend=self.backend, pool=pool,
                conflict_limit=self.conflict_limit, deadline=deadline,
            )
            entry = {"k": k, "cubes": len(cubes),
                     "pool_fallbacks": merged.pool_fallbacks}
            for cube_stat in merged.cube_stats:
                for key, value in cube_stat.items():
                    if key in ("cube", "result"):
                        continue
                    if isinstance(value, int):
                        entry[key] = entry.get(key, 0) + value
            if merged.decided_by is not None:
                entry["decided_by"] = merged.decided_by
            stats.append(entry)
            if merged.result is SolverResult.UNKNOWN:
                return self._finish(None, k, None, stats, timed_out=True,
                                    mode="cube")
            if merged.result is SolverResult.SAT:
                result = self._build_result(skeleton, coupling, encoder,
                                            merged.model, k)
                return self._finish(k, k, result, stats, mode="cube")
        return self._finish(None, self.max_swaps + 1, None, stats,
                            timed_out=True, mode="cube")

    def _finish(self, optimal: Optional[int], lower_bound: int,
                result: Optional[QLSResult], stats: List[Dict[str, int]],
                timed_out: bool = False,
                mode: str = "incremental") -> ExactOutcome:
        totals: Dict[str, int] = {}
        for entry in stats:
            for key, value in entry.items():
                if key != "k" and isinstance(value, int):
                    totals[key] = totals.get(key, 0) + value
        if obs_metrics._ACTIVE is not None:
            for entry in stats:
                bound = str(entry.get("k", "?"))
                obs_metrics.SAT_CONFLICTS.inc(entry.get("conflicts", 0),
                                              bound=bound)
                obs_metrics.SAT_RESTARTS.inc(entry.get("restarts", 0),
                                             bound=bound)
            obs_metrics.SAT_SOLVES.inc(
                outcome="timeout" if timed_out else
                ("optimal" if optimal is not None else "exhausted"),
                mode=mode)
        return ExactOutcome(optimal, lower_bound, result, stats,
                            timed_out=timed_out, totals=totals,
                            backend=self.backend, mode=mode)

    def run(self, circuit: QuantumCircuit, coupling: CouplingGraph,
            initial_mapping: Optional[Mapping] = None) -> QLSResult:
        outcome = self.solve(circuit, coupling, initial_mapping)
        if outcome.result is None:
            raise QLSError(
                f"exact solver exhausted its budget (k <= {self.max_swaps})"
            )
        return outcome.result

    def _build_result(self, skeleton: QuantumCircuit, coupling: CouplingGraph,
                      encoder: SatEncoder, model: Model, k: int) -> QLSResult:
        initial, schedule = encoder.decode(model)
        mapping = initial.copy()
        transpiled = QuantumCircuit(coupling.num_qubits, name=f"{skeleton.name}_exact")
        swap_count = 0
        dag = encoder.dag
        for swap, gate_ids in schedule:
            if swap is not None:
                transpiled.append(Gate("swap", swap))
                mapping.swap_physical(*swap)
                swap_count += 1
            # Emit the block's gates in dependency (original) order.
            for g in sorted(gate_ids):
                gate = dag.gates[g]
                transpiled.append(gate.remap({
                    gate[0]: mapping.phys(gate[0]),
                    gate[1]: mapping.phys(gate[1]),
                }))
        # Machine-check the decoded schedule regardless of which backend
        # produced the model: an external engine's answer is only trusted
        # after the replay validates.
        report = validate_transpiled(skeleton, transpiled, coupling, initial)
        if not report.valid:
            raise QLSError(
                f"decoded exact schedule failed validation ({report.error}); "
                f"backend {self.backend!r} returned an inconsistent model"
            )
        if swap_count > k:
            raise QLSError(
                f"decoded schedule uses {swap_count} swaps, above the "
                f"proven bound k={k}"
            )
        return QLSResult(
            tool=self.name, circuit=transpiled, initial_mapping=initial,
            swap_count=swap_count, metadata={"k": k},
        )


def _delta(previous: Dict[str, int], current: Dict[str, int]) -> Dict[str, int]:
    """Per-iteration engine counters from two cumulative snapshots."""
    out: Dict[str, int] = {}
    for key, value in current.items():
        if isinstance(value, int):
            base = previous.get(key, 0)
            out[key] = value - base if isinstance(base, int) else value
    return out


def brute_force_optimal(circuit: QuantumCircuit, coupling: CouplingGraph,
                        max_swaps: int = 4) -> Optional[int]:
    """Exhaustive cross-check for tiny devices (<= ~6 physical qubits).

    Searches all initial mappings and all SWAP schedules up to ``max_swaps``
    via breadth-first iterative deepening on (mapping, executed-set) states.
    Returns the optimum, or None if above ``max_swaps``.
    """
    import itertools

    skeleton = circuit.without_single_qubit_gates()
    dag = DependencyDag.from_circuit(skeleton)
    n_p = coupling.num_qubits
    n_q = skeleton.num_qubits
    if n_p > 8:
        raise QLSError("brute force is for tiny devices only")
    pair_of = [dag.gates[g].qubit_pair() for g in range(len(dag))]
    preds = [dag.predecessors(g) for g in range(len(dag))]

    def closure(mapping: Tuple[int, ...], done: int) -> int:
        changed = True
        while changed:
            changed = False
            for g in range(len(dag)):
                if done & (1 << g):
                    continue
                if any(not (done & (1 << p)) for p in preds[g]):
                    continue
                a, b = pair_of[g]
                if coupling.has_edge(mapping[a], mapping[b]):
                    done |= 1 << g
                    changed = True
        return done

    from collections import deque

    full = (1 << len(dag)) - 1
    queue = deque()
    seen = set()
    for perm in itertools.permutations(range(n_p), n_q):
        done = closure(perm, 0)
        if done == full:
            return 0
        state = (perm, done)
        if state not in seen:
            seen.add(state)
            queue.append((perm, done, 0))
    # Breadth-first over SWAP count: the first completed state is optimal.
    while queue:
        mapping, done, used = queue.popleft()
        if used >= max_swaps:
            continue
        for a, b in coupling.edges:
            new_mapping = tuple(
                b if p == a else a if p == b else p for p in mapping
            )
            new_done = closure(new_mapping, done)
            if new_done == full:
                return used + 1
            state = (new_mapping, new_done)
            if state not in seen:
                seen.add(state)
                queue.append((new_mapping, new_done, used + 1))
    return None
