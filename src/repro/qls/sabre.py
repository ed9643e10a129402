"""SABRE routing and layout (Li, Ding, Xie — ASPLOS 2019), with the
LightSABRE cost model the paper's case study dissects.

The router repeatedly executes every front-layer gate whose operands are
adjacent, then scores candidate SWAPs (edges touching a front-layer qubit)
with the three-component cost the paper describes in Section IV-C:

* **basic** — mean distance of front-layer gate operands after the SWAP;
* **lookahead** — mean distance over the *extended set* (the next
  ``extended_set_size`` gates past the front layer), weighted by
  ``extended_set_weight`` (Qiskit defaults: 20 gates, weight 0.5);
* **decay** — a multiplicative penalty on recently swapped qubits that
  breaks oscillations.

The paper's proposed remedy — decaying the extended-set contribution with
distance from the execution layer — is implemented as ``lookahead_decay``
(per-rank geometric weight); ``None`` reproduces stock behaviour.

Initial mappings use SABRE's forward–backward refinement; the LightSABRE
evaluation mode (multiple randomized trials, best by SWAP count) lives in
:mod:`repro.qls.lightsabre`.

Performance architecture
------------------------
The routing inner loop is the hot path of every benchmark, so it is built
for throughput while staying *bit-identical* to the reference formulation
(fixed seeds produce the same routed circuits and swap counts):

* the sorted front layer and the extended set are memoised on
  :class:`repro.circuit.dag.ExecutionFrontier` and recomputed only when a
  gate executes — a stall window of many SWAP decisions reuses one BFS —
  and ``ExecutionFrontier.done()`` is O(1);
* :meth:`SabreCostModel.best_swap` scores candidates from per-physical-
  qubit *partner maps*.  Front-layer gates are qubit-disjoint (two front
  gates sharing a qubit would be ordered in the DAG), so every front
  physical qubit has exactly one partner; extended-set qubits get a short
  partner list.  Because hop-count sums are exact small-integer
  arithmetic, SWAP ``(p1, p2)`` is scored as the base sum plus
  ``d[p2][x] - d[p1][x]`` over p1's partners ``x != p2`` and the mirror
  term for p2 — no re-sum of the front and extended set.  The partner
  maps are scratch arrays on the model, restored after each call;
  operand pairs come from ``DependencyDag.op_pairs`` and positions from
  the live ``Mapping.forward`` array (``score``/``score_all`` remain as
  the introspection API for the case study and the kernel's reference);
* with uniform lookahead, ``best_swap`` generates its candidates inside
  the scoring loop (each front qubit's sorted neighbours, an edge between
  two front qubits only from its smaller end) and sorts only the final
  ties, because tie order feeds ``rng.choice``.
  :meth:`SabreCostModel.candidate_swaps` — the sorted union of those
  edges — serves ``score_all`` and the geometric ``lookahead_decay`` path;
* :class:`SabreLayout` builds the skeleton :class:`DependencyDag`, its
  reverse, and one :class:`SabreCostModel` per ``run`` and threads them
  through all ``2 * layout_passes + 1`` ``route()`` calls; the layout
  passes keep only their final mapping, so they run ``route(...,
  emit=False)``, which builds no routed gates and no timeline;
* ``record_mappings=True`` logs compact swap deltas in a
  :class:`repro.qubikos.mapping.MappingTimeline` instead of deep-copying the
  mapping per executed gate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..arch.coupling import CouplingGraph
from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import DependencyDag, ExecutionFrontier
from ..circuit.gates import Gate
from ..obs import metrics as obs_metrics
from ..obs import profile as obs_profile
from ..qubikos.mapping import Mapping, MappingTimeline
from .base import QLSError, QLSResult, QLSTool
from .reinsert import split_one_qubit_gates, weave_transpiled

Edge = Tuple[int, int]


@dataclass(frozen=True)
class SabreParameters:
    """Tunables of the SABRE heuristic (Qiskit-compatible defaults)."""

    extended_set_size: int = 20
    extended_set_weight: float = 0.5
    decay_increment: float = 0.001
    decay_reset_interval: int = 5
    lookahead_decay: Optional[float] = None  # paper's Section IV-C remedy
    layout_passes: int = 3  # forward/backward rounds for the initial mapping


@dataclass(frozen=True)
class SwapScore:
    """Cost breakdown for one candidate SWAP (used by the case study)."""

    swap: Edge
    basic: float
    lookahead: float
    decay: float
    total: float


class SabreCostModel:
    """Scores candidate SWAPs; shared by the router and the case study.

    :meth:`best_swap` keeps scratch arrays indexed by physical qubit on
    the model, so a model serves one routing pass at a time (every
    in-repo caller builds its own per ``run``).
    """

    def __init__(self, coupling: CouplingGraph, params: SabreParameters) -> None:
        self.coupling = coupling
        self.params = params
        # Plain nested lists: scalar indexing is several times faster than
        # numpy element access, and scoring is the routing hot path.  The
        # list form is cached on the coupling graph, shared by every model.
        self._dist = coupling.distance_rows
        n = coupling.num_qubits
        #: ``_neighbours[p]``: the coupling neighbours of ``p``, ascending.
        self._neighbours: List[Tuple[int, ...]] = [
            tuple(sorted(coupling.neighbors(p))) for p in range(n)
        ]
        # best_swap scratch, restored after every call: the front-layer
        # partner of each physical qubit (-1 = none) and its list of
        # extended-set partners.
        self._front_partner: List[int] = [-1] * n
        self._ext_partners: List[List[int]] = [[] for _ in range(n)]

    def candidate_swaps(self, dag: DependencyDag, frontier: ExecutionFrontier,
                        mapping: Mapping) -> List[Edge]:
        """Coupling edges touching a physical qubit hosting a front operand,
        sorted (the order ties are drawn from)."""
        pi = mapping.forward
        ops = dag.op_pairs
        candidates: Set[Edge] = set()
        for node in frontier.front:
            a, b = ops[node]
            pa = pi[a] if a < len(pi) else -1
            pb = pi[b] if b < len(pi) else -1
            if pa < 0 or pb < 0:
                raise KeyError(a if pa < 0 else b)
            for p in (pa, pb):
                candidates.update((p, x) if p < x else (x, p)
                                  for x in self._neighbours[p])
        return sorted(candidates)

    def score(self, dag: DependencyDag, mapping: Mapping, swap: Edge,
              front: Sequence[int], extended: Sequence[int],
              decay: Dict[int, float]) -> SwapScore:
        """The LightSABRE cost of applying ``swap`` to ``mapping``."""
        p1, p2 = swap

        def position(q: int) -> int:
            p = mapping.phys(q)
            if p == p1:
                return p2
            if p == p2:
                return p1
            return p

        dist = self._dist
        basic = 0.0
        for node in front:
            g = dag.gates[node]
            basic += dist[position(g[0])][position(g[1])]
        basic /= max(len(front), 1)

        lookahead = 0.0
        if extended:
            weight_sum = 0.0
            rank_weight = 1.0
            for node in extended:
                g = dag.gates[node]
                lookahead += rank_weight * dist[position(g[0])][position(g[1])]
                weight_sum += rank_weight
                if self.params.lookahead_decay is not None:
                    rank_weight *= self.params.lookahead_decay
            lookahead /= weight_sum
        decay_factor = max(
            decay.get(mapping.prog(p1), 1.0) if mapping.has_prog_at(p1) else 1.0,
            decay.get(mapping.prog(p2), 1.0) if mapping.has_prog_at(p2) else 1.0,
        )
        total = decay_factor * (basic + self.params.extended_set_weight * lookahead)
        return SwapScore(swap=swap, basic=basic, lookahead=lookahead,
                         decay=decay_factor, total=total)

    def score_all(self, dag: DependencyDag, frontier: ExecutionFrontier,
                  mapping: Mapping, decay: Optional[Dict[int, float]] = None
                  ) -> List[SwapScore]:
        """Scores for every candidate SWAP at the current routing state."""
        decay = decay if decay is not None else {}
        front = sorted(frontier.front)
        extended = frontier.following_gates(self.params.extended_set_size)
        return [
            self.score(dag, mapping, swap, front, extended, decay)
            for swap in self.candidate_swaps(dag, frontier, mapping)
        ]

    def best_swap(self, dag: DependencyDag, frontier: ExecutionFrontier,
                  mapping: Mapping, decay: Dict[int, float],
                  rng: random.Random) -> Tuple[Edge, float]:
        """Scoring fast path: ``(chosen swap, best total)``.

        Produces exactly the swap :meth:`score_all` + min + ``rng.choice``
        would select (ties included, with the same rng consumption), but
        builds no :class:`SwapScore` per candidate.

        With the default uniform lookahead weighting, distance sums are
        exact small-integer arithmetic, so each candidate is scored from
        per-physical-qubit *partner maps*.  Front-layer gates are
        qubit-disjoint (two front gates sharing a qubit would be ordered
        in the DAG), so a front physical qubit has exactly one partner;
        an extended-set qubit has a short list.  SWAP ``(p1, p2)`` moves
        the gate ``(p1, x)``, ``x != p2``, to ``(p2, x)``, so the
        candidate's sum is the base sum plus ``d[p2][x] - d[p1][x]`` over
        p1's partners and the mirror term over p2's — the same integers a
        from-scratch re-sum gives, divided and combined by the same float
        expression, hence bit-identical totals.

        Candidates are generated inside the scoring loop: each front
        qubit's edges, an edge between two front qubits taken only from
        its smaller endpoint.  The total is symmetric in ``(p1, p2)``, so
        only the candidates within ``1e-12`` of the running minimum are
        kept, and only the final ties are normalised and sorted — the
        tie list, in order, that :meth:`candidate_swaps` would give.
        """
        params = self.params
        dist = self._dist
        pi = mapping.forward
        back = mapping.backward
        nback = len(back)
        ops = dag.op_pairs
        front = frontier.front_sorted()
        extended = frontier.following_gates(params.extended_set_size)

        nf = max(len(front), 1)
        ne = len(extended)
        ew = params.extended_set_weight
        ld = params.lookahead_decay

        if ld is not None:
            # Geometric per-rank weights are float products; replicate the
            # reference summation order exactly instead of using deltas.
            candidates = self.candidate_swaps(dag, frontier, mapping)
            if not candidates:
                raise QLSError(
                    "no candidate swaps; disconnected coupling graph?")
            totals: List[float] = []
            fpos = [(pi[ops[n][0]], pi[ops[n][1]]) for n in front]
            epos = [(pi[ops[n][0]], pi[ops[n][1]]) for n in extended]
            for p1, p2 in candidates:
                basic = 0.0
                for pa, pb in fpos:
                    npa = p2 if pa == p1 else (p1 if pa == p2 else pa)
                    npb = p2 if pb == p1 else (p1 if pb == p2 else pb)
                    basic += dist[npa][npb]
                basic /= nf
                lookahead = 0.0
                if epos:
                    weight_sum = 0.0
                    rank_weight = 1.0
                    for pa, pb in epos:
                        npa = p2 if pa == p1 else (p1 if pa == p2 else pa)
                        npb = p2 if pb == p1 else (p1 if pb == p2 else pb)
                        lookahead += rank_weight * dist[npa][npb]
                        weight_sum += rank_weight
                        rank_weight *= ld
                    lookahead /= weight_sum
                q1 = back[p1] if p1 < nback else -1
                q2 = back[p2] if p2 < nback else -1
                d1 = decay.get(q1, 1.0) if q1 >= 0 else 1.0
                d2 = decay.get(q2, 1.0) if q2 >= 0 else 1.0
                decay_factor = d1 if d1 >= d2 else d2
                totals.append(decay_factor * (basic + ew * lookahead))
            best_total = min(totals)
            threshold = best_total + 1e-12
            ties = [candidates[i] for i, t in enumerate(totals)
                    if t <= threshold]
            return rng.choice(ties), best_total

        fpart = self._front_partner
        epart = self._ext_partners
        neighbours = self._neighbours
        front_qubits: List[int] = []
        base_f = 0
        base_e = 0
        best = threshold = float("inf")
        # (total, p1, p2) of every candidate within 1e-12 of the running
        # minimum when scored; a superset of the final ties.
        kept: List[Tuple[float, int, int]] = []
        try:
            for node in front:
                a, b = ops[node]
                pa = pi[a]
                pb = pi[b]
                fpart[pa] = pb
                fpart[pb] = pa
                front_qubits.append(pa)
                front_qubits.append(pb)
                base_f += dist[pa][pb]
            for node in extended:
                a, b = ops[node]
                pa = pi[a]
                pb = pi[b]
                epart[pa].append(pb)
                epart[pb].append(pa)
                base_e += dist[pa][pb]
            for p1 in front_qubits:
                r1 = dist[p1]
                x1 = fpart[p1]
                e1 = epart[p1]
                for p2 in neighbours[p1]:
                    x2 = fpart[p2]
                    if x2 >= 0 and p2 < p1:
                        continue  # both ends in the front: scored from p2
                    r2 = dist[p2]
                    sf = base_f
                    if x1 != p2:
                        sf += r2[x1] - r1[x1]
                    if x2 >= 0 and x2 != p1:
                        sf += r1[x2] - r2[x2]
                    basic = sf / nf
                    if ne:
                        se = base_e
                        for x in e1:
                            if x != p2:
                                se += r2[x] - r1[x]
                        for x in epart[p2]:
                            if x != p1:
                                se += r1[x] - r2[x]
                        lookahead = se / ne
                    else:
                        lookahead = 0.0
                    if decay:
                        q1 = back[p1] if p1 < nback else -1
                        q2 = back[p2] if p2 < nback else -1
                        d1 = decay.get(q1, 1.0) if q1 >= 0 else 1.0
                        d2 = decay.get(q2, 1.0) if q2 >= 0 else 1.0
                        decay_factor = d1 if d1 >= d2 else d2
                        total = decay_factor * (basic + ew * lookahead)
                    else:
                        total = basic + ew * lookahead
                    if total <= threshold:
                        kept.append((total, p1, p2))
                        if total < best:
                            best = total
                            threshold = best + 1e-12
        finally:
            for p in front_qubits:
                fpart[p] = -1
            for node in extended:
                a, b = ops[node]
                epart[pi[a]].clear()
                epart[pi[b]].clear()
        if not kept:
            raise QLSError("no candidate swaps; disconnected coupling graph?")
        ties = sorted((p1, p2) if p1 < p2 else (p2, p1)
                      for total, p1, p2 in kept if total <= threshold)
        return rng.choice(ties), best


@dataclass
class RoutingOutcome:
    """Raw result of one forward routing pass.

    ``mapping_at`` is indexable by original two-qubit gate index and yields
    the :class:`Mapping` in force when that gate executed: either a plain
    dict of mappings (tools that snapshot eagerly) or a
    :class:`~repro.qubikos.mapping.MappingTimeline` (SABRE's compact
    swap-delta log, reconstructed on demand).
    """

    routed: List[Tuple[int, Gate]]  # (original 2q index, physical gate); -1 = SWAP
    swap_count: int
    final_mapping: Mapping
    mapping_at: Union[MappingTimeline, Dict[int, Mapping]]
    fallback_swaps: int = 0


def route(circuit: Optional[QuantumCircuit], coupling: CouplingGraph,
          mapping: Mapping, params: SabreParameters, rng: random.Random,
          record_mappings: bool = False,
          dag: Optional[DependencyDag] = None,
          model: Optional[SabreCostModel] = None,
          emit: bool = True) -> RoutingOutcome:
    """One SABRE forward routing pass; ``mapping`` is consumed (mutated).

    ``dag``/``model`` let callers that route the same skeleton repeatedly
    (layout passes, best-of-k trials) reuse the dependency DAG and cost
    model instead of rebuilding them per pass.  A given ``dag`` is the
    routing input and ``circuit`` may be ``None``; otherwise the DAG is
    built from ``circuit``.

    ``emit=False`` is the layout search's output-free pass: the same
    decisions, rng draws, counts and final mapping, but ``routed`` stays
    empty and no gate is built (so ``record_mappings`` needs ``emit``).
    """
    if record_mappings and not emit:
        raise ValueError("record_mappings needs emit=True")
    if dag is None:
        if circuit is None:
            raise ValueError("route() needs a circuit or a prebuilt dag")
        dag = DependencyDag.from_circuit(circuit)
    if model is None:
        model = SabreCostModel(coupling, params)
    frontier = ExecutionFrontier(dag)
    decay: Dict[int, float] = {}
    routed: List[Tuple[int, Gate]] = []
    timeline = MappingTimeline(mapping) if record_mappings else None
    swap_count = 0
    fallback_swaps = 0
    swaps_since_progress = 0
    swaps_since_reset = 0
    # Livelock bound: generous multiple of how far anything could need to move.
    stall_limit = max(16, 6 * coupling.diameter())

    pi = mapping.forward  # live π array, mutated in place by swap_physical
    back = mapping.backward
    ops = dag.op_pairs
    gates = dag.gates
    adj = [coupling.neighbors(p) for p in range(coupling.num_qubits)]
    npi = len(pi)
    for a, b in ops:
        if a >= npi or pi[a] < 0 or b >= npi or pi[b] < 0:
            raise QLSError(f"program qubit of gate pair ({a}, {b}) is unmapped")

    while not frontier.done():
        # Execute satisfiable gates in ascending node order, sweep by
        # sweep.  After the first full sweep only newly released gates can
        # become satisfiable (the mapping is unchanged), so later sweeps
        # walk the released nodes instead of re-sorting the front layer.
        progressed = False
        worklist: List[int] = frontier.front_sorted()
        while worklist:
            released: List[int] = []
            for node in worklist:
                a, b = ops[node]
                p1 = pi[a]
                p2 = pi[b]
                if p2 in adj[p1]:
                    released += frontier.execute(node)
                    progressed = True
                    if emit:
                        routed.append(
                            (node, gates[node].remap({a: p1, b: p2})))
                        if timeline is not None:
                            timeline.record_gate(node)
            worklist = sorted(released) if len(released) > 1 else released
        if progressed:
            swaps_since_progress = 0
            decay.clear()
            swaps_since_reset = 0
            continue
        if swaps_since_progress >= stall_limit:
            # Escape hatch: greedily walk one front gate's operands together.
            swaps_done = _force_route_one(dag, frontier, coupling, mapping,
                                          routed if emit else None, timeline)
            swap_count += swaps_done
            fallback_swaps += swaps_done
            swaps_since_progress = 0
            if obs_profile._ACTIVE is not None:
                obs_profile._ACTIVE.bump("sabre.forced_swaps", swaps_done)
            continue
        (p1, p2), _total = model.best_swap(dag, frontier, mapping, decay, rng)
        mapping.swap_physical(p1, p2)
        if emit:
            routed.append((-1, Gate("swap", (p1, p2))))
            if timeline is not None:
                timeline.record_swap(p1, p2)
        swap_count += 1
        swaps_since_progress += 1
        swaps_since_reset += 1
        if obs_profile._ACTIVE is not None:
            obs_profile._ACTIVE.bump("sabre.swaps")
        for p in (p1, p2):
            q = back[p] if p < len(back) else -1
            if q >= 0:
                decay[q] = decay.get(q, 1.0) + params.decay_increment
        if swaps_since_reset >= params.decay_reset_interval:
            decay.clear()
            swaps_since_reset = 0
    if obs_metrics._ACTIVE is not None:
        obs_metrics.ROUTER_SWAPS.inc(swap_count, router="sabre")
    return RoutingOutcome(
        routed=routed, swap_count=swap_count, final_mapping=mapping,
        mapping_at=timeline if timeline is not None else {},
        fallback_swaps=fallback_swaps,
    )


def _force_route_one(dag: DependencyDag, frontier: ExecutionFrontier,
                     coupling: CouplingGraph, mapping: Mapping,
                     routed: Optional[List[Tuple[int, Gate]]],
                     timeline: Optional[MappingTimeline] = None) -> int:
    """Livelock escape: route the closest front gate along a shortest path.

    ``routed=None`` (an output-free pass) applies the SWAPs unrecorded.
    """
    best_node = min(
        frontier.front,
        key=lambda n: coupling.distance(
            mapping.phys(dag.gates[n][0]), mapping.phys(dag.gates[n][1])
        ),
    )
    g = dag.gates[best_node]
    path = coupling.shortest_path(mapping.phys(g[0]), mapping.phys(g[1]))
    swaps = 0
    # Walk the first operand toward the second until adjacent.
    for a, b in zip(path, path[1:-1]):
        mapping.swap_physical(a, b)
        if routed is not None:
            routed.append((-1, Gate("swap", (a, b))))
        if timeline is not None:
            timeline.record_swap(a, b)
        swaps += 1
    return swaps


class SabreLayout(QLSTool):
    """Full SABRE: forward–backward initial-mapping search plus routing.

    The skeleton dependency DAG, its reverse, and the cost model are built
    once per :meth:`run` and shared by all ``2 * layout_passes + 1``
    routing passes.
    """

    name = "sabre"

    def __init__(self, params: Optional[SabreParameters] = None,
                 seed: Optional[int] = None) -> None:
        self.params = params or SabreParameters()
        self.seed = seed

    def run(self, circuit: QuantumCircuit, coupling: CouplingGraph,
            initial_mapping: Optional[Mapping] = None) -> QLSResult:
        rng = random.Random(self.seed)
        if circuit.num_qubits > coupling.num_qubits:
            raise QLSError(
                f"circuit needs {circuit.num_qubits} qubits; device has "
                f"{coupling.num_qubits}"
            )
        two_qubit, bundles, tail = split_one_qubit_gates(circuit)
        skeleton = QuantumCircuit(circuit.num_qubits, two_qubit)
        dag = DependencyDag.from_circuit(skeleton)
        model = SabreCostModel(coupling, self.params)
        if initial_mapping is None:
            mapping = self._search_initial_mapping(skeleton, dag, coupling,
                                                   model, rng)
        else:
            mapping = initial_mapping.copy()
        start_mapping = mapping.copy()
        outcome = route(skeleton, coupling, mapping, self.params, rng,
                        record_mappings=True, dag=dag, model=model)
        transpiled = weave_transpiled(
            coupling.num_qubits, outcome.routed, bundles, tail,
            mapping_at=outcome.mapping_at, final_mapping=outcome.final_mapping,
            name=f"{circuit.name}_{self.name}",
        )
        return QLSResult(
            tool=self.name,
            circuit=transpiled,
            initial_mapping=start_mapping,
            swap_count=outcome.swap_count,
            metadata={"fallback_swaps": outcome.fallback_swaps},
        )

    def _search_initial_mapping(self, skeleton: QuantumCircuit,
                                dag: DependencyDag,
                                coupling: CouplingGraph,
                                model: SabreCostModel,
                                rng: random.Random) -> Mapping:
        """Forward–backward passes: each pass's final mapping seeds the next."""
        mapping = _random_initial_mapping(skeleton.num_qubits, coupling, rng)
        reversed_dag = dag.reversed()
        for _ in range(self.params.layout_passes):
            for pass_dag in (dag, reversed_dag):
                mapping = route(None, coupling, mapping, self.params, rng,
                                dag=pass_dag, model=model,
                                emit=False).final_mapping
        return mapping


def _random_initial_mapping(num_program: int, coupling: CouplingGraph,
                            rng: random.Random) -> Mapping:
    physical = list(range(coupling.num_qubits))
    rng.shuffle(physical)
    return Mapping({q: physical[q] for q in range(num_program)})
