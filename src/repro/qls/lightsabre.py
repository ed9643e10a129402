"""LightSABRE evaluation mode: best-of-k randomized SABRE trials.

The paper evaluates Qiskit's LightSABRE with 1000 trials; each trial draws a
fresh random initial placement, runs the forward–backward layout search and
a final routing pass, and the best result by SWAP count wins.  Trial count
is the dominant runtime knob, so trials can be fanned out over a process
pool with the ``workers`` parameter: per-trial seeds are drawn up front
from the top-level seed (the same sequence the serial path consumes), each
worker runs a chunk of trials and ships back only its chunk's best result,
and the winner — lowest swap count, earliest trial on ties — is the
minimum over chunk bests.  The parallel path therefore returns
bit-identical results to the serial path for a fixed seed.  Throughput is
recorded as ``trials_per_second`` in the result metadata so the evaluation
harness can report it.

Pool sharing and failure recovery
---------------------------------
Trial chunks fan out through :func:`repro.parallel.map_ordered` on a
shared :class:`repro.parallel.WorkerPool` bound to :attr:`LightSabre.pool`
(the parallel evaluation harness does this, so a whole suite's trials
interleave on one set of workers), else on a pool of ``workers``
processes owned for the call.  A chunk the pool loses — a worker was
OOM-killed, say — is re-run alone in the parent, keeping every chunk that
completed (``retried_chunks`` in the metadata counts the re-runs).
"""

from __future__ import annotations

import random
import time
from typing import Optional, Sequence, Tuple

from ..arch.coupling import CouplingGraph
from ..circuit.circuit import QuantumCircuit
from ..parallel import WorkerPool, borrow_pool, map_ordered
from ..qubikos.mapping import Mapping
from .base import QLSResult, QLSTool
from .sabre import SabreLayout, SabreParameters


def _run_trial_chunk(circuit: QuantumCircuit, coupling: CouplingGraph,
                     params: SabreParameters, initial_mapping: Optional[Mapping],
                     indexed_seeds: Sequence[Tuple[int, int]]
                     ) -> Tuple[int, QLSResult]:
    """Worker: run a batch of trials, return the chunk's best.

    Best = lowest swap count, earliest trial index on ties — the same key
    the serial path uses, so the minimum over chunk bests is the serial
    winner.  Only one ``QLSResult`` travels back per worker, which keeps
    IPC small at paper-scale trial counts without a winner replay.
    """
    best_index = -1
    best: Optional[QLSResult] = None
    for index, seed in indexed_seeds:
        result = SabreLayout(params=params, seed=seed).run(
            circuit, coupling, initial_mapping
        )
        if best is None or result.swap_count < best.swap_count:
            best = result
            best_index = index
    assert best is not None
    return best_index, best


class LightSabre(QLSTool):
    """Best-of-``trials`` SABRE (the paper's strongest baseline).

    ``workers`` > 1 distributes trials over a pool owned for the call;
    ``None``/``0``/``1`` runs serially.  Binding :attr:`pool` to a shared
    :class:`repro.parallel.WorkerPool` overrides ``workers`` and submits the
    trial chunks there instead.  All paths pick the same winner for a fixed
    ``seed``.
    """

    name = "lightsabre"

    #: The parallel evaluation harness binds its suite-wide pool to tools
    #: advertising this flag (see ``repro.evalx.harness.evaluate``).
    supports_shared_pool = True

    def __init__(self, trials: int = 8,
                 params: Optional[SabreParameters] = None,
                 seed: Optional[int] = None,
                 workers: Optional[int] = None,
                 pool: Optional[WorkerPool] = None) -> None:
        if trials < 1:
            raise ValueError("need at least one trial")
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        self.trials = trials
        self.params = params or SabreParameters()
        self.seed = seed
        self.workers = workers
        #: Optional shared pool; not pickled with the tool (workers never
        #: nest pools — a tool shipped to a pool worker runs serially there).
        self.pool = pool

    def __getstate__(self):
        state = self.__dict__.copy()
        state["pool"] = None  # executors do not cross process boundaries
        return state

    def run(self, circuit: QuantumCircuit, coupling: CouplingGraph,
            initial_mapping: Optional[Mapping] = None) -> QLSResult:
        rng = random.Random(self.seed)
        trial_seeds = [rng.randrange(2 ** 31) for _ in range(self.trials)]
        with borrow_pool(self.pool,
                         min(self.workers or 1, self.trials)) as pool:
            start = time.perf_counter()
            if pool is not None and self.trials > 1:
                best, used_workers, retried = self._run_parallel(
                    circuit, coupling, initial_mapping, trial_seeds, pool)
            else:
                best = self._run_serial(circuit, coupling, initial_mapping,
                                        trial_seeds)
                used_workers, retried = 1, None
            trial_phase = time.perf_counter() - start
        best.tool = self.name
        best.metadata["trials"] = self.trials
        # How the trials actually ran: 1 after a pool-unavailable fallback.
        best.metadata["workers"] = used_workers
        if retried is not None:
            best.metadata["retried_chunks"] = retried
        if trial_phase > 0:
            best.metadata["trials_per_second"] = self.trials / trial_phase
        return best

    def _run_serial(self, circuit: QuantumCircuit, coupling: CouplingGraph,
                    initial_mapping: Optional[Mapping],
                    trial_seeds: Sequence[int]) -> QLSResult:
        best: Optional[QLSResult] = None
        for trial, seed in enumerate(trial_seeds):
            tool = SabreLayout(params=self.params, seed=seed)
            result = tool.run(circuit, coupling, initial_mapping)
            if best is None or result.swap_count < best.swap_count:
                best = result
                best.metadata["winning_trial"] = trial
        assert best is not None
        return best

    def _run_parallel(self, circuit: QuantumCircuit, coupling: CouplingGraph,
                      initial_mapping: Optional[Mapping],
                      trial_seeds: Sequence[int], pool: WorkerPool
                      ) -> Tuple[QLSResult, int, int]:
        """Chunked trials on ``pool``, one chunk per worker.

        Returns ``(best, effective_workers, retried_chunks)``.  A chunk
        the pool loses is re-run in this
        process; chunk results that already completed are kept, so a
        single dead worker at paper scale costs one chunk of work, not the
        whole trial budget.
        """
        workers = min(pool.workers or 1, len(trial_seeds))
        indexed = list(enumerate(trial_seeds))
        chunks = [indexed[i::workers] for i in range(workers)]
        chunk_bests, retried = map_ordered(
            pool, _run_trial_chunk,
            [(circuit, coupling, self.params, initial_mapping, chunk)
             for chunk in chunks],
        )
        # Serial tie-break: lowest swap count, earliest trial among ties.
        # Trial indices are unique, so the minimum is order-independent.
        winner, best = min(
            chunk_bests, key=lambda pair: (pair[1].swap_count, pair[0])
        )
        best.metadata["winning_trial"] = winner
        return best, max(1, len(chunks) - retried), retried
