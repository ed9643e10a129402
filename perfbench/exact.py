"""``exact``: the SAT-based exact solver proving optimal SWAP counts.

Seeded QUBIKOS instances on the small devices the pure-Python engine can
close, each solved serially by ``ExactSolver(max_swaps=designed + 2)``
on the ``python`` backend with no time limit, so every instance ends in
a proof and the work done never depends on the clock.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List

from repro.arch import get_architecture
from repro.qls import exact as exact_module
from repro.qls.exact import ExactSolver, SatEncoder
from repro.qls.validate import validate_transpiled
from repro.qubikos import generate
from repro.sat.backend import PythonSession

from common import Spans, peak_rss_mb
from inputs import INSTANCE_SEED, relabel_all

#: (device, designed swaps, instances per pass).  Only ring8: on line8,
#: tshape9 and grid3x3 a few percent of instances take 10-40x the median
#: to prove optimal, and renaming qubits moves which ones, so a run's
#: total depended on the seed.  Many small instances average out the
#: rest of the solver's instance-to-instance spread.
STRATA = (
    ("ring8", 4, 100),
    ("ring8", 5, 14),
)
COUNTERS = ("conflicts", "decisions", "propagations")
#: (owner, attribute, span name) wrapped during traced passes.
SPANNED = (
    (SatEncoder, "__init__", "qls.exact.encode"),
    (SatEncoder, "extend_to", "qls.exact.encode"),
    (SatEncoder, "decode", "qls.exact.decode"),
    (exact_module, "validate_transpiled", "qls.exact.decode"),
    (PythonSession, "__init__", "sat.load"),
    (PythonSession, "add_clause", "sat.load"),
    (PythonSession, "solve", "sat.solve"),
)


class Workload:
    name = "exact"
    unit = "instances proven optimal"

    def __init__(self, seed: int) -> None:
        self.spans = Spans()
        base = random.Random(INSTANCE_SEED)
        self.items = []
        start = time.perf_counter()
        for device_name, swaps, count in STRATA:
            device = get_architecture(device_name)
            instances = [generate(device, num_swaps=swaps,
                                  seed=base.randrange(2 ** 31),
                                  ordering_mode="pruned")
                         for _ in range(count)]
            self.items += [(instance, device) for instance in
                           relabel_all(instances, seed * 31 + swaps)]
        self.generate_s = time.perf_counter() - start

    def run_pass(self, traced: bool) -> Dict[str, object]:
        def solve(instance, device):
            solver = ExactSolver(max_swaps=instance.optimal_swaps + 2)
            return solver.solve(instance.circuit, device)

        if traced:
            solve = self.spans.wrap("qls.exact.solve", solve)
        with self._instrumented() if traced else nullcontext():
            start = time.perf_counter()
            outcomes = [solve(instance, device)
                        for instance, device in self.items]
            wall = time.perf_counter() - start
        return {"wall": wall, "traced": traced, "outcomes": outcomes,
                "rss": peak_rss_mb([os.getpid()])}

    @contextmanager
    def _instrumented(self):
        """Wrap the engine's public entry points in spans for one pass."""
        saved = []
        try:
            for owner, attr, name in SPANNED:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.spans.wrap(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def close(self) -> None:
        pass

    # -- results ---------------------------------------------------------------

    def check(self, passes) -> Dict[str, object]:
        errors: List[str] = []
        attempted = failed = 0
        for index, result in enumerate(passes):
            for (instance, device), outcome in zip(self.items,
                                                   result["outcomes"]):
                attempted += 1
                designed = instance.optimal_swaps
                problem = None
                if not (outcome.optimal_swaps == outcome.proven_lower_bound
                        == designed):
                    problem = (f"optimal {outcome.optimal_swaps}, lower "
                               f"bound {outcome.proven_lower_bound}, "
                               f"designed {designed}")
                elif index == 0:
                    skeleton = instance.circuit.without_single_qubit_gates()
                    report = validate_transpiled(
                        skeleton, outcome.result.circuit, device,
                        outcome.result.initial_mapping)
                    if not report.valid or report.swap_count != designed:
                        problem = f"decoded circuit rejected: {report.error}"
                if problem is not None:
                    failed += 1
                    errors.append(f"pass {index} {instance.name}: {problem}")
            totals = self._totals(result["outcomes"])
            if totals != self._totals(passes[0]["outcomes"]):
                errors.append(f"pass {index} searched differently from "
                              "pass 0")
        return {"attempted": attempted, "failed": failed, "errors": errors,
                "fingerprint": self._totals(passes[0]["outcomes"])}

    @staticmethod
    def _totals(outcomes) -> Dict[str, int]:
        sums = {name: 0 for name in COUNTERS}
        sums["solves"] = 0
        for outcome in outcomes:
            for name in COUNTERS:
                sums[name] += outcome.totals.get(name, 0)
            sums["solves"] += len(outcome.solver_stats)
        return sums

    def end_to_end(self, passes) -> Dict[str, object]:
        walls = [p["wall"] for p in passes]
        proven = sum(len(p["outcomes"]) for p in passes)
        ratios = [o.optimal_swaps / inst.optimal_swaps
                  for (inst, _), o in zip(self.items, passes[0]["outcomes"])]
        return {
            "throughput_per_s": proven / sum(walls),
            # A batch user waits for the whole fixed set: with one pass a
            # run there is one such wait, so both figures are that wait.
            "latency_ms_p50": statistics.median(walls) * 1000.0,
            "latency_ms_p99": max(walls) * 1000.0,
            "swap_gap": sum(ratios) / len(ratios),
        }

    def per_layer(self, traced, untraced) -> Dict[str, float]:
        n = len(traced)
        self_time = self.spans.self_time
        totals = self._totals(traced[0]["outcomes"])
        solve_s = self_time.get("sat.solve", 0.0) / n
        return {
            "qubikos.generate_s": self.generate_s,
            "qls.exact.encode_s": self_time.get("qls.exact.encode", 0.0) / n,
            "sat.solve_s": solve_s,
            "qls.exact.decode_s": self_time.get("qls.exact.decode", 0.0) / n,
            "sat.solves": totals["solves"],
            "sat.conflicts": totals["conflicts"],
            "sat.decisions": totals["decisions"],
            "sat.propagations": totals["propagations"],
            "sat.propagations_per_s": totals["propagations"] / solve_s,
        }

    def layer_table(self, traced) -> List[tuple]:
        n = len(traced)
        self_time = self.spans.self_time
        return [
            ("qls.exact.encode (SatEncoder, extend_to)",
             self_time.get("qls.exact.encode", 0.0) / n),
            ("sat.load (clauses into the session)",
             self_time.get("sat.load", 0.0) / n),
            ("sat.solve", self_time.get("sat.solve", 0.0) / n),
            ("qls.exact.decode (decode, replay)",
             self_time.get("qls.exact.decode", 0.0) / n),
            ("qls.exact.solve (rest of ExactSolver.solve)",
             self_time.get("qls.exact.solve", 0.0) / n),
        ]
