"""``suite``: the paper's Figure 4 evaluation grid through ``evaluate``.

All four paper devices and all four paper tools, fanned over one
``WorkerPool`` of ``nproc`` workers.  The grid is trimmed to fit a run:
one SWAP count (5, the grid's smallest), five circuits per device, and
backbone-only circuits (the smallest instance QUBIKOS builds for the
device and SWAP count) instead of the paper's 300-3000 gates.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import threading
import time
from contextlib import nullcontext
from typing import Dict, List

from repro.evalx.harness import evaluate
from repro.evalx.stats import headline_gaps
from repro.obs import metrics as obs_metrics
from repro.parallel import WorkerPool
from repro.qls import paper_tools
from repro.qubikos.suite import build_suite, evaluation_spec

from common import descendants, peak_rss_mb
from inputs import INSTANCE_SEED, relabel_all

SWAP_COUNTS = (5,)
CIRCUITS_PER_POINT = 5
SABRE_TRIALS = 8
TOOLS = ("lightsabre", "mlqls", "astar", "tketlike")


class CountingPool(WorkerPool):
    """A ``WorkerPool`` that counts submissions whose future failed.

    The harness and LightSABRE re-run every such task in the parent, so
    the count is the number of serial fallbacks.
    """

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self.fallbacks = 0
        self._count_lock = threading.Lock()

    def submit(self, fn, *args):
        try:
            future = super().submit(fn, *args)
        except Exception:
            self._note_fallback(None)
            raise
        future.add_done_callback(self._note_fallback)
        return future

    def _note_fallback(self, future) -> None:
        if future is None or future.exception() is not None:
            with self._count_lock:
                self.fallbacks += 1

    def start(self) -> None:
        """Fork the workers now, so set-up pays for it."""
        for future in [self.submit(os.getpid) for _ in range(self.workers)]:
            future.result()


class Workload:
    name = "suite"
    unit = "(tool, instance) pairs"

    def __init__(self, seed: int) -> None:
        self.workers = os.cpu_count() or 1
        spec = dataclasses.replace(
            evaluation_spec(CIRCUITS_PER_POINT, seed=INSTANCE_SEED),
            swap_counts=SWAP_COUNTS, gate_counts={})
        start = time.perf_counter()
        self.instances = relabel_all(build_suite(spec), seed)
        self.generate_s = time.perf_counter() - start
        self.tools = paper_tools(seed, sabre_trials=SABRE_TRIALS)
        self.pools = {False: CountingPool(self.workers)}
        self.pools[False].start()

    def run_pass(self, traced: bool) -> Dict[str, object]:
        if traced and True not in self.pools:
            # Workers fork with metrics armed, so their counter deltas
            # ride back on every result of a traced pass.
            with obs_metrics.enabled():
                self.pools[True] = CountingPool(self.workers)
                self.pools[True].start()
        pool = self.pools[traced]
        registry = obs_metrics.MetricsRegistry() if traced else None
        with obs_metrics.enabled(registry) if traced else nullcontext():
            start = time.perf_counter()
            run = evaluate(self.tools, self.instances, pool=pool)
            wall = time.perf_counter() - start
        return {"wall": wall, "traced": traced, "records": run.records,
                "rss": peak_rss_mb([os.getpid()]),
                "worker_rss": peak_rss_mb(descendants(os.getpid())),
                "gaps": headline_gaps(run),
                "snapshot": registry.snapshot() if traced else None}

    def close(self) -> None:
        for pool in self.pools.values():
            pool.shutdown()

    # -- results ---------------------------------------------------------------

    def check(self, passes: List[Dict[str, object]]) -> Dict[str, object]:
        optimum = {inst.name: inst.optimal_swaps for inst in self.instances}
        errors: List[str] = []
        first = [record.result_key() for record in passes[0]["records"]]
        attempted = failed = 0
        for index, result in enumerate(passes):
            for record in result["records"]:
                attempted += 1
                problem = None
                if not record.valid:
                    problem = f"invalid: {record.error}"
                elif record.observed_swaps < optimum[record.instance]:
                    problem = (f"{record.observed_swaps} swaps is below the "
                               f"proven optimum {optimum[record.instance]}")
                if problem is not None:
                    failed += 1
                    errors.append(f"pass {index} {record.tool} on "
                                  f"{record.instance}: {problem}")
            if [r.result_key() for r in result["records"]] != first:
                errors.append(f"pass {index} routed differently from pass 0")
        expected = len(self.tools) * len(self.instances)
        if len(first) != expected:
            errors.append(f"{len(first)} records, expected {expected}")
        swaps = {tool: 0 for tool in TOOLS}
        for record in passes[0]["records"]:
            swaps[record.tool] += record.observed_swaps
        return {"attempted": attempted, "failed": failed, "errors": errors,
                "fingerprint": {"swaps_per_tool": swaps,
                                "pairs": len(first)}}

    def end_to_end(self, passes) -> Dict[str, float]:
        walls = [p["wall"] for p in passes]
        pairs = sum(len(p["records"]) for p in passes)
        ratios = [r.swap_ratio for r in passes[0]["records"] if r.valid]
        return {
            "throughput_per_s": pairs / sum(walls),
            # A batch user waits for the whole fixed set: with one pass a
            # run there is one such wait, so both figures are that wait.
            "latency_ms_p50": statistics.median(walls) * 1000.0,
            "latency_ms_p99": max(walls) * 1000.0,
            "swap_gap": statistics.mean(ratios),
        }

    def per_layer(self, traced, untraced) -> Dict[str, float]:
        n = len(traced)
        records = [r for p in traced for r in p["records"]]
        wall = sum(p["wall"] for p in traced)

        def run_s(tool):
            return sum(r.runtime_seconds for r in records
                       if r.tool == tool) / n

        sabre = [r for r in records if r.tool == "lightsabre"]
        validate = sum(r.validation_seconds for r in records)
        busy = sum(r.runtime_seconds + r.validation_seconds
                   for r in records)
        stage_s = 0.0
        for p in traced:
            entry = p["snapshot"].get("repro_pipeline_stage_seconds", {})
            stage_s += sum(s["sum"] for s in entry.get("series", {}).values())
        layer = {
            "qubikos.generate_s": self.generate_s,
            "qls.lightsabre.run_s": run_s("lightsabre"),
            "qls.lightsabre.trials_per_s": (
                SABRE_TRIALS * len(sabre)
                / sum(r.runtime_seconds for r in sabre)),
            "qls.astar.run_s": run_s("astar"),
            "qls.tketlike.run_s": run_s("tketlike"),
            "qls.mlqls.run_s": run_s("mlqls"),
            "qls.validate.s": validate / n,
            "parallel.busy_share": busy / (wall * self.workers),
            "parallel.fallbacks": sum(p.fallbacks
                                      for p in self.pools.values()),
            "parallel.respawns": sum(p.stats()["respawns"]
                                     for p in self.pools.values()),
            "pipeline.stage_s": stage_s / n,
            "parallel.worker_peak_rss_mb": max(p["worker_rss"]
                                               for p in traced),
        }
        for tool, gap in traced[0]["gaps"].items():
            layer[f"qls.{tool}.gap"] = gap
        return layer

    def layer_table(self, traced) -> List[tuple]:
        """Critical path of one pass, as the harness schedules it.

        LightSABRE pairs run first, one at a time from the parent, with
        their trial chunks on every worker; the parent validates each.
        Then the other pairs run whole inside the workers, so their time
        counts once per worker.  What is left is waiting: load imbalance
        at the end of the fan-out, IPC and harness overhead.
        """
        n = len(traced)
        records = [r for p in traced for r in p["records"]]
        rows = []
        sabre = [r for r in records if r.tool == "lightsabre"]
        rows.append(("qls.lightsabre (pool-fed trials)",
                     sum(r.runtime_seconds for r in sabre) / n))
        rows.append(("qls.validate (parent)",
                     sum(r.validation_seconds for r in sabre) / n))
        for tool in TOOLS[1:]:
            rows.append((f"qls.{tool} / {self.workers} workers",
                         sum(r.runtime_seconds for r in records
                             if r.tool == tool) / n / self.workers))
        rows.append((f"qls.validate (pool) / {self.workers} workers",
                     sum(r.validation_seconds for r in records
                         if r.tool != "lightsabre") / n / self.workers))
        return rows
