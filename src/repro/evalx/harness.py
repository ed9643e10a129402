"""Evaluation harness: run QLS tools over QUBIKOS suites and collect the
paper's metric (SWAP ratio = average SWAPs / optimal SWAPs).

Parallel evaluation
-------------------
``evaluate(..., workers=N)`` fans the (tool, instance) grid over one
persistent :class:`repro.parallel.WorkerPool` instead of the serial double
loop, through the repository's one fan-out,
:func:`repro.parallel.map_ordered`.  The contract:

* **Determinism** — every pair ships a pickled snapshot of its tool, whose
  configured seed fully determines the pair's result (all in-repo tools
  draw a fresh ``random.Random(seed)`` per ``run``), so results are
  independent of worker scheduling.  ``EvaluationRun.records`` is assembled
  in exactly the order the serial double loop produces — instance-major,
  tool-minor — and :meth:`RunRecord.result_key` compares the deterministic
  fields, so a parallel run and a serial run of the same suite yield
  identical record sequences for a fixed seed.
* **Streaming** — ``progress`` fires from the parent as each record
  *completes* (out of serial order); only the final list is reordered.
* **Pool sharing** — tools advertising ``supports_shared_pool``
  (:class:`repro.qls.lightsabre.LightSabre`) do not ship to a worker as one
  opaque pair.  They run in the parent — first, before the plain pairs are
  queued, so their timings measure trial compute rather than queue wait —
  with the suite pool temporarily bound to :attr:`tool.pool`, fanning their
  best-of-k trial chunks over the *same* workers as everyone else's pairs:
  one pool for the whole suite run, no nested pools, no over-subscription.
* **Failure isolation** — the pool heals itself first: a worker casualty
  rebuilds the executor (within ``WorkerPool``'s respawn budget) and
  re-runs the in-flight pairs there, invisibly to the harness.  Only
  when the pool is truly gone — respawn budget exhausted, fork forbidden,
  or a pair that cannot cross the process boundary — does ``map_ordered``
  re-run the pair serially in the parent; completed pairs are kept either
  way, and both re-run paths are bit-identical because pairs are pure.
  Exceptions raised by a tool itself are caught *inside* the pair and
  recorded as ``valid=False``, exactly as in the serial loop.

Pass ``pool=`` to share one :class:`~repro.parallel.WorkerPool` across
several ``evaluate`` calls (e.g. the four Figure-4 panels); the pool is
then left running for the caller to shut down.

Service-routed evaluation
-------------------------
``evaluate(..., service=)`` delegates compilation to a compilation
service when every tool can be expressed as a service request — a
:class:`~repro.pipeline.tool.PipelineTool` whose pipeline was built from
a spec string (``tool.request_spec()`` returns its ``(spec, seed)``).
The harness builds one :class:`~repro.service.api.CompileRequest` per
(tool, instance) pair — instance-major, tool-minor, pinned mapping in
``router_only`` mode — and resolves the whole grid through
``service.submit_many`` (cache-first, in-batch dedup, misses fanned over
the service's pool).  Because a :class:`~repro.service.client.
ServiceClient` mirrors that exact surface, the *same call* evaluates
against a remote server: ``evaluate(..., service=ServiceClient(url))``
produces records key-identical to the in-process serial run (validation
still replays every returned circuit in the parent, so bit-identity
keeps being *proved*, not assumed).  ``workers``/``pool`` are forwarded
to the service as batch fan-out hints.

Tools that cannot be expressed as requests (arbitrary ``QLSTool``
instances) fall back to the local cache-first path below, using the
service's own cache; with a cache-less remote client that is an error —
a remote server cannot run an opaque local tool object.  An explicitly
passed ``cache=`` always wins: the run stays local and cache-first
against that store, and service routing never engages.

Result caching
--------------
``evaluate(..., cache=ResultCache(...))`` (or the ``service=`` fallback
above, whose cache is used) makes the harness cache-first: each (tool,
instance, router_only) pair is keyed by a content-addressed fingerprint
— tool configuration, circuit gate stream, coupling graph, pinned
mapping, code epoch — and a hit reconstructs the stored result instead
of re-running the tool, so a rerun of an already-evaluated suite pays
only cache lookups (plus validation, which always replays the — cached —
circuit and therefore keeps proving bit-identity).  Hit records carry
``cache_hit=True`` and the *original* compute cost in
``runtime_seconds``; ``result_key`` is unchanged, so cached and
recomputed runs compare record-identical.  In parallel mode hits are
resolved in the parent and only misses ship to the pool; results are
stored from the parent as they land.


Timing: ``RunRecord.runtime_seconds`` measures **only** ``tool.run()``;
the :func:`repro.qls.validate.validate_transpiled` replay is timed
separately in ``validation_seconds`` so runtime-vs-quality reports are not
inflated by harness overhead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..arch.coupling import CouplingGraph
from ..arch.library import get_architecture
from ..parallel import WorkerPool, borrow_pool, map_ordered
from ..qls.base import QLSTool
from ..qls.validate import validate_transpiled
from ..qubikos.instance import QubikosInstance
from ..service.api import CompileRequest
from ..service.cache import ResultCache
from ..service.fingerprint import (
    circuit_fingerprint,
    coupling_fingerprint,
    pair_fingerprint,
    tool_fingerprint,
)
from ..service.service import ENTRY_DECODE_ERRORS, decode_entry, make_entry


@dataclass
class RunRecord:
    """One (tool, instance) measurement."""

    tool: str
    instance: str
    architecture: str
    optimal_swaps: int
    observed_swaps: int
    swap_ratio: float
    #: Wall-clock of ``tool.run()`` only (validation excluded).
    runtime_seconds: float
    valid: bool
    router_only: bool = False
    error: Optional[str] = None
    #: Trials/second reported by best-of-k tools (None for single-shot tools).
    trials_per_second: Optional[float] = None
    #: Wall-clock of the validation replay (0 when validation is skipped).
    validation_seconds: float = 0.0
    #: True when the result came from the evaluation cache; then
    #: ``runtime_seconds`` reports the *original* compute cost, not this
    #: run's (near-zero) lookup time.  Excluded from :meth:`result_key` so
    #: warm and cold runs compare record-identical.
    cache_hit: bool = False

    def result_key(self) -> Tuple:
        """The deterministic fields — everything except wall-clock.

        Two records describing the same (tool, instance) work agree on this
        key iff the tools made identical decisions; parallel and serial
        evaluations of a fixed-seed suite must produce equal key sequences.
        ``NaN`` ratios (invalid runs) are normalised so the key is
        comparable with ``==``.
        """
        ratio = None if math.isnan(self.swap_ratio) else self.swap_ratio
        return (self.tool, self.instance, self.architecture,
                self.optimal_swaps, self.observed_swaps, ratio,
                self.valid, self.router_only, self.error)

    # -- canonical serialization ----------------------------------------------

    #: Version of the ``RunRecord.to_dict`` wire schema.
    SCHEMA_VERSION = 1

    def to_dict(self) -> Dict[str, object]:
        """Versioned JSON-safe form (NaN ratios encode as ``None``)."""
        return {
            "schema": self.SCHEMA_VERSION,
            "type": "RunRecord",
            "tool": self.tool,
            "instance": self.instance,
            "architecture": self.architecture,
            "optimal_swaps": self.optimal_swaps,
            "observed_swaps": self.observed_swaps,
            "swap_ratio": (None if math.isnan(self.swap_ratio)
                           else self.swap_ratio),
            "runtime_seconds": self.runtime_seconds,
            "valid": self.valid,
            "router_only": self.router_only,
            "error": self.error,
            "trials_per_second": self.trials_per_second,
            "validation_seconds": self.validation_seconds,
            "cache_hit": self.cache_hit,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunRecord":
        version = payload.get("schema")
        if version != cls.SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunRecord schema version {version!r} "
                f"(this build reads version {cls.SCHEMA_VERSION})"
            )
        ratio = payload["swap_ratio"]
        return cls(
            tool=payload["tool"],
            instance=payload["instance"],
            architecture=payload["architecture"],
            optimal_swaps=payload["optimal_swaps"],
            observed_swaps=payload["observed_swaps"],
            swap_ratio=float("nan") if ratio is None else ratio,
            runtime_seconds=payload["runtime_seconds"],
            valid=payload["valid"],
            router_only=payload["router_only"],
            error=payload.get("error"),
            trials_per_second=payload.get("trials_per_second"),
            validation_seconds=payload.get("validation_seconds", 0.0),
            cache_hit=payload.get("cache_hit", False),
        )


@dataclass
class EvaluationRun:
    """All measurements from one harness invocation."""

    records: List[RunRecord] = field(default_factory=list)

    def for_tool(self, tool: str) -> List[RunRecord]:
        return [r for r in self.records if r.tool == tool]

    def tools(self) -> List[str]:
        return sorted({r.tool for r in self.records})

    def architectures(self) -> List[str]:
        return sorted({r.architecture for r in self.records})

    def filter(self, tool: Optional[str] = None, architecture: Optional[str] = None,
               optimal_swaps: Optional[int] = None) -> List[RunRecord]:
        out = self.records
        if tool is not None:
            out = [r for r in out if r.tool == tool]
        if architecture is not None:
            out = [r for r in out if r.architecture == architecture]
        if optimal_swaps is not None:
            out = [r for r in out if r.optimal_swaps == optimal_swaps]
        return list(out)

    def invalid_records(self) -> List[RunRecord]:
        return [r for r in self.records if not r.valid]

    def cache_hits(self) -> List[RunRecord]:
        return [r for r in self.records if r.cache_hit]


def _fetch_decoded(cache: ResultCache, key: str) -> Optional[Tuple]:
    """Guarded cache fetch: decoded ``(result, compile_seconds)`` or
    ``None`` — undecodable (stale/poisoned) entries are reported back via
    :meth:`ResultCache.note_stale` and treated as misses, so the
    recomputation that follows heals the store."""
    entry = cache.get(key)
    if entry is None:
        return None
    try:
        return decode_entry(entry)
    except ENTRY_DECODE_ERRORS:
        cache.note_stale(key)
        return None


def _measure_pair(tool: QLSTool, instance: QubikosInstance,
                  coupling: CouplingGraph, router_only: bool,
                  validate: bool,
                  cached: Optional[Tuple] = None,
                  capture: bool = False,
                  hit: Optional[bool] = None,
                  ) -> Tuple[RunRecord, Optional[Dict]]:
    """Run one (tool, instance) pair; build its record (+ cache payload).

    The single measurement routine shared by the serial loop, the pool
    workers, and the parent-side pool-sharing path, so every mode times and
    validates identically.  ``cached`` — a decoded ``(result,
    compile_seconds)`` from :func:`_fetch_decoded` — replaces the
    ``tool.run`` call with the stored result (a cache hit; validation,
    when enabled, still replays it).  ``capture`` asks for the serialized
    cache payload of a successful fresh run, which the caller stores.
    ``hit`` overrides the recorded ``cache_hit`` flag — the service-routed
    path supplies precomputed results that may themselves be fresh misses.
    """
    pinned = instance.mapping() if router_only else None
    error = None
    trials_per_second = None
    validation_seconds = 0.0
    cache_hit = hit if hit is not None else cached is not None
    start = time.perf_counter()
    try:
        if cached is not None:
            result, elapsed = cached
        else:
            result = tool.run(instance.circuit, coupling,
                              initial_mapping=pinned)
            elapsed = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - harness isolates tools
        elapsed = time.perf_counter() - start
        observed = -1
        ok = False
        error = f"{type(exc).__name__}: {exc}"
    else:
        observed = result.swap_count
        tps = result.metadata.get("trials_per_second")
        trials_per_second = float(tps) if tps is not None else None
        ok = True
        if validate:
            # Timed and fault-isolated separately from the tool: a crash in
            # the replay must neither inflate runtime_seconds nor be
            # attributed to the tool's own execution.
            validation_start = time.perf_counter()
            try:
                report = validate_transpiled(
                    instance.circuit, result.circuit, coupling,
                    result.initial_mapping,
                )
            except Exception as exc:  # noqa: BLE001
                ok = False
                error = f"validation {type(exc).__name__}: {exc}"
            else:
                ok = report.valid
                if ok and report.swap_count != observed:
                    ok = False
                    error = (
                        f"tool reported {observed} swaps; replay counted "
                        f"{report.swap_count}"
                    )
                elif not ok:
                    error = report.error
            finally:
                validation_seconds = time.perf_counter() - validation_start
    record = RunRecord(
        tool=tool.name,
        instance=instance.name,
        architecture=instance.architecture,
        optimal_swaps=instance.optimal_swaps,
        observed_swaps=observed,
        swap_ratio=(observed / instance.optimal_swaps) if ok else float("nan"),
        runtime_seconds=elapsed,
        valid=ok,
        router_only=router_only,
        error=error,
        trials_per_second=trials_per_second,
        validation_seconds=validation_seconds,
        cache_hit=cache_hit,
    )
    payload = None
    if capture and ok and not cache_hit:
        payload = make_entry(result, elapsed)
    return record, payload


@lru_cache(maxsize=None)
def _cached_architecture(name: str) -> CouplingGraph:
    """Per-process coupling cache (architectures are immutable).

    Shared by the serial loop, the parent side of a parallel run, and —
    because each pool worker has its own copy of this module — the workers,
    which therefore rebuild each architecture (and its distance matrices)
    at most once per process rather than once per shipped pair.
    """
    return get_architecture(name)


def _evaluate_pair_task(tool: QLSTool, instance: QubikosInstance,
                        router_only: bool, validate: bool,
                        capture: bool = False,
                        ) -> Tuple[RunRecord, Optional[Dict]]:
    """Pool-worker entry point for one (tool, instance) pair."""
    return _measure_pair(tool, instance,
                         _cached_architecture(instance.architecture),
                         router_only, validate, capture=capture)


class _PairKeyer:
    """Content-addressed cache keys for the (tool, instance) grid.

    Memoises the per-instance circuit fingerprint and the per-architecture
    coupling fingerprint, so a grid of I instances x T tools hashes each
    circuit once rather than T times (instances are keyed by identity —
    the caller holds the instance list alive for the whole run).
    """

    def __init__(self, tool_fps: Sequence[str], router_only: bool) -> None:
        self.tool_fps = tool_fps
        self.router_only = router_only
        self._circuit_fps: Dict[int, str] = {}
        self._coupling_fps: Dict[str, str] = {}

    def key(self, t: int, instance: QubikosInstance,
            coupling: CouplingGraph) -> str:
        circuit_fp = self._circuit_fps.get(id(instance))
        if circuit_fp is None:
            circuit_fp = circuit_fingerprint(instance.circuit)
            self._circuit_fps[id(instance)] = circuit_fp
        coupling_fp = self._coupling_fps.get(instance.architecture)
        if coupling_fp is None:
            coupling_fp = coupling_fingerprint(coupling)
            self._coupling_fps[instance.architecture] = coupling_fp
        return pair_fingerprint(
            self.tool_fps[t], circuit_fp, coupling_fp,
            instance.mapping() if self.router_only else None,
        )


def evaluate(tools: Sequence[QLSTool], instances: Iterable[QubikosInstance],
             router_only: bool = False,
             validate: bool = True,
             progress: Optional[Callable[[RunRecord], None]] = None,
             workers: Optional[int] = None,
             pool: Optional[WorkerPool] = None,
             cache: Optional[ResultCache] = None,
             service: Optional[object] = None,
             ) -> EvaluationRun:
    """Run every tool on every instance.

    ``router_only`` pins each tool to the instance's known-optimal initial
    mapping (Section IV-C mode).  Results failing validation are recorded
    with ``valid=False`` and excluded from ratio statistics downstream.

    ``workers`` > 1 evaluates the (tool, instance) grid on a process pool
    (see the module docstring for the determinism/streaming/pool-sharing
    contract); ``pool`` reuses a caller-owned
    :class:`~repro.parallel.WorkerPool` across several ``evaluate`` calls.

    ``service`` (a :class:`~repro.service.service.CompilationService` or a
    remote :class:`~repro.service.client.ServiceClient`) routes the whole
    grid through ``service.submit_many`` when every tool is expressible as
    a service request (see "Service-routed evaluation" above); otherwise
    ``cache`` (a :class:`~repro.service.cache.ResultCache`, or the
    service's own cache) makes the run cache-first: pairs already
    evaluated — in this process or, with a directory-backed cache, any
    previous one — are served from the store instead of re-run (see
    "Result caching" above).
    """
    tools = list(tools)
    instances = list(instances)
    if service is not None and cache is None:
        # An explicitly passed cache= keeps its long-standing meaning —
        # a local cache-first run against that store — so service
        # routing only engages when the caller left cache unset.
        specs = [_tool_request_spec(tool) for tool in tools]
        if all(spec is not None for spec in specs):
            return _evaluate_service(tools, specs, instances, router_only,
                                     validate, progress, service,
                                     workers, pool)
        cache = getattr(service, "cache", None)
        if cache is None:
            opaque = [tool.name for tool, spec in zip(tools, specs)
                      if spec is None]
            raise ValueError(
                f"service-routed evaluation needs spec-built tools "
                f"(PipelineTool over build_pipeline); {opaque} cannot be "
                "expressed as compile requests and the service has no "
                "local cache to fall back on"
            )
    keyer = (_PairKeyer([tool_fingerprint(tool) for tool in tools],
                        router_only)
             if cache is not None else None)
    with borrow_pool(pool, workers) as pool:
        if pool is None:
            return _evaluate_serial(tools, instances, router_only, validate,
                                    progress, cache, keyer)
        return _evaluate_parallel(tools, instances, router_only, validate,
                                  progress, pool, cache, keyer)


def _tool_request_spec(tool: QLSTool) -> Optional[Tuple[str, Optional[int]]]:
    """``(spec, seed)`` when ``tool`` is expressible as a service request
    (it advertises ``request_spec``, e.g. a spec-built ``PipelineTool``),
    else ``None``."""
    getter = getattr(tool, "request_spec", None)
    if callable(getter):
        return getter()
    return None


def _evaluate_service(tools: Sequence[QLSTool],
                      specs: Sequence[Tuple[str, Optional[int]]],
                      instances: Sequence[QubikosInstance],
                      router_only: bool, validate: bool,
                      progress: Optional[Callable[[RunRecord], None]],
                      service: object,
                      workers: Optional[int],
                      pool: Optional[WorkerPool]) -> EvaluationRun:
    """Resolve the (tool, instance) grid through a compilation service.

    One request per pair, instance-major tool-minor — the serial double
    loop's order — resolved in a single ``submit_many`` batch (so the
    service's cache-first/dedup/fan-out contract applies across the whole
    grid).  Records are assembled from the request-ordered responses;
    validation replays every returned circuit in the parent, exactly as
    the in-process paths do, so a remote run keeps proving bit-identity
    rather than trusting the wire.
    """
    requests = []
    for instance in instances:
        pinned = instance.mapping() if router_only else None
        for spec, seed in specs:
            requests.append(CompileRequest(
                circuit=instance.circuit,
                device=instance.architecture,
                spec=spec,
                seed=seed,
                initial_mapping=pinned,
                instance=instance.name,
            ))
    responses = service.submit_many(requests, workers=workers, pool=pool)
    if len(responses) != len(requests):
        raise ValueError(
            f"service returned {len(responses)} responses for "
            f"{len(requests)} requests"
        )
    run = EvaluationRun()
    index = 0
    for instance in instances:
        coupling = _cached_architecture(instance.architecture)
        for tool in tools:
            response = responses[index]
            index += 1
            record, _ = _measure_pair(
                tool, instance, coupling, router_only, validate,
                cached=(response.result, response.compile_seconds),
                hit=response.cache_hit,
            )
            run.records.append(record)
            if progress is not None:
                progress(record)
    return run


def _measure_cached(tool: QLSTool, t: int, instance: QubikosInstance,
                    router_only: bool, validate: bool,
                    cache: Optional[ResultCache],
                    keyer: Optional[_PairKeyer]) -> RunRecord:
    """Measure one pair in this process, cache-first: a hit replays the
    stored result, a fresh run is stored."""
    coupling = _cached_architecture(instance.architecture)
    key = decoded = None
    if cache is not None:
        key = keyer.key(t, instance, coupling)
        decoded = _fetch_decoded(cache, key)
    record, payload = _measure_pair(tool, instance, coupling, router_only,
                                    validate, cached=decoded,
                                    capture=cache is not None)
    if payload is not None:
        cache.put(key, payload)
    return record


def _evaluate_serial(tools: Sequence[QLSTool],
                     instances: Sequence[QubikosInstance],
                     router_only: bool, validate: bool,
                     progress: Optional[Callable[[RunRecord], None]],
                     cache: Optional[ResultCache] = None,
                     keyer: Optional[_PairKeyer] = None,
                     ) -> EvaluationRun:
    """The reference double loop: instance-major, tool-minor."""
    run = EvaluationRun()
    for instance in instances:
        for t, tool in enumerate(tools):
            record = _measure_cached(tool, t, instance, router_only,
                                     validate, cache, keyer)
            run.records.append(record)
            if progress is not None:
                progress(record)
    return run


def _evaluate_parallel(tools: Sequence[QLSTool],
                       instances: Sequence[QubikosInstance],
                       router_only: bool, validate: bool,
                       progress: Optional[Callable[[RunRecord], None]],
                       pool: WorkerPool,
                       cache: Optional[ResultCache] = None,
                       keyer: Optional[_PairKeyer] = None,
                       ) -> EvaluationRun:
    """Fan the (tool, instance) grid over ``pool``.

    Pair index ``i * len(tools) + t`` pins each record's position to the
    slot the serial double loop would fill, so the assembled record list is
    order-identical no matter how the pool schedules the work.  With a
    cache, hits are resolved in the parent and only misses are queued;
    miss payloads are stored from the parent as they land.
    """
    slots: List[Optional[RunRecord]] = [None] * (len(instances) * len(tools))

    def finish(index: int, record: RunRecord) -> None:
        slots[index] = record
        if progress is not None:
            progress(record)

    # Pool-sharing pairs run first, from the parent, with the suite pool
    # bound: their trial chunks get the workers to themselves, so the
    # recorded runtime_seconds / trials_per_second measure trial compute,
    # not time spent queueing behind a backlog of other tools' pairs —
    # keeping the runtime-quality metrics comparable with serial runs.
    plain_pairs: List[Tuple[int, int, QLSTool, QubikosInstance]] = []
    for i, instance in enumerate(instances):
        for t, tool in enumerate(tools):
            index = i * len(tools) + t
            if not getattr(tool, "supports_shared_pool", False) \
                    or getattr(tool, "trials", 1) <= 1:
                plain_pairs.append((index, t, tool, instance))
                continue
            previous = getattr(tool, "pool", None)
            tool.pool = pool
            try:
                finish(index, _measure_cached(tool, t, instance, router_only,
                                              validate, cache, keyer))
            finally:
                tool.pool = previous

    # Then fan the plain pairs out; each miss runs whole inside one worker.
    misses: List[Tuple[int, Optional[str]]] = []

    def tasks() -> Iterator[Tuple]:
        hits = []
        for index, t, tool, instance in plain_pairs:
            key = decoded = None
            if cache is not None:
                key = keyer.key(t, instance,
                                _cached_architecture(instance.architecture))
                # a poisoned entry is a miss, overwritten when it lands
                decoded = _fetch_decoded(cache, key)
            if decoded is not None:
                hits.append((index, tool, instance, decoded))
                continue
            misses.append((index, key))
            yield (tool, instance, router_only, validate, cache is not None)
        # Every miss is queued: replay and validate the hits in the parent
        # while the pool computes.
        for index, tool, instance, decoded in hits:
            record, _ = _measure_pair(
                tool, instance, _cached_architecture(instance.architecture),
                router_only, validate, cached=decoded,
            )
            finish(index, record)

    def land(task: int, measured: Tuple[RunRecord, Optional[Dict]]) -> None:
        index, key = misses[task]
        record, payload = measured
        if payload is not None:
            cache.put(key, payload)
        finish(index, record)

    # Tool exceptions are caught inside _measure_pair, so a pair the pool
    # fails failed in transport — a dead pool, or a tool that cannot cross
    # the process boundary — and map_ordered re-runs it in the parent,
    # where the serial error isolation applies.
    map_ordered(pool, _evaluate_pair_task, tasks(), on_result=land)
    return EvaluationRun([record for record in slots if record is not None])
