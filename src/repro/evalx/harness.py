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

Cached and service-routed evaluation
------------------------------------
``evaluate(..., service=)`` sends the grid to a compilation service (an
in-process :class:`~repro.service.service.CompilationService` or a
remote :class:`~repro.service.client.ServiceClient`) as one
``submit_many`` batch with one request per pair, instance-major,
tool-minor, pinned in ``router_only`` mode.
``cache=C`` means an in-process ``CompilationService(cache=C)`` and wins
over ``service=``.  Pairs are keyed by the service's one cache key, so a
cache directory is shared with ``serve --cache-dir``.  Every tool must
be spec-built (``tool.request_spec()`` gives its ``(spec, seed)``); any
other tool raises ``ValueError``.  A batch that raises is resubmitted
pair by pair, so a failing compile is recorded ``valid=False`` like a
failing ``tool.run``; only an unreachable remote server aborts the run.
Hits carry ``cache_hit=True`` and the original compile time in
``runtime_seconds``, and validation replays every returned circuit, so
cached, remote and plain runs stay ``result_key``-identical.

Timing: ``RunRecord.runtime_seconds`` measures **only** ``tool.run()``;
the :func:`repro.qls.validate.validate_transpiled` replay is timed
separately in ``validation_seconds`` so runtime-vs-quality reports are not
inflated by harness overhead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..arch.coupling import CouplingGraph
from ..arch.library import get_architecture
from ..parallel import WorkerPool, borrow_pool, map_ordered
from ..qls.base import QLSTool
from ..qls.validate import validate_transpiled
from ..qubikos.instance import QubikosInstance
from ..service.api import CompileRequest, CompileResponse
from ..service.cache import ResultCache
from ..service.client import RemoteServiceError
from ..service.service import CompilationService


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


def _unreachable(exc: BaseException) -> bool:
    """True for a remote service that stayed unreachable through its
    retries: no pair can be measured, so the run aborts."""
    return isinstance(exc, RemoteServiceError) and exc.status is None


def _measure_pair(tool: QLSTool, instance: QubikosInstance,
                  coupling: CouplingGraph, router_only: bool,
                  validate: bool,
                  submit: Optional[Callable[[], CompileResponse]] = None,
                  ) -> RunRecord:
    """Run one (tool, instance) pair and build its record.

    The single measurement routine shared by the serial loop, the pool
    workers, the parent-side pool-sharing path and the service path, so
    every mode times and validates identically.  ``submit`` replaces the
    ``tool.run`` call with a compilation service's response for the pair;
    what it raises is recorded like a failing ``tool.run``, except an
    unreachable remote server, which propagates.
    """
    pinned = instance.mapping() if router_only else None
    error = None
    trials_per_second = None
    validation_seconds = 0.0
    cache_hit = False
    start = time.perf_counter()
    try:
        if submit is not None:
            response = submit()
            result = response.result
            elapsed = response.compile_seconds
            cache_hit = response.cache_hit
        else:
            result = tool.run(instance.circuit, coupling,
                              initial_mapping=pinned)
            elapsed = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - harness isolates tools
        if _unreachable(exc):
            raise
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
    return RunRecord(
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
                        router_only: bool, validate: bool) -> RunRecord:
    """Pool-worker entry point for one (tool, instance) pair."""
    return _measure_pair(tool, instance,
                         _cached_architecture(instance.architecture),
                         router_only, validate)


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
    remote :class:`~repro.service.client.ServiceClient`) resolves the grid
    through ``service.submit_many``; ``cache`` (a
    :class:`~repro.service.cache.ResultCache`) does the same through an
    in-process ``CompilationService(cache=cache)``, so pairs already
    compiled — in this process or, with a directory-backed cache, any
    previous one — are served from the store.  Both need spec-built tools
    (see "Cached and service-routed evaluation" above).
    """
    tools = list(tools)
    instances = list(instances)
    if cache is not None:
        service = CompilationService(cache=cache)
    if service is not None:
        return _evaluate_service(tools, instances, router_only, validate,
                                 progress, service, workers, pool)
    with borrow_pool(pool, workers) as pool:
        if pool is None:
            return _evaluate_serial(tools, instances, router_only, validate,
                                    progress)
        return _evaluate_parallel(tools, instances, router_only, validate,
                                  progress, pool)


def _tool_request_spec(tool: QLSTool) -> Optional[Tuple[str, Optional[int]]]:
    """``(spec, seed)`` when ``tool`` is expressible as a service request
    (it advertises ``request_spec``, e.g. a spec-built ``PipelineTool``),
    else ``None``."""
    getter = getattr(tool, "request_spec", None)
    if callable(getter):
        return getter()
    return None


def _evaluate_service(tools: Sequence[QLSTool],
                      instances: Sequence[QubikosInstance],
                      router_only: bool, validate: bool,
                      progress: Optional[Callable[[RunRecord], None]],
                      service: object,
                      workers: Optional[int],
                      pool: Optional[WorkerPool]) -> EvaluationRun:
    """Resolve the (tool, instance) grid through a compilation service.

    One request per pair, in the serial double loop's order, resolved in
    a single ``submit_many`` batch so the service's cache-first/dedup/
    fan-out contract applies across the whole grid.  A batch that raises
    is resolved again pair by pair with ``service.submit``, so one failing
    compile costs only its own record.  Validation replays every returned
    circuit in the parent, exactly as the in-process paths do.
    """
    specs = [_tool_request_spec(tool) for tool in tools]
    opaque = [tool.name for tool, spec in zip(tools, specs) if spec is None]
    if opaque:
        raise ValueError(
            f"cached and service-routed evaluation needs spec-built tools "
            f"(PipelineTool over build_pipeline); {opaque} cannot be "
            "expressed as compile requests"
        )
    pairs = [(instance, tool) for instance in instances for tool in tools]
    requests = [CompileRequest.from_instance(instance, spec=spec, seed=seed,
                                             router_only=router_only)
                for instance in instances for spec, seed in specs]
    try:
        responses = service.submit_many(requests, workers=workers, pool=pool)
    except Exception as exc:  # noqa: BLE001 - resolved pair by pair below
        if _unreachable(exc):
            raise
        responses = None
    if responses is not None and len(responses) != len(requests):
        raise ValueError(
            f"service returned {len(responses)} responses for "
            f"{len(requests)} requests"
        )

    def respond(index: int) -> CompileResponse:
        if responses is None:
            return service.submit(requests[index])
        return responses[index]

    run = EvaluationRun()
    for index, (instance, tool) in enumerate(pairs):
        record = _measure_pair(
            tool, instance, _cached_architecture(instance.architecture),
            router_only, validate, submit=partial(respond, index),
        )
        run.records.append(record)
        if progress is not None:
            progress(record)
    return run


def _evaluate_serial(tools: Sequence[QLSTool],
                     instances: Sequence[QubikosInstance],
                     router_only: bool, validate: bool,
                     progress: Optional[Callable[[RunRecord], None]],
                     ) -> EvaluationRun:
    """The reference double loop: instance-major, tool-minor."""
    run = EvaluationRun()
    for instance in instances:
        for tool in tools:
            record = _evaluate_pair_task(tool, instance, router_only,
                                         validate)
            run.records.append(record)
            if progress is not None:
                progress(record)
    return run


def _evaluate_parallel(tools: Sequence[QLSTool],
                       instances: Sequence[QubikosInstance],
                       router_only: bool, validate: bool,
                       progress: Optional[Callable[[RunRecord], None]],
                       pool: WorkerPool,
                       ) -> EvaluationRun:
    """Fan the (tool, instance) grid over ``pool``.

    Pair index ``i * len(tools) + t`` pins each record's position to the
    slot the serial double loop would fill, so the assembled record list is
    order-identical no matter how the pool schedules the work.
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
    plain_pairs: List[Tuple[int, QLSTool, QubikosInstance]] = []
    for i, instance in enumerate(instances):
        for t, tool in enumerate(tools):
            index = i * len(tools) + t
            if not getattr(tool, "supports_shared_pool", False) \
                    or getattr(tool, "trials", 1) <= 1:
                plain_pairs.append((index, tool, instance))
                continue
            previous = getattr(tool, "pool", None)
            tool.pool = pool
            try:
                finish(index, _evaluate_pair_task(tool, instance,
                                                  router_only, validate))
            finally:
                tool.pool = previous

    def land(task: int, record: RunRecord) -> None:
        finish(plain_pairs[task][0], record)

    # Then fan the plain pairs out; each runs whole inside one worker.
    # Tool exceptions are caught inside _measure_pair, so a pair the pool
    # fails failed in transport — a dead pool, or a tool that cannot cross
    # the process boundary — and map_ordered re-runs it in the parent,
    # where the serial error isolation applies.
    map_ordered(pool, _evaluate_pair_task,
                ((tool, instance, router_only, validate)
                 for _, tool, instance in plain_pairs),
                on_result=land)
    return EvaluationRun([record for record in slots if record is not None])
