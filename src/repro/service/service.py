"""The compilation service: cache-first submission over the pipeline layer.

``CompilationService.submit`` resolves one :class:`CompileRequest` —
cache lookup first, pipeline compilation on a miss — and returns a
:class:`CompileResponse` with provenance and timings.  ``submit_many``
fans a batch's cache *misses* over a :class:`~repro.parallel.WorkerPool`
with the same contract the evaluation harness established:

* **Deterministic, serial-identical ordering** — the returned list equals
  ``[service.submit(r) for r in requests]`` element-for-element (same
  results, same hit/miss flags): responses are assembled in request order
  regardless of worker scheduling, and duplicate fingerprints within one
  batch compile once — the first occurrence is the miss, later ones are
  hits, exactly as the serial loop's warm cache would produce.
* **Cache-first short-circuiting** — hits never touch the pool.
* **Streaming progress** — ``progress`` fires from the parent as each
  response completes (out of request order); only the list is reordered.
* **Failure isolation** — the fan-out is :func:`repro.parallel.map_ordered`:
  a miss the pool loses is recompiled in the parent; compilation errors
  raised by the pipeline itself propagate unchanged (the parent re-run
  raises them again), serial and parallel alike.

Results crossing the process boundary travel as canonical payload dicts
(the exact bytes the cache stores), so a batch-computed response is
bit-identical to a later cache hit of the same request.

Verify once, then serve text: the first time the service serves a cache
entry it decodes it in full (:func:`decode_entry`) and records the
canonical JSON text of the decoded result next to the entry in the
cache's memory tier.  Every later hit on that entry builds its response
from the text (:meth:`CompileResponse.from_result_text`) without
decoding: the HTTP server splices the text into the wire envelope, and
in-process callers decode ``.result`` lazily on first access.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..parallel import WorkerPool, borrow_pool, map_ordered
from ..pipeline.registry import build_pipeline
from ..qls.base import QLSResult
from .api import CompileRequest, CompileResponse, make_provenance
from .cache import ResultCache
from .fingerprint import canonical_json

#: Version of the cache-entry payload produced by compilation.  Checked
#: by :func:`decode_entry` on every read.
COMPILE_ENTRY_VERSION = 1

ProgressFn = Callable[[CompileResponse], None]

#: A cache entry ready to serve: ``(result, result_text,
#: compile_seconds)``.  ``result`` is ``None`` when the entry was served
#: from its verified text; ``result_text`` is ``None`` only with caching
#: disabled.
Served = Tuple[Optional[QLSResult], Optional[str], float]


def make_entry(result: QLSResult, compile_seconds: float) -> Dict[str, object]:
    """The one cache-entry payload shape, shared by every writer."""
    return {
        "entry_version": COMPILE_ENTRY_VERSION,
        "result": result.to_dict(),
        "compile_seconds": compile_seconds,
    }


def decode_entry(entry: Dict[str, object]) -> Tuple[QLSResult, float]:
    """Reconstruct ``(result, compile_seconds)`` from a cache entry.

    Raises ``ValueError``/``KeyError``/``TypeError`` on any stale or
    corrupt payload (wrong entry version, unknown result schema, missing
    fields); callers treat that as a cache miss and recompute — a
    poisoned entry must never crash a submission, and recomputing
    overwrites it.
    """
    if not isinstance(entry, dict) \
            or entry.get("entry_version") != COMPILE_ENTRY_VERSION:
        raise ValueError(
            f"unsupported cache entry version "
            f"{entry.get('entry_version') if isinstance(entry, dict) else entry!r} "
            f"(this build reads version {COMPILE_ENTRY_VERSION})"
        )
    return QLSResult.from_dict(entry["result"]), entry["compile_seconds"]


#: What a stale/corrupt entry raises out of :func:`decode_entry`.
ENTRY_DECODE_ERRORS = (KeyError, TypeError, ValueError)


def compile_entry(request: CompileRequest) -> Dict[str, object]:
    """Compile one request into its canonical cache-entry payload.

    This is the single compilation routine shared by the serial path, the
    pool workers, and the parent-side re-run of pool casualties, so every
    mode produces byte-identical entries.
    """
    pipeline = build_pipeline(request.spec, seed=request.seed)
    coupling = request.coupling()
    start = time.perf_counter()
    result = pipeline.run(request.circuit, coupling,
                          initial_mapping=request.initial_mapping)
    compile_seconds = time.perf_counter() - start
    return make_entry(result, compile_seconds)


class CompilationService:
    """Serving facade: typed requests in, cached typed responses out.

    ``cache=None`` creates a private in-memory LRU; pass a
    :class:`ResultCache` with a ``directory`` for a persistent store
    shared across processes, or ``cache=False`` to disable caching.
    ``workers``/``pool`` configure batch fan-out exactly as in
    :func:`repro.evalx.harness.evaluate`.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 workers: Optional[int] = None,
                 pool: Optional[WorkerPool] = None) -> None:
        if cache is False:
            self.cache: Optional[ResultCache] = None
        else:
            self.cache = cache if cache is not None else ResultCache()
        self.workers = workers
        self.pool = pool
        #: Batch misses the pool lost and the parent recompiled —
        #: surfaced in ``/v1/healthz``.
        self.pool_fallbacks = 0

    # -- single submission -----------------------------------------------------

    def submit(self, request: CompileRequest) -> CompileResponse:
        """Resolve one request: cache hit, or compile and store."""
        started = time.perf_counter()
        key = request.fingerprint()
        with obs_trace.span("service.submit", spec=request.spec) as sp:
            served = self._lookup(key)
            hit = served is not None
            if not hit:
                with obs_trace.span("service.compile", spec=request.spec):
                    entry = compile_entry(request)
                if self.cache is not None:
                    self.cache.put(key, entry)
                served = self._verify(key, entry)
            sp.annotate(cache_hit=hit)
            self._count(hit, served[2])
        return self._response(request, key, served, hit, started)

    @staticmethod
    def _count(hit: bool, compile_seconds: float) -> None:
        if obs_metrics._ACTIVE is None:
            return
        obs_metrics.SERVICE_REQUESTS.inc(result="hit" if hit else "miss")
        if not hit:
            obs_metrics.SERVICE_COMPILE_SECONDS.observe(compile_seconds)

    def _lookup(self, key: str) -> Optional[Served]:
        """The servable cache entry for ``key``, or ``None`` (miss *or* a
        stale/corrupt entry, which recomputation then overwrites)."""
        if self.cache is None:
            return None
        entry, text = self.cache.lookup(key)
        if entry is None:
            return None
        try:
            return self._verify(key, entry, text)
        except ENTRY_DECODE_ERRORS:
            self.cache.note_stale(key)
            return None

    def _verify(self, key: str, entry: Dict[str, object],
                text: Optional[str] = None) -> Served:
        """Serve ``entry``: from its verified ``text`` when the cache
        vouched for this entry object, else by a full :func:`decode_entry`
        whose canonical result text is then recorded in the cache.

        Raises :data:`ENTRY_DECODE_ERRORS` for an entry that does not
        decode."""
        if text is not None:
            return None, text, entry["compile_seconds"]
        result, compile_seconds = decode_entry(entry)
        if self.cache is None:
            return result, None, compile_seconds
        text = canonical_json(result.to_dict())
        self.cache.note_verified(key, entry, text)
        return result, text, compile_seconds

    def servable(self, key: str) -> bool:
        """True when ``key`` would be served as a hit: its entry was
        verified before, or it decodes now (which verifies a memory-tier
        entry).  A ``cache.peek``: no hit/miss statistics, no LRU
        promotion."""
        entry = self.cache.peek(key) if self.cache is not None else None
        if entry is None:
            return False
        try:
            self._verify(key, entry, self.cache.verified_text(key, entry))
        except ENTRY_DECODE_ERRORS:
            return False
        return True

    def _response(self, request: CompileRequest, key: str, served: Served,
                  hit: bool, started: float) -> CompileResponse:
        result, text, compile_seconds = served
        fields = dict(
            request_fingerprint=key,
            provenance=make_provenance(request, hit),
            cache_hit=hit,
            compile_seconds=compile_seconds,
            service_seconds=time.perf_counter() - started,
        )
        if text is None:
            return CompileResponse(result=result, **fields)
        return CompileResponse.from_result_text(text, result=result, **fields)

    # -- batched submission ----------------------------------------------------

    def submit_many(self, requests: Iterable[CompileRequest],
                    progress: Optional[ProgressFn] = None,
                    workers: Optional[int] = None,
                    pool: Optional[WorkerPool] = None,
                    ) -> List[CompileResponse]:
        """Resolve a batch; misses fan out over a worker pool.

        See the module docstring for the ordering/caching/failure
        contract.  ``workers``/``pool`` override the service defaults for
        this batch; with neither, misses compile serially in-process.
        """
        requests = list(requests)
        pool = pool if pool is not None else self.pool
        workers = workers if workers is not None else self.workers
        with obs_trace.span("service.submit_many", requests=len(requests)), \
                borrow_pool(pool, workers) as pool:
            if pool is None:
                return self._submit_serial(requests, progress)
            return self._submit_parallel(requests, progress, pool)

    def map(self, requests: Iterable[CompileRequest],
            progress: Optional[ProgressFn] = None,
            workers: Optional[int] = None,
            pool: Optional[WorkerPool] = None) -> Iterator[CompileResponse]:
        """Iterate responses in request order (a thin ``submit_many`` view)."""
        return iter(self.submit_many(requests, progress=progress,
                                     workers=workers, pool=pool))

    def _submit_serial(self, requests: List[CompileRequest],
                       progress: Optional[ProgressFn]
                       ) -> List[CompileResponse]:
        responses = []
        for request in requests:
            response = self.submit(request)
            responses.append(response)
            if progress is not None:
                progress(response)
        return responses

    def _submit_parallel(self, requests: List[CompileRequest],
                         progress: Optional[ProgressFn],
                         pool: WorkerPool) -> List[CompileResponse]:
        batch_started = time.perf_counter()
        keys = [request.fingerprint() for request in requests]
        slots: List[Optional[CompileResponse]] = [None] * len(requests)

        def finish(index: int, served: Served, hit: bool,
                   started: float) -> None:
            slots[index] = self._response(requests[index], keys[index],
                                          served, hit, started)
            self._count(hit, served[2])
            if progress is not None:
                progress(slots[index])

        # Cache-first pass; the first occurrence of each new fingerprint
        # becomes that key's single compilation, later duplicates resolve
        # as hits once it lands (matching the serial loop's warm cache).
        # With caching disabled the serial loop recomputes duplicates too,
        # so dedup keys become per-index and every request compiles.
        hits: List[Tuple[int, Served]] = []
        compile_indices: Dict[str, int] = {}
        followers: Dict[str, List[int]] = {}
        for index, key in enumerate(keys):
            if self.cache is None:
                compile_indices[f"{index}:{key}"] = index
                continue
            served = self._lookup(key)  # stale/corrupt entries = misses
            if served is not None:
                hits.append((index, served))
            elif key in compile_indices:
                followers.setdefault(key, []).append(index)
            else:
                compile_indices[key] = index

        misses = list(compile_indices.items())

        def tasks() -> Iterator[Tuple[CompileRequest]]:
            for _, index in misses:
                yield (requests[index],)
            # Every miss is queued: build the hit responses in the parent
            # while the pool compiles.
            for index, served in hits:
                finish(index, served, hit=True, started=time.perf_counter())

        def land(task: int, entry: Dict[str, object]) -> None:
            # Misses (and the duplicate followers waiting on them) report
            # their batch latency — queueing plus compute — as
            # service_seconds; pre-resolved hits above reported only their
            # serving cost.  Followers are served from the text the miss
            # verified, so each decodes its own result object on access,
            # matching the serial loop (no sharing between responses).
            key, index = misses[task]
            if self.cache is not None:
                self.cache.put(key, entry)
            served = self._verify(key, entry)
            finish(index, served, hit=False, started=batch_started)
            for follower in followers.get(key, ()):  # duplicates are hits
                finish(follower, (None,) + served[1:], hit=True,
                       started=batch_started)

        _, fallbacks = map_ordered(pool, compile_entry, tasks(),
                                   on_result=land)
        self.pool_fallbacks += fallbacks
        return [response for response in slots if response is not None]

    def __repr__(self) -> str:
        cache = repr(self.cache) if self.cache is not None else "disabled"
        return f"CompilationService(cache={cache}, workers={self.workers})"
