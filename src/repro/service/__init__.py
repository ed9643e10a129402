"""Compilation-service API: typed requests, content-addressed caching,
batched submission, and the async job-oriented serving layer.

The serving facade over :mod:`repro.pipeline` — how work enters the
system from outside a Python process::

    from repro.service import CompileRequest, CompilationService, ResultCache

    service = CompilationService(cache=ResultCache(directory=".qls-cache"),
                                 workers=4)
    request = CompileRequest.from_instance(inst, spec="lightsabre:trials=8",
                                           seed=7)
    response = service.submit(request)        # miss: compiles + caches
    again = service.submit(request)           # hit: bit-identical result
    assert again.cache_hit
    assert again.result.circuit == response.result.circuit

    responses = service.submit_many(requests) # batch over a WorkerPool

Remote serving (``python -m repro.service serve --port N``) exposes the
same canonical-JSON schema over stdlib HTTP; :class:`ServiceClient`
mirrors the ``submit``/``submit_many``/``map`` surface so callers swap
local for remote without changes, and :class:`JobManager` adds the
asynchronous ``queued → running → done`` batch lifecycle behind
``POST /v1/jobs``::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8000")
    response = client.submit(request)               # sync, over the wire
    job = client.submit_job(requests, priority=5)   # async batch
    done = client.wait_job(job["id"])
    responses = client.job_responses(done)

Cache keys are content-addressed: SHA-256 over (circuit gate stream,
coupling graph, normalized spec, seed, pinned mapping, code epoch) — see
:mod:`repro.service.fingerprint` for the exact keying and invalidation
rules.  Hits reconstruct results from canonical JSON payloads and are
bit-identical to recomputation (enforced against the pinned goldens in
``tests/qls/test_perf_equivalence.py``).  The ``python -m repro.service``
CLI does serving, batch compile-from-JSONL, and cache inspection/clear.
"""

from .api import (
    REQUEST_SCHEMA_VERSION,
    CompileRequest,
    CompileResponse,
    ServiceError,
    decode_requests,
    decode_responses,
    encode_json,
    encode_requests,
    encode_responses,
    error_payload,
    make_provenance,
)
from .cache import CacheStats, ResultCache
from .client import (
    JobPollTimeout,
    RemoteServiceError,
    RetryPolicy,
    ServiceClient,
)
from .fingerprint import (
    CACHE_EPOCH,
    canonical_json,
    circuit_fingerprint,
    code_fingerprint,
    coupling_fingerprint,
    normalize_spec,
    request_fingerprint,
)
from .jobs import (
    JOB_SCHEMA_VERSION,
    Job,
    JobManager,
    JobStatus,
    QueueFullError,
)
from .journal import JOURNAL_SCHEMA_VERSION, JobJournal
from .server import ServiceServer, serve
from .service import (
    CompilationService,
    compile_entry,
    decode_entry,
    make_entry,
)

__all__ = [
    "REQUEST_SCHEMA_VERSION",
    "JOB_SCHEMA_VERSION",
    "JOURNAL_SCHEMA_VERSION",
    "CACHE_EPOCH",
    "CompileRequest",
    "CompileResponse",
    "CompilationService",
    "CacheStats",
    "Job",
    "JobJournal",
    "JobManager",
    "JobPollTimeout",
    "JobStatus",
    "QueueFullError",
    "RemoteServiceError",
    "ResultCache",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "canonical_json",
    "circuit_fingerprint",
    "code_fingerprint",
    "coupling_fingerprint",
    "compile_entry",
    "decode_entry",
    "decode_requests",
    "decode_responses",
    "encode_json",
    "encode_requests",
    "encode_responses",
    "error_payload",
    "make_entry",
    "make_provenance",
    "normalize_spec",
    "request_fingerprint",
    "serve",
]
