"""Stdlib HTTP front-end over the compilation service.

``python -m repro.service serve --port N`` (or :class:`ServiceServer`
embedded in-process) exposes the canonical-JSON wire schema of
:mod:`repro.service.api` over HTTP — no third-party dependencies, just
:mod:`http.server`:

===========================  ================================================
``POST /v1/compile``         synchronous compile: one ``CompileRequest``
                             object → one ``CompileResponse``; or a
                             ``{"requests": [...]}`` batch → a
                             ``{"responses": [...]}`` batch (in-batch
                             duplicate dedup and cache-first resolution
                             exactly as :meth:`CompilationService.submit_many`)
``POST /v1/jobs``            asynchronous batch: enqueue a job
                             (``{"requests": [...], "priority": P}``);
                             202 with the job payload (200 when cache-first
                             admission completed it inline)
``GET /v1/jobs``             every known job (no response payloads)
``GET /v1/jobs/<id>``        one job, responses included once it is done
``DELETE /v1/jobs/<id>``     cancel a queued job (running/terminal: no-op —
                             inspect ``status`` in the returned payload)
``GET /v1/cache``            ``ResultCache.info()`` (caps, tiers, stats)
``GET /v1/devices``          architecture-library names
``GET /v1/passes``           registered passes + preset specs
``GET /v1/healthz``          liveness + operator rollups: code fingerprint,
                             job counts, per-job/per-client aggregates,
                             worker-pool and journal fault counters
``GET /v1/metrics``          the armed metrics registry in Prometheus text
                             exposition format (see :mod:`repro.obs`)
===========================  ================================================

Every response goes out through :func:`repro.service.api.encode_json`:
a warm cache hit's result is spliced in as the verified text the service
stored for it, so a hit costs a fingerprint, a lookup and a byte copy,
and the bytes equal ``canonical_json`` of the response's ``to_dict()``.
Every error response carries the canonical body of
:func:`repro.service.api.error_payload` — a JSON object with ``status``
and ``error`` — so remote callers get machine-readable failures, never
HTML.  Each response (headers and body) goes out in one send.  Requests
are handled on per-connection threads (``ThreadingHTTPServer``) over
HTTP/1.1 keep-alive connections; the service's :class:`ResultCache` is
thread-safe and compilation itself is pure, so concurrent sync compiles,
the job executor, and introspection endpoints coexist safely.

Robustness contract
-------------------
* **Load shedding** — a full job queue (``JobManager(max_queued=N)``)
  turns into ``503`` with a ``Retry-After`` header; well-behaved clients
  (:class:`~repro.service.client.ServiceClient` with a ``RetryPolicy``)
  back off and resubmit.
* **Deadlines** — a ``X-Deadline-Seconds`` request header bounds a
  ``POST /v1/compile``: when the budget expires the server answers
  ``504`` (with ``Retry-After``) *between* batch items, never mid-item —
  everything compiled before the cut is already cached, so the retry
  pays only for the remainder.
* **Bounded bodies** — a ``Content-Length`` above
  :data:`MAX_BODY_BYTES` is answered with ``413`` before any of the body
  is read, and the connection is closed.
* **Bounded reads** — every socket read waits at most
  :data:`READ_TIMEOUT_SECONDS`: a client that stalls before finishing its
  headers (or an idle kept-alive connection) has its connection closed,
  one that stalls mid-body gets a ``408`` and then a close, and either
  way its handler thread is freed.
* **Bounded connections** — at most :data:`MAX_CONNECTIONS` connections
  (one handler thread each) are open at once.  A connection beyond that
  is answered ``503`` with ``Retry-After`` and ``Connection: close`` by
  the accept loop itself, without a thread.
* **Bounded client ids** — the first :data:`MAX_CLIENT_IDS` distinct
  ``X-Client-Id`` values get their own entry in the ``/v1/healthz``
  rollup and their own ``client`` metric label; every later id counts
  under ``"other"``.  First come rather than most active: a Prometheus
  counter cannot move its past counts to another label.
* **Draining shutdown** — :meth:`ServiceServer.shutdown` stops the
  accept loop, closes idle kept-alive connections (one mid-request
  finishes its response first), lets the running job finish
  (``drain=True``), and returns ``False`` (after a logged warning naming
  what is stuck) instead of silently leaking threads.
* **Fault injection** — each inbound request is an ``http.request``
  site: an armed :class:`repro.faults.FaultPlan` can drop the connection
  cold (``reset``) or stretch it (``delay``) to exercise client retries.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from .. import faults
from ..arch.library import available_architectures
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..pipeline.registry import list_passes, list_specs
from ..qls.base import QLSError
from .api import (
    REQUEST_SCHEMA_VERSION,
    ServiceError,
    decode_requests,
    encode_json,
    encode_responses,
    error_payload,
)
from .fingerprint import code_fingerprint
from .jobs import JobManager, QueueFullError
from .service import CompilationService

#: Exceptions a request body can legitimately trigger; everything in here
#: becomes a 400 with a canonical error payload, not a traceback.
BAD_REQUEST_ERRORS = (ServiceError, QLSError, KeyError, TypeError,
                      IndexError, ValueError)

#: Largest request body the server reads, in bytes (see "Bounded
#: bodies" above).  A 1000-gate circuit is ~16 KB on the wire, so a batch
#: of thousands of them fits.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Longest one socket read may wait, in seconds (see "Bounded reads"
#: above).  Every client in this package sends each request whole, so
#: only an idle kept-alive connection or a stalled or hostile peer ever
#: waits this long.
READ_TIMEOUT_SECONDS = 30.0

#: Most connections open at once (see "Bounded connections" above).
#: :class:`~repro.service.client.ServiceClient` holds one per thread.
MAX_CONNECTIONS = 64

#: Longest the accept loop spends on one refused connection, in seconds:
#: it reads and discards what the client sent until the client closes,
#: so the refusal is not lost to a reset.
REFUSAL_LINGER_SECONDS = 1.0

#: Distinct ``X-Client-Id`` values tracked one by one (see "Bounded
#: client ids" above); the rest share :data:`OTHER_CLIENTS`.
MAX_CLIENT_IDS = 64
OTHER_CLIENTS = "other"

#: Request header bounding one ``POST /v1/compile`` wall-clock budget.
DEADLINE_HEADER = "X-Deadline-Seconds"

#: Optional request header identifying the caller for per-client rollups
#: (:class:`~repro.service.client.ServiceClient` sends it when built with
#: ``client_id=``).
CLIENT_HEADER = "X-Client-Id"

#: Routes that get their own ``endpoint`` metric label; everything else
#: collapses into ``other`` so arbitrary request paths cannot blow up the
#: label cardinality.
_KNOWN_ENDPOINTS = frozenset({
    "/v1/healthz", "/v1/devices", "/v1/passes", "/v1/cache",
    "/v1/compile", "/v1/jobs", "/v1/metrics",
})

logger = logging.getLogger(__name__)


def _endpoint_label(path: str) -> str:
    if path in _KNOWN_ENDPOINTS:
        return path
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/{id}"
    return "other"


class _DeadlineExceeded(Exception):
    """Internal: a request's ``X-Deadline-Seconds`` budget expired."""


class _BodyTooLarge(Exception):
    """Internal: a ``Content-Length`` above :data:`MAX_BODY_BYTES`."""


class _ConnectionServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that tracks its open connections, refuses
    those beyond :data:`MAX_CONNECTIONS`, and can close them all."""

    def __init__(self, address, handler) -> None:
        self._connections_lock = threading.Lock()
        self._connections: Dict[socket.socket, threading.Thread] = {}  # guarded-by: _connections_lock
        self.accepted = 0  # guarded-by: _connections_lock
        self.refused = 0  # guarded-by: _connections_lock
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        # Runs on the accept loop: one connection at a time.
        with self._connections_lock:
            self.accepted += 1
            full = len(self._connections) >= MAX_CONNECTIONS
            if full:
                self.refused += 1
            else:
                thread = threading.Thread(
                    target=self.process_request_thread,
                    args=(request, client_address), daemon=True)
                self._connections[request] = thread
        if full:
            self._refuse(request)
        else:
            thread.start()

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def connection_counts(self) -> Dict[str, int]:
        with self._connections_lock:
            return {"open": len(self._connections), "accepted": self.accepted,
                    "refused": self.refused, "max": MAX_CONNECTIONS}

    @staticmethod
    def _refuse(request: socket.socket) -> None:
        """Answer a connection over the cap with a 503 and close it."""
        body = encode_json(error_payload(
            f"server at its {MAX_CONNECTIONS}-connection limit; retry "
            "later", 503)).encode("utf-8")
        head = ("HTTP/1.1 503 Service Unavailable\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Retry-After: 1\r\n"
                "Connection: close\r\n\r\n").encode("ascii")
        deadline = time.monotonic() + REFUSAL_LINGER_SECONDS
        try:
            request.settimeout(REFUSAL_LINGER_SECONDS)
            request.sendall(head + body)
            request.shutdown(socket.SHUT_WR)
            # Closing with unread request bytes would send a reset that
            # can destroy the 503 before the client reads it.
            while (remaining := deadline - time.monotonic()) > 0:
                request.settimeout(remaining)
                if not request.recv(65536):
                    break
        except OSError:
            pass
        finally:
            request.close()

    def close_connections(self, timeout: float) -> bool:
        """End every open connection once its current response is out;
        ``True`` when all their threads finished within ``timeout``."""
        with self._connections_lock:
            connections = list(self._connections.items())
        for request, _ in connections:
            try:
                # The handler's next read sees EOF: an idle one returns at
                # once, a busy one after writing its response.
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for _, thread in connections:
            thread.join(max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for _, thread in connections)


class ServiceServer:
    """The long-running serving front-end: HTTP + jobs over one service.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` /
    ``.url``).  ``serve_forever`` blocks (the CLI path); ``start`` runs
    the accept loop on a daemon thread (embedding and tests)::

        server = ServiceServer(service=CompilationService(...))
        server.start()
        client = ServiceClient(server.url)
        ...
        server.shutdown()
    """

    def __init__(self, service: Optional[CompilationService] = None,
                 jobs: Optional[JobManager] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 metrics: bool = True) -> None:
        self.service = service if service is not None else CompilationService()
        self.jobs = jobs if jobs is not None else JobManager(self.service)
        if metrics:
            # Idempotent: keeps an already-armed registry (and its
            # accumulated series) instead of clobbering it.
            obs_metrics.enable()
        self._clients_lock = threading.Lock()
        self._client_stats: Dict[str, Dict[str, int]] = {}  # guarded-by: _clients_lock
        handler = type("_BoundHandler", (_Handler,), {"app": self})
        self._httpd = _ConnectionServer((host, port), handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    def note_client(self, client: str, endpoint: str) -> None:
        """Record one request from ``client`` (the ``X-Client-Id``
        header) against ``endpoint``, in the server-side rollup (so it
        works with metrics disarmed) and the ``client`` metric label.
        Beyond :data:`MAX_CLIENT_IDS` ids, new ones count as
        :data:`OTHER_CLIENTS`."""
        with self._clients_lock:
            stats = self._client_stats.get(client)
            if stats is None:
                if len(self._client_stats) >= MAX_CLIENT_IDS:
                    client = OTHER_CLIENTS
                stats = self._client_stats.setdefault(client, {})
            stats[endpoint] = stats.get(endpoint, 0) + 1
            if obs_metrics._ACTIVE is not None:  # in step with the rollup
                obs_metrics.HTTP_REQUESTS_BY_CLIENT.inc(client=client)

    def client_stats(self) -> Dict[str, Dict[str, int]]:
        """``{client id: {endpoint: request count}}`` rollup."""
        with self._clients_lock:
            return {client: dict(stats)
                    for client, stats in self._client_stats.items()}

    def connection_counts(self) -> Dict[str, int]:
        """Connections ``open`` now, ``accepted`` and ``refused`` over
        the server's life, and the ``max`` open at once."""
        return self._httpd.connection_counts()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (CLI mode)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "ServiceServer":
        """Serve on a background daemon thread; returns ``self``."""
        if self._thread is None:
            # Lifecycle field, not request state: start()/shutdown() are
            # called by the single owning thread, never by handlers.
            self._thread = threading.Thread(target=self.serve_forever,  # repro-lint: disable=lock-discipline
                                            name="service-http", daemon=True)
            self._thread.start()
        return self

    def shutdown(self, drain: bool = True, timeout: float = 10.0) -> bool:
        """Stop the accept loop, the open connections and the job
        executor.

        Idle kept-alive connections close at once; one mid-request
        closes after its response.  ``drain=True`` (the default) waits
        for a job mid-compile to finish before returning — queued jobs
        never run, but with a journal attached they survive to the next
        start-up.  Returns ``True`` for a clean stop; ``False`` (after a
        logged warning) when the HTTP thread, a connection thread or the
        job executor had to be leaked.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        clean = self._httpd.close_connections(timeout)
        if not clean:
            logger.warning(
                "ServiceServer.shutdown: a connection was still mid-request "
                "after %.0fs; its thread leaked", timeout,
            )
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                clean = False
                logger.warning(
                    "ServiceServer.shutdown: HTTP thread still serving "
                    "after %.0fs; thread leaked", timeout,
                )
            self._thread = None
        return self.jobs.shutdown(wait=drain) and clean

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"ServiceServer({self.url}, jobs={self.jobs.counts()})"


class _Handler(BaseHTTPRequestHandler):
    """Routes ``/v1/*`` onto the bound :class:`ServiceServer` (``app``)."""

    app: ServiceServer = None  # bound by ServiceServer via subclassing
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    # A response's last segment must not wait on the client's delayed
    # ACK of the one before (~40 ms per keep-alive request).
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    def setup(self) -> None:
        # Read per connection (not bound at class creation) so the
        # constant stays the single source of the read timeout.
        self.timeout = READ_TIMEOUT_SECONDS
        super().setup()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep stdout/stderr quiet; callers watch the CLI banner

    def _send_json(self, payload: object, status: int = 200,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send_body(encode_json(payload), status, "application/json",
                        headers)

    def _send_text(self, text: str, status: int = 200) -> None:
        """Plain-text response (the Prometheus exposition endpoint)."""
        self._send_body(text, status,
                        "text/plain; version=0.0.4; charset=utf-8")

    def _send_body(self, text: str, status: int, content_type: str,
                   headers: Optional[Dict[str, str]] = None) -> None:
        """Write the whole response — status line, headers and body — in
        one send."""
        self._drain_body()
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # end_headers() would send the header block on its own (and an
        # HTTP/0.9 request gets no header block at all).
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        if self._status is None:
            # Accounted before the send, so a client that reads
            # /v1/healthz or /v1/metrics right after this response
            # finds this request counted.
            self._status = status
            self._account(status)
        self.wfile.write(head + b"\r\n" + body if head else body)

    def _drain_body(self) -> None:
        """Consume any unread request body before responding.

        Under HTTP/1.1 keep-alive an unread body stays in ``rfile`` and
        would be parsed as the *next* request on the connection — so a
        POST to an unknown route (or a DELETE sent with a body) must
        drain what it never read before the error response goes out.
        """
        if self._body_consumed:
            return
        self._body_consumed = True
        remaining = self._content_length()
        if remaining is None or not 0 <= remaining <= MAX_BODY_BYTES:
            # No length it may read: end the connection instead.
            self.close_connection = True
            return
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 65536))
            if not chunk:
                break
            remaining -= len(chunk)

    def _send_error_json(self, status: int, message: str,
                         headers: Optional[Dict[str, str]] = None) -> None:
        self._send_json(error_payload(message, status), status=status,
                        headers=headers)

    def _reset_connection(self) -> None:
        """Injected ``http.request`` reset: drop the connection with no
        response, the way a crashed/partitioned server looks from the
        client side.  Must not raise — socketserver would log it."""
        self.close_connection = True
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _content_length(self) -> Optional[int]:
        """The ``Content-Length`` header (0 when absent), or ``None``
        when it is not an integer."""
        try:
            return int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return None

    def _read_json(self) -> object:
        length = self._content_length()
        if length is None or not 0 <= length <= MAX_BODY_BYTES:
            # rfile.read(-1) would block until the client closes, and an
            # oversized body is never read; either way the rest of the
            # stream cannot be reused.
            self.close_connection = True
            self._body_consumed = True
            if length is None:
                raise ServiceError("non-numeric Content-Length: "
                                   f"{self.headers.get('Content-Length')!r}")
            if length < 0:
                raise ServiceError(f"negative Content-Length: {length}")
            raise _BodyTooLarge(f"request body of {length} bytes exceeds "
                                f"the {MAX_BODY_BYTES}-byte limit")
        self._body_consumed = True
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            self.close_connection = True  # stalled mid-body: unusable
            raise
        if not raw:
            raise ServiceError("empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") \
                from exc

    def _job_id(self, tail: str) -> int:
        try:
            return int(tail)
        except ValueError as exc:
            raise ServiceError(f"malformed job id {tail!r}") from exc

    # -- dispatch --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        self._body_consumed = False
        self._status: Optional[int] = None
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        self._method = method
        self._endpoint = endpoint = _endpoint_label(path)
        self._started = time.perf_counter()
        if faults._ACTIVE is not None:
            point = faults.poll(faults.HTTP_REQUEST)
            if point is not None:
                if point.kind == faults.RESET:
                    self._reset_connection()
                    return
                if point.kind == faults.DELAY:
                    time.sleep(point.seconds)
        try:
            with obs_trace.span("http.request", method=method,
                                endpoint=endpoint):
                handled = self._route(method, path)
        except QueueFullError as exc:
            # Load shedding (before BAD_REQUEST_ERRORS — QueueFullError
            # is a ServiceError, but a full queue is the server's state,
            # not the caller's mistake): 503 + the backoff hint.
            self._send_error_json(503, f"{exc}",
                                  headers={"Retry-After":
                                           f"{exc.retry_after:g}"})
        except _DeadlineExceeded as exc:
            # Work compiled before the cut is cached; the retry pays
            # only for the remainder.
            self._send_error_json(504, f"{exc}",
                                  headers={"Retry-After": "1"})
        except _BodyTooLarge as exc:
            self._send_error_json(413, f"{exc}")
        except TimeoutError:
            self._send_error_json(408, "request body not received within "
                                       f"{READ_TIMEOUT_SECONDS:g}s")
        except BAD_REQUEST_ERRORS as exc:
            self._send_error_json(400, f"{exc}")
        except Exception as exc:  # noqa: BLE001 - last-resort JSON 500
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
        else:
            if not handled:
                self._send_error_json(
                    404, f"no route for {method} {path} (API root: /v1)"
                )

    def _account(self, status: int) -> None:
        """Per-request accounting, once per response: latency/status
        metrics plus the per-client rollup (``X-Client-Id``)."""
        endpoint = self._endpoint
        client = self.headers.get(CLIENT_HEADER)
        if client:
            self.app.note_client(client, endpoint)
        if obs_metrics._ACTIVE is None:
            return
        obs_metrics.HTTP_REQUESTS.inc(method=self._method, endpoint=endpoint,
                                      status=str(status))
        obs_metrics.HTTP_REQUEST_SECONDS.observe(
            time.perf_counter() - self._started, method=self._method,
            endpoint=endpoint)

    def _route(self, method: str, path: str) -> bool:
        app = self.app
        if (method, path) == ("GET", "/v1/healthz"):
            journal = app.jobs.journal
            self._send_json({
                "schema": REQUEST_SCHEMA_VERSION,
                "type": "Health",
                "status": "ok",
                "code": code_fingerprint(),
                "jobs": app.jobs.counts(),
                "cache": app.service.cache is not None,
                "jobs_rollup": app.jobs.rollup(),
                "pool": (app.service.pool.stats()
                         if app.service.pool is not None else None),
                "pool_fallbacks": app.service.pool_fallbacks,
                "journal": ({
                    "path": str(journal.path),
                    "write_errors": journal.write_errors,
                    "corrupt_lines": journal.corrupt_lines,
                } if journal is not None else None),
                "clients": app.client_stats(),
                "connections": app.connection_counts(),
                "metrics": obs_metrics._ACTIVE is not None,
            })
        elif (method, path) == ("GET", "/v1/metrics"):
            registry = obs_metrics.active()
            self._send_text(registry.render_prometheus()
                            if registry is not None
                            else "# metrics disabled\n")
        elif (method, path) == ("GET", "/v1/devices"):
            self._send_json({
                "schema": REQUEST_SCHEMA_VERSION,
                "type": "Devices",
                "devices": available_architectures(),
            })
        elif (method, path) == ("GET", "/v1/passes"):
            self._send_json({
                "schema": REQUEST_SCHEMA_VERSION,
                "type": "Passes",
                "passes": [
                    {"name": info.name, "kind": info.kind,
                     "description": info.description,
                     "aliases": list(info.aliases)}
                    for info in list_passes()
                ],
                "specs": list_specs(),
            })
        elif (method, path) == ("GET", "/v1/cache"):
            cache = app.service.cache
            self._send_json({
                "schema": REQUEST_SCHEMA_VERSION,
                "type": "CacheInfo",
                "cache": cache.info() if cache is not None else None,
            })
        elif (method, path) == ("POST", "/v1/compile"):
            self._compile(self._read_json())
        elif (method, path) == ("POST", "/v1/jobs"):
            self._submit_job(self._read_json())
        elif (method, path) == ("GET", "/v1/jobs"):
            self._send_json({
                "schema": REQUEST_SCHEMA_VERSION,
                "type": "Jobs",
                "jobs": [job.to_dict(include_responses=False)
                         for job in app.jobs.jobs()],
            })
        elif method in ("GET", "DELETE") and path.startswith("/v1/jobs/"):
            job_id = self._job_id(path[len("/v1/jobs/"):])
            try:
                job = (app.jobs.cancel(job_id) if method == "DELETE"
                       else app.jobs.get(job_id))
            except KeyError:
                self._send_error_json(404, f"no such job {job_id}")
            else:
                self._send_job(job)
        else:
            return False
        return True

    # -- compile endpoints -----------------------------------------------------

    def _deadline_check(self):
        """A per-response progress hook enforcing ``X-Deadline-Seconds``
        between batch items (``None`` when the header is absent)."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            budget = float(raw)
        except ValueError as exc:
            raise ServiceError(
                f"malformed {DEADLINE_HEADER} header {raw!r}") from exc
        if budget <= 0:
            raise ServiceError(f"{DEADLINE_HEADER} must be positive")
        deadline = time.monotonic() + budget

        def check(_response) -> None:
            if time.monotonic() >= deadline:
                raise _DeadlineExceeded(
                    f"request deadline ({budget:g}s) exceeded; completed "
                    "items are cached — retry for the remainder"
                )
        return check

    def _compile(self, payload: object) -> None:
        """``POST /v1/compile``: sync single or batch compilation."""
        single = isinstance(payload, dict) \
            and payload.get("type") == "CompileRequest"
        requests = decode_requests(payload)
        workers = payload.get("workers") if isinstance(payload, dict) else None
        if workers is not None and not isinstance(workers, int):
            raise ServiceError("'workers' must be an integer")
        responses = self.app.service.submit_many(
            requests, workers=workers, progress=self._deadline_check())
        self._send_json(responses[0] if single
                        else encode_responses(responses))

    def _submit_job(self, payload: object) -> None:
        """``POST /v1/jobs``: enqueue an async batch."""
        requests = decode_requests(payload)
        priority = payload.get("priority", 0) if isinstance(payload, dict) \
            else 0
        if not isinstance(priority, int):
            raise ServiceError("'priority' must be an integer")
        job = self.app.jobs.submit(requests, priority=priority)
        # Cache-first admission completes 100%-hit jobs inline: report 200
        # for those, 202 for genuinely queued (or already running) work.
        self._send_job(job, status=200 if job.done() else 202)

    def _send_job(self, job, status: int = 200) -> None:
        """``job.to_dict()`` on the wire, its responses spliced by
        :func:`encode_json` instead of re-encoded."""
        payload = job.to_dict(include_responses=False)
        payload["responses"] = job.responses
        self._send_json(payload, status=status)


def serve(service: Optional[CompilationService] = None,
          host: str = "127.0.0.1", port: int = 0) -> ServiceServer:
    """Build and start a background :class:`ServiceServer` (convenience
    for embedding; the CLI uses :meth:`ServiceServer.serve_forever`)."""
    return ServiceServer(service=service, host=host, port=port).start()


__all__ = ["ServiceServer", "serve", "BAD_REQUEST_ERRORS", "MAX_BODY_BYTES",
           "READ_TIMEOUT_SECONDS", "MAX_CONNECTIONS", "MAX_CLIENT_IDS"]
