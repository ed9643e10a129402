"""HTTP client speaking the compilation-service wire schema.

:class:`ServiceClient` mirrors the :class:`CompilationService` surface —
``submit`` / ``submit_many`` / ``map`` with the same signatures and the
same response objects — so harness and application code swaps a local
service for a remote one without changes::

    client = ServiceClient("http://127.0.0.1:8000")
    response = client.submit(request)             # POST /v1/compile
    responses = client.submit_many(requests)      # one batched round trip
    run = evaluate(tools, instances, service=client)  # remote evaluation

Semantics match the local service: ``submit_many`` is one round trip
whose in-batch duplicate/caching behaviour is the server's
``submit_many`` contract (serial-identical ordering, duplicates compile
once), and responses deserialize bit-identically to what a local call
would return (the canonical-JSON schemas round-trip exactly).
``workers`` is forwarded to the server as a fan-out hint; ``pool`` is
accepted for signature compatibility but meaningless across processes
and therefore ignored.

The async side wraps the job endpoints: ``submit_job`` → ``wait_job`` →
``job_responses`` is the remote ``queued → running → done`` flow.  All
failures surface as :class:`RemoteServiceError` carrying the HTTP status
and the server's canonical error message.

Retries
-------
A :class:`RetryPolicy` makes the client survive transient failures —
connection resets, server restarts, 503 load shedding — without ever
duplicating side effects:

* Only **idempotent** calls retry: every ``GET``, plus ``POST
  /v1/compile`` — safe to resubmit because requests are addressed by
  content fingerprint and the server cache dedups (a retried compile
  that already landed is a cache hit, not a second compile).  ``POST
  /v1/jobs`` and ``DELETE`` never retry: resubmitting a job enqueues a
  second one.
* Backoff is exponential with **seeded deterministic jitter** — two
  clients with different seeds desynchronize their retries, and a test
  with a pinned seed replays the exact same schedule.
* A server ``Retry-After`` header (the 503 load-shedding contract)
  overrides the computed delay for that attempt.

Connections
-----------
Each thread keeps one HTTP/1.1 connection to the server
(:mod:`http.client`) and reuses it across calls, so a warm hit costs one
round trip on an open socket rather than a TCP handshake plus a fresh
server handler thread.  Before reuse the socket is polled: one the server
has closed (idle timeout, restart) is replaced before anything is sent.
A drop *during* a call is a transport failure like any other and goes
through the retry rules above, so a non-idempotent call is never sent
twice.  Connections never cross a fork and are not pickled.

Stdlib only (:mod:`http.client`) — a client import must never pull in
more than the schema modules.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional
from urllib.parse import urlsplit

from .. import faults
from .api import (
    CompileRequest,
    CompileResponse,
    ServiceError,
    decode_responses,
    encode_requests,
)
from .fingerprint import canonical_json

ProgressFn = Callable[[CompileResponse], None]

#: HTTP statuses that signal "try again later", not "you are wrong".
RETRYABLE_STATUSES = frozenset({502, 503, 504})


@dataclass(frozen=True)
class RetryPolicy:
    """Retry schedule for idempotent :class:`ServiceClient` calls.

    ``max_attempts`` counts the first try: 4 means up to 3 retries.  The
    delay before retry *n* (0-based) is ``base_seconds * multiplier**n``
    capped at ``max_seconds``, plus a deterministic jitter drawn in
    ``[0, jitter * delay)`` from a :class:`random.Random` seeded with
    ``seed`` — same seed, same schedule, bit-reproducible chaos tests.
    """

    max_attempts: int = 4
    base_seconds: float = 0.05
    multiplier: float = 2.0
    max_seconds: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts counts the first try; must be >= 1")
        if self.base_seconds < 0 or self.max_seconds < 0:
            raise ValueError("backoff seconds must be non-negative")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter is a fraction of the delay (0..1)")

    def rng(self) -> random.Random:
        """A fresh jitter stream (one per client, not per call)."""
        return random.Random(self.seed)

    def delay(self, retry: int, rng: random.Random) -> float:
        """Seconds to sleep before 0-based retry number ``retry``."""
        base = min(self.base_seconds * self.multiplier ** retry,
                   self.max_seconds)
        return base + self.jitter * base * rng.random()


class RemoteServiceError(ServiceError):
    """A service call failed remotely (or the server is unreachable).

    ``status`` is the HTTP status code, or ``None`` for transport-level
    failures (connection refused, timeout).  ``retry_after`` carries the
    server's ``Retry-After`` hint when the response had one.
    """

    def __init__(self, message: str, status: Optional[int] = None,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class JobPollTimeout(RemoteServiceError, TimeoutError):
    """``wait_job`` gave up: the job was still non-terminal when the
    timeout expired.  Also a :class:`TimeoutError`, so generic timeout
    handling catches it."""


class ServiceClient:
    """Wire-compatible remote stand-in for :class:`CompilationService`."""

    #: No local cache: present (as ``None``) so code probing the
    #: ``service.cache`` attribute — the evaluation harness's legacy
    #: fallback — degrades predictably instead of raising AttributeError.
    cache = None

    def __init__(self, url: str, timeout: float = 300.0,
                 retry: Optional[RetryPolicy] = None,
                 client_id: Optional[str] = None) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retry = retry
        #: Sent as ``X-Client-Id`` on every request when set; the server
        #: folds per-client request counts into ``/v1/healthz``.
        self.client_id = client_id
        #: Retries performed over this client's lifetime (observability:
        #: chaos tests assert the recovery actually exercised a retry).
        self.retry_count = 0
        self._rng = retry.rng() if retry is not None else None
        parts = urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http(s) URL: {url!r}")
        self._connection_class = (_HTTPSConnection if parts.scheme == "https"
                                  else _HTTPConnection)
        self._address = (parts.hostname, parts.port)
        self._prefix = parts.path
        self._local = threading.local()

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["_local"]  # sockets stay with the process that opened them
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._local = threading.local()

    # -- transport -------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's kept-alive connection, replaced first when it was
        opened by another process (a fork) or the server has closed it."""
        local = self._local
        connection = getattr(local, "connection", None)
        if connection is not None and local.pid != os.getpid():
            connection = None  # the parent's socket: never touch it
        elif connection is not None and _closed_by_peer(connection):
            connection.close()
            connection = None
        if connection is None:
            connection = self._connection_class(*self._address,
                                                timeout=self.timeout)
            local.connection, local.pid = connection, os.getpid()
        return connection

    @staticmethod
    def _idempotent(method: str, path: str) -> bool:
        """True when a retry cannot duplicate a side effect: every GET,
        plus the fingerprint-keyed (cache-dedup'd) compile POST."""
        return method == "GET" or (method, path) == ("POST", "/v1/compile")

    def _call(self, method: str, path: str,
              payload: Optional[object] = None) -> object:
        data = None
        headers = {"Accept": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        if payload is not None:
            data = canonical_json(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        retries = self.retry.max_attempts - 1 \
            if self.retry is not None and self._idempotent(method, path) \
            else 0
        retry = 0
        while True:
            try:
                return self._call_once(method, path, data, headers)
            except RemoteServiceError as exc:
                transient = exc.status is None \
                    or exc.status in RETRYABLE_STATUSES
                if not transient or retry >= retries:
                    if self.retry is not None and retry:
                        exc.args = (f"{exc.args[0]} "
                                    f"(after {retry + 1} attempts)",)
                    raise
                delay = self.retry.delay(retry, self._rng)
                if exc.retry_after is not None:
                    delay = exc.retry_after  # the server knows best
                retry += 1
                self.retry_count += 1
                time.sleep(delay)

    def _call_once(self, method: str, path: str, data: Optional[bytes],
                   headers: Dict[str, str]) -> object:
        """One attempt; every failure becomes a RemoteServiceError (with
        ``status=None`` for transport-level ones)."""
        if faults._ACTIVE is not None:
            point = faults.poll(faults.CLIENT_REQUEST)
            if point is not None:
                if point.kind == faults.DELAY:
                    time.sleep(point.seconds)
                elif point.kind == faults.RESET:
                    raise RemoteServiceError(
                        f"cannot reach service at {self.url}: "
                        "connection reset [injected fault]"
                    )
        connection = self._connection()
        try:
            connection.request(method, self._prefix + path, body=data,
                               headers=headers)
            response = connection.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            # Refused, timed out, or dropped mid-call (RemoteDisconnected,
            # ConnectionResetError): the socket cannot be reused.
            connection.close()
            raise RemoteServiceError(
                f"cannot reach service at {self.url}: {exc}"
            ) from exc
        if not 200 <= response.status < 300:
            raise RemoteServiceError(
                self._error_message(response.status, response.reason, body),
                status=response.status,
                retry_after=self._retry_after(response))
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RemoteServiceError(
                f"service at {self.url} returned non-JSON body"
            ) from exc

    @staticmethod
    def _retry_after(response: http.client.HTTPResponse) -> Optional[float]:
        """The server's ``Retry-After`` seconds, when parseable."""
        value = response.getheader("Retry-After")
        try:
            return float(value) if value is not None else None
        except ValueError:
            return None

    @staticmethod
    def _error_message(status: int, reason: str, body: bytes) -> str:
        """The server's canonical ``error`` field, or a plain fallback."""
        try:
            return str(json.loads(body.decode("utf-8"))["error"])
        except Exception:  # noqa: BLE001 - any malformed error body
            return f"HTTP {status}: {reason}"

    # -- synchronous compilation (CompilationService mirror) -------------------

    def submit(self, request: CompileRequest) -> CompileResponse:
        """Compile one request synchronously (``POST /v1/compile``)."""
        payload = self._call("POST", "/v1/compile", request.to_dict())
        return CompileResponse.from_dict(payload)

    def submit_many(self, requests: Iterable[CompileRequest],
                    progress: Optional[ProgressFn] = None,
                    workers: Optional[int] = None,
                    pool: Optional[object] = None,  # noqa: ARG002 - API compat
                    ) -> List[CompileResponse]:
        """Compile a batch in one round trip, responses in request order.

        ``progress`` fires per response during decoding (the whole batch
        has landed by then — streaming granularity is a server-side
        property).  ``workers`` is forwarded as the server-side fan-out
        hint; ``pool`` is ignored (pools do not cross processes).
        """
        requests = list(requests)
        if not requests:
            return []
        extra: Dict[str, object] = {}
        if workers is not None:
            extra["workers"] = workers
        payload = self._call("POST", "/v1/compile",
                             encode_requests(requests, **extra))
        responses = decode_responses(payload)
        if progress is not None:
            for response in responses:
                progress(response)
        return responses

    def map(self, requests: Iterable[CompileRequest],
            progress: Optional[ProgressFn] = None,
            workers: Optional[int] = None,
            pool: Optional[object] = None) -> Iterator[CompileResponse]:
        """Iterate responses in request order (``submit_many`` view)."""
        return iter(self.submit_many(requests, progress=progress,
                                     workers=workers, pool=pool))

    # -- asynchronous jobs -----------------------------------------------------

    def submit_job(self, requests: Iterable[CompileRequest],
                   priority: int = 0) -> Dict[str, object]:
        """Enqueue an async batch (``POST /v1/jobs``); returns the job
        payload (already terminal when cache-first admission applied)."""
        return self._call(
            "POST", "/v1/jobs",
            encode_requests(list(requests), priority=priority),
        )

    def job(self, job_id: int) -> Dict[str, object]:
        """One job's current state (``GET /v1/jobs/<id>``)."""
        return self._call("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, object]]:
        """Every known job, without response payloads."""
        return self._call("GET", "/v1/jobs")["jobs"]

    def cancel_job(self, job_id: int) -> Dict[str, object]:
        """Cancel a queued job (``DELETE``); running/terminal jobs are a
        no-op — inspect ``status`` in the returned payload."""
        return self._call("DELETE", f"/v1/jobs/{job_id}")

    def wait_job(self, job_id: int, timeout: Optional[float] = 300.0,
                 poll_seconds: float = 0.05,
                 max_poll_seconds: float = 1.0) -> Dict[str, object]:
        """Poll until the job reaches a terminal state; returns it.

        Polling backs off exponentially from ``poll_seconds`` up to
        ``max_poll_seconds`` so long jobs cost O(log) polls early and a
        bounded request rate after.  On expiry raises
        :class:`JobPollTimeout` (a ``TimeoutError``) naming the poll
        count, so a stuck job reads differently from a slow network.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = poll_seconds
        attempts = 0
        while True:
            payload = self.job(job_id)
            attempts += 1
            if payload["status"] in ("done", "failed", "cancelled"):
                return payload
            if deadline is not None and time.monotonic() >= deadline:
                raise JobPollTimeout(
                    f"job {job_id} still {payload['status']} after "
                    f"{timeout}s ({attempts} polls, backoff "
                    f"{poll_seconds:g}s..{max_poll_seconds:g}s)"
                )
            time.sleep(delay)
            delay = min(delay * 2, max_poll_seconds)

    @staticmethod
    def job_responses(job: Dict[str, object]) -> List[CompileResponse]:
        """Decode a terminal job payload's responses.

        Raises :class:`ServiceError` when the job failed (surfacing the
        recorded error) or has no responses yet.
        """
        if job.get("error"):
            raise ServiceError(
                f"job {job.get('id')} failed: {job['error']}"
            )
        responses = job.get("responses")
        if responses is None:
            raise ServiceError(
                f"job {job.get('id')} is {job.get('status')!r}; responses "
                "are available once it is done"
            )
        return [CompileResponse.from_dict(item) for item in responses]

    # -- introspection ---------------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        return self._call("GET", "/v1/healthz")

    def devices(self) -> List[str]:
        return self._call("GET", "/v1/devices")["devices"]

    def passes(self) -> Dict[str, object]:
        return self._call("GET", "/v1/passes")

    def cache_info(self) -> Optional[Dict[str, object]]:
        """The server cache's ``info()`` payload (``None`` = disabled)."""
        return self._call("GET", "/v1/cache")["cache"]

    def __repr__(self) -> str:
        return f"ServiceClient({self.url!r})"


class _OneWrite:
    """Connection mixin: each request (header block and body) goes out in
    one write.  ``http.client`` writes the two separately, and the first
    write wakes the server only for it to wait for the second."""

    _pending: Optional[List[bytes]] = None

    def endheaders(self, message_body=None, *, encode_chunked=False) -> None:
        self._pending = []
        try:
            super().endheaders(message_body, encode_chunked=encode_chunked)
            data = b"".join(self._pending)
        finally:
            self._pending = None
        super().send(data)

    def send(self, data) -> None:
        if self._pending is None:
            super().send(data)
        else:
            self._pending.append(bytes(data))


class _HTTPConnection(_OneWrite, http.client.HTTPConnection):
    pass


class _HTTPSConnection(_OneWrite, http.client.HTTPSConnection):
    pass


def _closed_by_peer(connection: http.client.HTTPConnection) -> bool:
    """True when an idle kept-alive socket is readable or in error: the
    server sent EOF (or a reset), since it never speaks unasked."""
    if connection.sock is None:
        return False  # closed locally; http.client reconnects on use
    poller = select.poll()
    poller.register(connection.sock, select.POLLIN | select.POLLPRI)
    return bool(poller.poll(0))
