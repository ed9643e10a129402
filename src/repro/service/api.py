"""Typed request/response surface of the compilation service.

A :class:`CompileRequest` names everything that determines a compilation —
circuit, device (by :mod:`repro.arch.library` name), pipeline spec, seed,
optional pinned mapping — plus provenance-only fields (source instance
name, free-form options) that are deliberately *excluded* from the cache
key.  A :class:`CompileResponse` wraps the
:class:`~repro.pipeline.pipeline.PipelineResult` with provenance: the
normalized spec, the code/version fingerprint, cache status, and timings.

Both serialize to canonical JSON (``to_dict`` / ``from_dict``, versioned
schema), which is also the JSONL line format of the
``python -m repro.service`` batch CLI *and* the HTTP wire format of the
serving front-end (:mod:`repro.service.server` /
:mod:`repro.service.client`): one schema, every transport.

The envelope helpers at the bottom define the shared batch shapes —
``{"requests": [...]}`` in, ``{"responses": [...]}`` out — and the
canonical error payload every non-2xx server response carries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence

from ..arch.coupling import CouplingGraph
from ..arch.library import available_architectures, get_architecture
from ..circuit.circuit import QuantumCircuit
from ..qls.base import QLSResult
from ..qubikos.instance import QubikosInstance
from ..qubikos.mapping import Mapping
from .fingerprint import (
    canonical_json,
    code_fingerprint,
    normalize_spec,
    request_fingerprint,
)

#: Version of the request/response wire schema (independent of the result
#: schema nested inside responses).
REQUEST_SCHEMA_VERSION = 1


class ServiceError(ValueError):
    """Raised for malformed service requests or payloads."""


@lru_cache(maxsize=None)
def _cached_coupling(name: str) -> CouplingGraph:
    """Per-process device cache (architectures are immutable).

    Every fingerprint and every compile resolves the request's device;
    without this, each call would rebuild the coupling graph — and its
    lazily-computed all-pairs distance matrix, the expensive part — from
    scratch.
    """
    return get_architecture(name)


@dataclass
class CompileRequest:
    """One unit of compilation work submitted to the service.

    ``instance`` and ``options`` are provenance only: they ride along into
    the response but do **not** enter the cache key — everything that
    affects the produced circuit must be expressed in ``spec``/``seed``.
    """

    circuit: QuantumCircuit
    device: str
    spec: str = "sabre"
    seed: Optional[int] = None
    #: Pinned starting placement (router-only mode); layout stages skip.
    initial_mapping: Optional[Mapping] = None
    #: Name of the QUBIKOS instance this circuit came from, if any.
    instance: Optional[str] = None
    #: Free-form annotations echoed into the response provenance.
    options: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_instance(cls, instance: QubikosInstance, spec: str = "sabre",
                      seed: Optional[int] = None, router_only: bool = False,
                      **options: object) -> "CompileRequest":
        """Build a request from a :class:`QubikosInstance` reference.

        ``router_only=True`` pins the instance's known-optimal initial
        mapping (the paper's Section IV-C mode).
        """
        return cls(
            circuit=instance.circuit,
            device=instance.architecture,
            spec=spec,
            seed=seed,
            initial_mapping=instance.mapping() if router_only else None,
            instance=instance.name,
            options=dict(options),
        )

    def coupling(self) -> CouplingGraph:
        """Resolve the device name against the architecture library."""
        try:
            return _cached_coupling(self.device)
        except (KeyError, ValueError) as exc:
            known = ", ".join(available_architectures())
            raise ServiceError(
                f"unknown device {self.device!r} (library: {known})"
            ) from exc

    def normalized_spec(self) -> str:
        return normalize_spec(self.spec)

    def fingerprint(self) -> str:
        """The content-addressed cache key of this request."""
        return request_fingerprint(self.circuit, self.coupling(), self.spec,
                                   self.seed, self.initial_mapping)

    # -- canonical serialization ----------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": REQUEST_SCHEMA_VERSION,
            "type": "CompileRequest",
            "circuit": self.circuit.to_dict(),
            "device": self.device,
            "spec": self.spec,
            "seed": self.seed,
            "initial_mapping": (
                [list(pair) for pair in self.initial_mapping.to_pairs()]
                if self.initial_mapping is not None else None
            ),
            "instance": self.instance,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CompileRequest":
        version = payload.get("schema")
        if version != REQUEST_SCHEMA_VERSION:
            raise ServiceError(
                f"unsupported request schema version {version!r} "
                f"(this build reads version {REQUEST_SCHEMA_VERSION})"
            )
        mapping = payload.get("initial_mapping")
        return cls(
            circuit=QuantumCircuit.from_dict(payload["circuit"]),
            device=payload["device"],
            spec=payload.get("spec", "sabre"),
            seed=payload.get("seed"),
            initial_mapping=(Mapping.from_pairs(mapping)
                             if mapping is not None else None),
            instance=payload.get("instance"),
            options=dict(payload.get("options", {})),
        )

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def __repr__(self) -> str:
        pin = ", pinned" if self.initial_mapping is not None else ""
        return (f"CompileRequest(device={self.device!r}, spec={self.spec!r}, "
                f"seed={self.seed}, gates={len(self.circuit)}{pin})")


@dataclass
class CompileResponse:
    """A compiled result plus full provenance.

    ``cache_hit`` distinguishes a recomputation from a cache return;
    ``compile_seconds`` is always the *compute* cost (on a hit, the cost
    recorded when the entry was first computed), while ``service_seconds``
    is this submission's end-to-end wall-clock including cache lookup —
    the number that collapses on warm runs.  In a parallel batch,
    responses that waited on a pool compile (misses and their duplicate
    followers) report their batch latency — queueing plus compute — and
    pre-resolved cache hits report only their serving cost.
    """

    request_fingerprint: str
    result: QLSResult
    provenance: Dict[str, object]
    cache_hit: bool
    compile_seconds: float
    service_seconds: float = 0.0

    @classmethod
    def from_result_text(cls, result_text: str,
                         result: Optional[QLSResult] = None,
                         **fields: object) -> "CompileResponse":
        """A response carrying its result as verified canonical JSON text
        (``canonical_json(result.to_dict())``, memoised by the service
        the first time it served the cache entry).

        :func:`encode_json` splices that text into the wire envelope
        verbatim.  Without ``result`` the ``.result`` attribute is
        decoded from the text on first access, so a response that is only
        ever written to the wire never builds a result object.  The text
        is authoritative: like every response, treat ``.result`` as a
        value and do not mutate it.
        """
        response = cls(result=result, **fields)
        if result is None:
            del response.result  # decoded on first access (__getattr__)
        response._result_text = result_text
        return response

    def __getattr__(self, name: str) -> object:
        # Reached only for attributes missing from the instance: the
        # lazy ``result`` of a ``from_result_text`` response.
        text = self.__dict__.get("_result_text")
        if name != "result" or text is None:
            raise AttributeError(name)
        result = QLSResult.from_dict(json.loads(text))
        self.__dict__["result"] = result
        return result

    def _envelope(self) -> Dict[str, object]:
        return {
            "schema": REQUEST_SCHEMA_VERSION,
            "type": "CompileResponse",
            "request_fingerprint": self.request_fingerprint,
            "provenance": dict(self.provenance),
            "cache_hit": self.cache_hit,
            "compile_seconds": self.compile_seconds,
            "service_seconds": self.service_seconds,
        }

    def to_dict(self) -> Dict[str, object]:
        payload = self._envelope()
        payload["result"] = self.result.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CompileResponse":
        version = payload.get("schema")
        if version != REQUEST_SCHEMA_VERSION:
            raise ServiceError(
                f"unsupported response schema version {version!r} "
                f"(this build reads version {REQUEST_SCHEMA_VERSION})"
            )
        return cls(
            request_fingerprint=payload["request_fingerprint"],
            result=QLSResult.from_dict(payload["result"]),
            provenance=dict(payload["provenance"]),
            cache_hit=payload["cache_hit"],
            compile_seconds=payload["compile_seconds"],
            service_seconds=payload.get("service_seconds", 0.0),
        )

    def canonical_json(self) -> str:
        """``canonical_json(self.to_dict())``, byte for byte — built by
        splicing the stored result text when the response carries one."""
        text = self.__dict__.get("_result_text")
        if text is None:
            return canonical_json(self.to_dict())
        payload = self._envelope()
        payload["result"] = RawJSON(text)
        return encode_json(payload)

    def __repr__(self) -> str:
        status = "hit" if self.cache_hit else "miss"
        return (f"CompileResponse({self.request_fingerprint[:12]}, {status}, "
                f"swaps={self.result.swap_count}, "
                f"t={self.service_seconds:.3f}s)")


class RawJSON(str):
    """Text that is already canonical JSON; :func:`encode_json` writes it
    verbatim instead of encoding it as a string."""


def encode_json(payload: object) -> str:
    """:func:`canonical_json` that splices instead of re-encoding.

    A :class:`CompileResponse` — the payload itself, a value of the
    top-level dict, or an item of a list there — is written as its
    :meth:`CompileResponse.canonical_json`, and a :class:`RawJSON`
    likewise verbatim; everything else goes through
    :func:`canonical_json`.  The bytes equal ``canonical_json`` of the
    payload with every response replaced by its ``to_dict()``: keys are
    written in the same sorted order with the same separators.  This is
    the one encoder the HTTP server writes responses through — single,
    batch and job payloads alike.
    """
    if isinstance(payload, CompileResponse):
        return payload.canonical_json()
    if isinstance(payload, RawJSON):
        return str(payload)
    if isinstance(payload, dict) and any(map(_spliced, payload.values())):
        return "{" + ",".join(
            f"{canonical_json(key)}:{encode_json(payload[key])}"
            for key in sorted(payload)
        ) + "}"
    if isinstance(payload, list) and any(map(_spliced, payload)):
        return "[" + ",".join(map(encode_json, payload)) + "]"
    return canonical_json(payload)


def _spliced(value: object) -> bool:
    """True when ``value`` holds something :func:`encode_json` splices."""
    if isinstance(value, (CompileResponse, RawJSON)):
        return True
    return isinstance(value, list) and any(map(_spliced, value))


def make_provenance(request: CompileRequest, cache_hit: bool) -> Dict[str, object]:
    """The provenance block stamped on every response."""
    return {
        "device": request.device,
        "spec": request.spec,
        "normalized_spec": request.normalized_spec(),
        "seed": request.seed,
        "instance": request.instance,
        "options": dict(request.options),
        "code": code_fingerprint(),
        "cache": "hit" if cache_hit else "miss",
    }


# -- wire envelopes (HTTP server/client + batch CLI) --------------------------


def encode_requests(requests: Sequence[CompileRequest],
                    **extra: object) -> Dict[str, object]:
    """The batch-request envelope (``POST /v1/compile`` / ``/v1/jobs``).

    ``extra`` keys (``priority``, ``workers``) ride along at the top
    level next to ``requests``.
    """
    payload: Dict[str, object] = {
        "schema": REQUEST_SCHEMA_VERSION,
        "type": "CompileRequestBatch",
        "requests": [request.to_dict() for request in requests],
    }
    payload.update(extra)
    return payload


def decode_requests(payload: object) -> List[CompileRequest]:
    """Parse a ``POST /v1/compile``-shaped body into requests.

    Accepts either a single ``CompileRequest`` object or a batch
    envelope with a non-empty ``requests`` list; anything else raises
    :class:`ServiceError` (which the server maps to a 400).
    """
    if not isinstance(payload, dict):
        raise ServiceError(
            "request body must be a JSON object (a CompileRequest or a "
            "{'requests': [...]} batch)"
        )
    if payload.get("type") == "CompileRequest":
        return [CompileRequest.from_dict(payload)]
    requests = payload.get("requests")
    if not isinstance(requests, list) or not requests:
        raise ServiceError(
            "batch body needs a non-empty 'requests' list of "
            "CompileRequest objects"
        )
    return [CompileRequest.from_dict(item) for item in requests]


def encode_responses(responses: Iterable[CompileResponse]) -> Dict[str, object]:
    """The batch-response envelope mirroring :func:`encode_requests`.

    The responses stay objects: write the envelope with
    :func:`encode_json`, which splices each one's stored result text.
    """
    return {
        "schema": REQUEST_SCHEMA_VERSION,
        "type": "CompileResponseBatch",
        "responses": list(responses),
    }


def decode_responses(payload: object) -> List[CompileResponse]:
    """Parse a batch-response envelope (the client side of
    :func:`encode_responses`)."""
    if not isinstance(payload, dict) \
            or not isinstance(payload.get("responses"), list):
        raise ServiceError(
            "response body needs a 'responses' list of CompileResponse "
            "objects"
        )
    return [CompileResponse.from_dict(item) for item in payload["responses"]]


def error_payload(message: str, status: int) -> Dict[str, object]:
    """The canonical-JSON error body of every non-2xx server response."""
    return {
        "schema": REQUEST_SCHEMA_VERSION,
        "type": "ServiceError",
        "status": int(status),
        "error": str(message),
    }
