"""Content-addressed fingerprints for compilation work.

A compilation is fully determined by four things: the circuit *content*
(qubit count + gate stream — names are provenance, not content), the
coupling graph, the normalized pipeline spec, and the seed.  Hashing that
tuple — together with a code/schema epoch — yields a stable key under
which a result can be cached and later returned bit-identically.  Two
devices with different library names but identical coupling graphs share
cache entries; a renamed circuit with the same gates does too.

Invalidation is by construction: any change to the circuit, the device,
the spec (after normalization — presets expand, aliases resolve, stage
arguments sort), the seed, or the :data:`CACHE_EPOCH` yields a different
key, so stale entries are never *returned*, merely orphaned.  Bump
``CACHE_EPOCH`` whenever routing decisions change (the pinned goldens in
``tests/qls/test_perf_equivalence.py`` catching a drift is the signal).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from .. import __version__
from ..arch.coupling import CouplingGraph
from ..circuit.circuit import QuantumCircuit
from ..pipeline.registry import list_specs, parse_spec
from ..qls.base import RESULT_SCHEMA_VERSION
from ..qubikos.mapping import Mapping

#: Bumping this orphans every existing cache entry.  Do so whenever
#: compilation *decisions* change (new routing behaviour, changed seed
#: handling) — schema-only changes are covered by RESULT_SCHEMA_VERSION.
CACHE_EPOCH = 1


def canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact floats."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Hash of the circuit *content*: qubit count + gate stream.

    The circuit name is provenance — two identically-gated circuits with
    different names are the same compilation problem.
    """
    payload = circuit.to_dict()
    payload.pop("name", None)
    return _digest(canonical_json(payload))


def coupling_fingerprint(coupling: CouplingGraph) -> str:
    """Hash of the device graph: qubit count + sorted edge set.

    The graph is immutable, so the digest is computed once per graph
    object and cached on it (every request keys its device).
    """
    if coupling._fingerprint is None:
        coupling._fingerprint = _digest(canonical_json({
            "num_qubits": coupling.num_qubits,
            "edges": [list(edge) for edge in coupling.edges],
        }))
    return coupling._fingerprint


def normalize_spec(spec: str) -> str:
    """Canonical spec string: presets expanded, aliases resolved, stage
    arguments sorted — so every spelling of the same pipeline keys alike.

    ``"lightsabre-tool"``, ``"lightsabre"`` and ``"lightsabre:"``-less
    variants all normalize to ``"lightsabre"``; ``"tket"`` to
    ``"tketlike"``; ``"lightsabre:workers=2,trials=8"`` to
    ``"lightsabre:trials=8,workers=2"``.
    """
    expanded = list_specs().get(spec, spec)
    parts = []
    for name, kwargs in parse_spec(expanded):
        if kwargs:
            args = ",".join(f"{key}={kwargs[key]!r}" for key in sorted(kwargs))
            parts.append(f"{name}:{args}")
        else:
            parts.append(name)
    return "+".join(parts)


def code_fingerprint() -> Dict[str, object]:
    """The code/version component of every cache key and provenance stamp."""
    return {
        "version": __version__,
        "cache_epoch": CACHE_EPOCH,
        "result_schema": RESULT_SCHEMA_VERSION,
    }


def request_fingerprint(circuit: QuantumCircuit, coupling: CouplingGraph,
                        spec: str, seed: Optional[int],
                        initial_mapping: Optional[Mapping] = None) -> str:
    """The content-addressed cache key of one compilation request."""
    return _digest(canonical_json({
        "kind": "compile-request",
        "code": code_fingerprint(),
        "circuit": circuit_fingerprint(circuit),
        "coupling": coupling_fingerprint(coupling),
        "spec": normalize_spec(spec),
        "seed": seed,
        "initial_mapping": (
            [list(pair) for pair in initial_mapping.to_pairs()]
            if initial_mapping is not None else None
        ),
    }))

