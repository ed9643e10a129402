"""The Pipeline: an ordered chain of passes with a per-stage breakdown.

``Pipeline.run`` threads one :class:`~repro.pipeline.context.CompilationContext`
through its passes and emits a :class:`PipelineResult` — a
:class:`~repro.qls.base.QLSResult` subclass, so everything that consumes
tool results (the evaluation harness, validation, reports) accepts pipeline
output unchanged, with stage-level timings and swap progression on top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..arch.coupling import CouplingGraph
from ..circuit.circuit import QuantumCircuit
from ..obs import metrics as obs_metrics
from ..obs import profile as obs_profile
from ..obs import trace as obs_trace
from ..qls.base import QLSError, QLSResult, register_result_type
from ..qubikos.mapping import Mapping
from .context import CompilationContext
from .passes import Pass


@dataclass(frozen=True)
class StageRecord:
    """One pass execution inside a pipeline run."""

    name: str
    seconds: float
    #: SWAP gates in the current circuit after this stage (the running
    #: total a per-stage breakdown plots).
    swaps_after: int
    #: ``--profile`` payload: ``{"cpu_seconds": ..., "counts": {...}}``.
    #: ``None`` unless profiling was armed, and omitted from the dict
    #: form when ``None`` so disarmed serialization is byte-identical
    #: to the pre-obs layout (cache entries, goldens).
    profile: Optional[Dict[str, object]] = None

    def __repr__(self) -> str:
        return (f"StageRecord({self.name!r}, {self.seconds:.4f}s, "
                f"swaps={self.swaps_after})")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (floats round-trip exactly)."""
        payload: Dict[str, object] = {
            "name": self.name, "seconds": self.seconds,
            "swaps_after": self.swaps_after,
        }
        if self.profile is not None:
            payload["profile"] = self.profile
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StageRecord":
        return cls(name=payload["name"], seconds=payload["seconds"],
                   swaps_after=payload["swaps_after"],
                   profile=payload.get("profile"))


@register_result_type
@dataclass
class PipelineResult(QLSResult):
    """A ``QLSResult`` with the pipeline's per-stage breakdown.

    ``runtime_seconds`` is the summed stage wall-clock, stamped by the
    pipeline itself — ``QLSTool.timed_run`` leaves it untouched.
    """

    stages: List[StageRecord] = field(default_factory=list)

    def stage(self, name: str) -> StageRecord:
        """The first stage record with ``name`` (KeyError if absent)."""
        for record in self.stages:
            if record.name == name:
                return record
        raise KeyError(name)

    def _extra_dict(self) -> Dict[str, object]:
        return {"stages": [record.to_dict() for record in self.stages]}

    @classmethod
    def _init_kwargs(cls, payload: Dict[str, object]) -> Dict[str, object]:
        kwargs = super()._init_kwargs(payload)
        kwargs["stages"] = [StageRecord.from_dict(entry)
                            for entry in payload.get("stages", [])]
        return kwargs


class Pipeline:
    """An ordered chain of compilation passes.

    ``initial_mapping`` pins the starting placement before any pass runs
    (router-only mode, exactly like the ``QLSTool.run`` parameter); layout
    passes then skip themselves and tool passes receive the pin.
    """

    def __init__(self, passes: Iterable[Pass], name: Optional[str] = None,
                 spec: Optional[str] = None,
                 seed: Optional[int] = None) -> None:
        self.passes: List[Pass] = list(passes)
        if not self.passes:
            raise ValueError("a pipeline needs at least one pass")
        self.name = name or "+".join(p.name for p in self.passes)
        #: The spec string (and top-level seed) this pipeline was built
        #: from, when it came out of :func:`~repro.pipeline.registry.
        #: build_pipeline` — what lets the serving layer reconstruct an
        #: equivalent pipeline remotely.  ``None`` for hand-assembled
        #: pipelines, which only exist in-process.
        self.spec = spec
        self.seed = seed

    def run(self, circuit: QuantumCircuit, coupling: CouplingGraph,
            initial_mapping: Optional[Mapping] = None) -> PipelineResult:
        context = CompilationContext(circuit, coupling,
                                     initial_mapping=initial_mapping)
        current = circuit
        stages: List[StageRecord] = []
        run_span = obs_trace.span("pipeline.run", pipeline=self.name,
                                  stages=len(self.passes))
        with run_span:
            for stage in self.passes:
                collector = obs_profile._ACTIVE
                counts_before = (collector.snapshot()
                                 if collector is not None else None)
                cpu_start = time.process_time()
                start = time.perf_counter()
                with obs_trace.span("pipeline.pass", stage=stage.name,
                                    pipeline=self.name):
                    output = stage.run(current, coupling, context)
                seconds = time.perf_counter() - start
                cpu_seconds = time.process_time() - cpu_start
                if output is not None:
                    current = output
                context.timings[stage.name] = (
                    context.timings.get(stage.name, 0.0) + seconds
                )
                profile: Optional[Dict[str, object]] = None
                if collector is not None:
                    profile = {"cpu_seconds": cpu_seconds,
                               "counts": collector.delta_since(counts_before)}
                if obs_metrics._ACTIVE is not None:
                    obs_metrics.PIPELINE_STAGE_SECONDS.observe(
                        seconds, stage=stage.name)
                stages.append(StageRecord(name=stage.name, seconds=seconds,
                                          swaps_after=current.swap_count(),
                                          profile=profile))
            if obs_metrics._ACTIVE is not None:
                obs_metrics.PIPELINE_RUNS.inc(pipeline=self.name)
        if context.initial_mapping is None:
            raise QLSError(
                f"pipeline {self.name!r} finished without an initial "
                "mapping; add a layout or tool pass"
            )
        if "routed" in context:
            raise QLSError(
                f"pipeline {self.name!r} left an unwoven routed stream; "
                "add a 'reinsert' pass after the routing stage"
            )
        if "bundles" in context or "tail" in context:
            raise QLSError(
                f"pipeline {self.name!r} split off single-qubit gates that "
                "were never woven back (they would be silently dropped); "
                "route the skeleton with 'sabre-route' + 'reinsert' instead "
                "of a monolithic tool, or drop the 'skeleton' stage"
            )
        swap_count = (context.swap_count if context.swap_count is not None
                      else current.swap_count())
        metadata = dict(context.metadata)
        metadata["pipeline"] = self.name
        return PipelineResult(
            tool=self.name,
            circuit=current,
            initial_mapping=context.initial_mapping,
            swap_count=swap_count,
            runtime_seconds=sum(record.seconds for record in stages),
            metadata=metadata,
            stages=stages,
        )

    def __repr__(self) -> str:
        return f"Pipeline({self.name!r}, {len(self.passes)} passes)"
