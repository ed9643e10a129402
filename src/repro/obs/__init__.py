"""``repro.obs`` — the observability subsystem: metrics, tracing, profiling.

The serving stack (pipeline, cache, jobs, worker pool, HTTP front-end)
reports into one process-local telemetry layer with three independent,
independently-armed facilities:

* :mod:`repro.obs.metrics` — a thread-safe registry of labeled
  ``Counter``/``Gauge``/``Histogram`` series.  Zero cost when disarmed:
  instrumented hot paths guard with ``if metrics._ACTIVE is not None``
  (one module-attribute load, the same idiom as :mod:`repro.faults`).
  Every emitted metric is declared once there as a module-level object
  with a closed label set; disarmed, its calls are no-ops.  Snapshots
  are JSON-safe and mergeable, so :class:`~repro.parallel.WorkerPool`
  children ship their counters back to the parent piggybacked on task
  results.  ``GET /v1/metrics`` on the serving front-end renders the
  armed registry in Prometheus text format (stdlib only).
* :mod:`repro.obs.trace` — structured tracing.  ``span("name", **attrs)``
  is a context manager emitting one JSONL record per span with
  monotonic-clock durations, sequential (deterministic, diffable) span
  ids, and parent/child links via a per-thread span stack.  Armed via
  :func:`~repro.obs.trace.tracing`, ``serve --trace PATH``, or
  ``$REPRO_TRACE``; ``python -m repro.obs trace-summary FILE`` renders
  the reconstructed span tree with critical-path timings.
* :mod:`repro.obs.profile` — opt-in profiling hooks (``--profile``).
  When armed, every pipeline stage records wall/CPU time plus the
  counts routers bumped during the stage into
  ``StageRecord.profile``; disarmed, ``StageRecord`` serialization is
  byte-identical to before this subsystem existed.

Arming any of the three never changes compilation output: the pinned
routing goldens reproduce bit-identically with tracing and metrics
fully armed (``tests/qls/test_perf_equivalence.py``).
"""

from . import metrics, profile, trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from .trace import Span, TraceWriter, read_trace, render_summary, span, tracing

__all__ = [
    "metrics", "profile", "trace",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "parse_prometheus_text",
    "Span", "TraceWriter", "read_trace", "render_summary", "span", "tracing",
]
