"""Process-local metrics registry: labeled counters, gauges, histograms.

Design goals, in priority order:

1. **Declared once.**  Every metric this codebase emits is a
   module-level object below (``ROUTER_SWAPS``, ``CACHE_EVENTS``, ...)
   carrying its kind, name, help text and closed label tuple.  Call
   sites use the object — ``metrics.ROUTER_SWAPS.inc(n, router="sabre")``
   — and never restate a name or help string, so a misspelled metric is
   an ``AttributeError`` and, when armed, a label set other than the
   declared one raises ``ValueError`` at the call.
2. **Zero cost when disarmed.**  The armed registry is the module global
   :data:`_ACTIVE`; instrumented hot paths guard every metric call with
   ``if metrics._ACTIVE is not None`` — one module-attribute load, no
   function call, no allocation (the :mod:`repro.faults` idiom).  A
   declared metric called while disarmed is a no-op.
3. **Thread safety.**  One registry backs a threaded HTTP server plus
   the job executor; every mutation runs under the registry lock.
4. **Snapshot / merge.**  :meth:`MetricsRegistry.snapshot` is JSON-safe
   and :meth:`MetricsRegistry.merge` is additive for counters and
   histograms, so worker processes can ship their metric deltas back to
   the parent piggybacked on task results
   (:class:`~repro.parallel.WorkerPool` does exactly that).  Gauges are
   process-local moment-in-time values: they merge last-write-wins and
   are excluded from deltas.
5. **Prometheus text rendering**, stdlib only —
   :meth:`MetricsRegistry.render_prometheus` backs ``GET /v1/metrics``.

Metric names follow Prometheus conventions (``repro_<noun>_total`` for
counters, ``_seconds`` histograms); label values are escaped on render.
"""

from __future__ import annotations

import json
import re
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Legal Prometheus metric / label names.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Label tuple: sorted ``(name, value)`` pairs — the series key.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((name, str(value))
                        for name, value in labels.items()))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric/label name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
                .replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) \
        -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"'
                     for name, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # Integral values render without the trailing ``.0`` — what every
    # Prometheus client library emits for counters.
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Metric:
    """Shared labeled-series plumbing; the registry owns the lock."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str) -> None:  # noqa: A002 - prometheus vocabulary
        self.registry = registry
        self.name = _check_name(name)
        self.help = help
        self._series: Dict[LabelKey, object] = {}  # guarded-by: registry._lock

    def labels_seen(self) -> List[LabelKey]:
        with self.registry._lock:
            return sorted(self._series)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, "
                f"series={len(self._series)})")


class Counter(_Metric):
    """Monotonically increasing labeled series."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self.registry._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self.registry._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every labeled series."""
        with self.registry._lock:
            return float(sum(self._series.values()))


class Gauge(_Metric):
    """A value that goes up and down (queue depth, live workers)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self.registry._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        with self.registry._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self.registry._lock:
            return float(self._series.get(_label_key(labels), 0.0))


#: Default histogram buckets, tuned for request/compile latencies.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,  # noqa: A002
                 buckets: Optional[Sequence[float]] = None) -> None:
        super().__init__(registry, name, help)
        bounds = tuple(sorted(buckets if buckets is not None
                              else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self.registry._lock:
            state = self._series.get(key)
            if state is None:
                state = {"counts": [0] * len(self.buckets),
                         "sum": 0.0, "count": 0}
                self._series[key] = state
            counts = state["counts"]
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            state["sum"] += value
            state["count"] += 1

    def count(self, **labels: object) -> int:
        with self.registry._lock:
            state = self._series.get(_label_key(labels))
            return int(state["count"]) if state else 0

    def sum(self, **labels: object) -> float:
        with self.registry._lock:
            state = self._series.get(_label_key(labels))
            return float(state["sum"]) if state else 0.0


class MetricsRegistry:
    """Create-or-get registry of named metrics with labeled series."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}  # guarded-by: _lock
        self._lock = threading.RLock()

    # -- create-or-get ---------------------------------------------------------

    def _get(self, name: str, kind: type, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(self, name, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} is a {metric.kind}, not a "
                    f"{kind.kind}"  # type: ignore[attr-defined]
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:  # noqa: A002
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:  # noqa: A002
        return self._get(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "",  # noqa: A002
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get(name, Histogram, help=help, buckets=buckets)

    # -- introspection ---------------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def series_count(self) -> int:
        with self._lock:
            return sum(len(metric._series)
                       for metric in self._metrics.values())

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- snapshot / merge ------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe copy of every metric (series keyed by the canonical
        JSON of their sorted label pairs)."""
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for name, metric in self._metrics.items():
                series = {}
                for key, state in metric._series.items():
                    encoded = json.dumps(list(key))
                    if metric.kind == "histogram":
                        series[encoded] = {"counts": list(state["counts"]),
                                           "sum": state["sum"],
                                           "count": state["count"]}
                    else:
                        series[encoded] = state
                entry: Dict[str, object] = {"kind": metric.kind,
                                            "help": metric.help,
                                            "series": series}
                if metric.kind == "histogram":
                    entry["buckets"] = list(metric.buckets)
                out[name] = entry
            return out

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`snapshot` (or delta) into this registry:
        counters and histograms add, gauges take the snapshot's value."""
        with self._lock:
            for name, entry in snapshot.items():
                kind = entry.get("kind")
                if kind == "counter":
                    metric = self.counter(name, str(entry.get("help", "")))
                elif kind == "gauge":
                    metric = self.gauge(name, str(entry.get("help", "")))
                elif kind == "histogram":
                    metric = self.histogram(name, str(entry.get("help", "")),
                                            buckets=entry.get("buckets"))
                else:
                    raise ValueError(f"unknown metric kind {kind!r} "
                                     f"for {name!r}")
                for encoded, state in entry.get("series", {}).items():
                    key = tuple(tuple(pair) for pair in json.loads(encoded))
                    if kind == "histogram":
                        if len(state["counts"]) != len(metric.buckets):
                            raise ValueError(
                                f"histogram {name!r} bucket count mismatch"
                            )
                        existing = metric._series.get(key)
                        if existing is None:
                            existing = {"counts": [0] * len(metric.buckets),
                                        "sum": 0.0, "count": 0}
                            metric._series[key] = existing
                        for index, count in enumerate(state["counts"]):
                            existing["counts"][index] += count
                        existing["sum"] += state["sum"]
                        existing["count"] += state["count"]
                    elif kind == "counter":
                        metric._series[key] = \
                            metric._series.get(key, 0.0) + state
                    else:  # gauge: moment-in-time, last write wins
                        metric._series[key] = state

    # -- rendering -------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for key in sorted(metric._series):
                    state = metric._series[key]
                    if metric.kind != "histogram":
                        lines.append(f"{name}{_render_labels(key)} "
                                     f"{_format_value(state)}")
                        continue
                    cumulative = 0
                    for bound, count in zip(metric.buckets, state["counts"]):
                        cumulative += count
                        labels = _render_labels(key, [("le", f"{bound:g}")])
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _render_labels(key, [("le", "+Inf")])
                    lines.append(f"{name}_bucket{labels} {state['count']}")
                    lines.append(f"{name}_sum{_render_labels(key)} "
                                 f"{_format_value(state['sum'])}")
                    lines.append(f"{name}_count{_render_labels(key)} "
                                 f"{state['count']}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (f"MetricsRegistry({len(self._metrics)} metrics, "
                f"{self.series_count()} series)")


def snapshot_delta(before: Dict[str, Dict[str, object]],
                   after: Dict[str, Dict[str, object]]) \
        -> Dict[str, Dict[str, object]]:
    """``after - before`` for counters and histograms; zero-valued series
    are dropped and gauges are excluded (they are process-local values,
    not flows — merging a child's gauge would clobber the parent's)."""
    delta: Dict[str, Dict[str, object]] = {}
    for name, entry in after.items():
        kind = entry.get("kind")
        if kind == "gauge":
            continue
        base = before.get(name, {}).get("series", {})
        series: Dict[str, object] = {}
        for encoded, state in entry.get("series", {}).items():
            if kind == "counter":
                changed = state - base.get(encoded, 0.0)
                if changed > 0:
                    series[encoded] = changed
            else:
                prior = base.get(encoded,
                                 {"counts": [0] * len(state["counts"]),
                                  "sum": 0.0, "count": 0})
                count = state["count"] - prior["count"]
                if count > 0:
                    series[encoded] = {
                        "counts": [c - p for c, p
                                   in zip(state["counts"], prior["counts"])],
                        "sum": state["sum"] - prior["sum"],
                        "count": count,
                    }
        if series:
            delta[name] = {**entry, "series": series}
    return delta


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, float]]:
    """Minimal exposition-format parser (tests and tools): returns
    ``{metric_name: {label_string: value}}``.  Raises ``ValueError`` on
    any line that is neither a comment nor a valid sample."""
    # Label values are quoted and may themselves contain ``}`` (e.g. the
    # ``/v1/jobs/{id}`` endpoint label), so the label block must be
    # matched as a sequence of quoted pairs, not ``[^}]*``.
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(\{(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*\})?"
        r"\s+(\S+)$")
    out: Dict[str, Dict[str, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = sample_re.match(line)
        if match is None:
            raise ValueError(f"invalid Prometheus sample on line "
                             f"{lineno}: {line!r}")
        name, labels, value = match.groups()
        out.setdefault(name, {})[labels or ""] = float(value)
    return out


# -- the armed registry --------------------------------------------------------

#: The armed registry.  Hot paths guard with ``if metrics._ACTIVE is not
#: None`` — the whole cost of a disarmed site is one module-attribute
#: load (the :mod:`repro.faults` idiom).
_ACTIVE: Optional[MetricsRegistry] = None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Arm ``registry`` (or the already-armed one, or a fresh one).

    Idempotent without an argument: re-enabling keeps the armed registry
    and its accumulated series, so embedding layers (the HTTP server,
    the CLI) can each call ``enable()`` without clobbering each other.
    """
    global _ACTIVE
    if registry is not None:
        _ACTIVE = registry
    elif _ACTIVE is None:
        _ACTIVE = MetricsRegistry()
    return _ACTIVE


def disable() -> None:
    """Disarm: every instrumented site back to one global load."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[MetricsRegistry]:
    return _ACTIVE


def merge_active(snapshot: Optional[Dict[str, Dict[str, object]]]) -> None:
    """Fold a child-process snapshot into the armed registry (no-op when
    disarmed or the snapshot is empty)."""
    registry = _ACTIVE
    if registry is not None and snapshot:
        registry.merge(snapshot)


@contextmanager
def enabled(registry: Optional[MetricsRegistry] = None) \
        -> Iterator[MetricsRegistry]:
    """Arm a registry (fresh by default) for a ``with`` block (tests)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


@contextmanager
def disabled() -> Iterator[None]:
    """Disarm for a ``with`` block (overhead tests)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    try:
        yield
    finally:
        _ACTIVE = previous


# -- the declared metrics ------------------------------------------------------

#: Every declared metric by name (filled in by the declarations below).
DECLARED: Dict[str, "_Declared"] = {}


class _Declared:
    """One declared metric: kind, name, help text and closed label set.

    A no-op while disarmed.  Armed, a call resolves the armed registry's
    metric by name (so worker snapshots merge into the same series) after
    checking that the labels passed are exactly the declared ones.
    """

    __slots__ = ("name", "help", "labels", "_label_set")
    kind = "untyped"

    def __init__(self, name: str, help: str,  # noqa: A002
                 labels: Tuple[str, ...] = ()) -> None:
        if name in DECLARED:
            raise ValueError(f"metric {name!r} is declared twice")
        self.name = _check_name(name)
        self.help = help
        self.labels = tuple(_check_name(label) for label in labels)
        self._label_set = frozenset(self.labels)
        DECLARED[name] = self

    def _armed(self, labels: Dict[str, object]) -> Optional[_Metric]:
        registry = _ACTIVE
        if registry is None:
            return None
        if labels.keys() != self._label_set:
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"({', '.join(self.labels)}), got ({', '.join(labels)})"
            )
        return getattr(registry, self.kind)(self.name, self.help)


class DeclaredCounter(_Declared):
    __slots__ = ()
    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        metric = self._armed(labels)
        if metric is not None:
            metric.inc(amount, **labels)


class DeclaredGauge(_Declared):
    __slots__ = ()
    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        metric = self._armed(labels)
        if metric is not None:
            metric.set(value, **labels)


class DeclaredHistogram(_Declared):
    __slots__ = ()
    kind = "histogram"

    def observe(self, value: float, **labels: object) -> None:
        metric = self._armed(labels)
        if metric is not None:
            metric.observe(value, **labels)


CACHE_EVENTS = DeclaredCounter(
    "repro_cache_events_total",
    "Result-cache events (hit, miss, eviction, quarantine, ...).",
    ("event",))
HTTP_REQUEST_SECONDS = DeclaredHistogram(
    "repro_http_request_seconds",
    "HTTP request latency by method and endpoint.",
    ("method", "endpoint"))
HTTP_REQUESTS_BY_CLIENT = DeclaredCounter(
    "repro_http_requests_by_client_total",
    "HTTP requests by X-Client-Id.",
    ("client",))
HTTP_REQUESTS = DeclaredCounter(
    "repro_http_requests_total",
    "HTTP requests by method, endpoint, and response status.",
    ("method", "endpoint", "status"))
JOBS_QUEUE_DEPTH = DeclaredGauge(
    "repro_jobs_queue_depth",
    "Jobs currently waiting in the queue.")
JOBS_TRANSITIONS = DeclaredCounter(
    "repro_jobs_transitions_total",
    "Job lifecycle transitions by destination status.",
    ("status",))
PIPELINE_RUNS = DeclaredCounter(
    "repro_pipeline_runs_total",
    "Completed pipeline runs.",
    ("pipeline",))
PIPELINE_STAGE_SECONDS = DeclaredHistogram(
    "repro_pipeline_stage_seconds",
    "Wall-clock seconds per pipeline stage.",
    ("stage",))
POOL_FALLBACKS = DeclaredCounter(
    "repro_pool_fallbacks_total",
    "Tasks a pool lost that the parent re-ran to completion.")
POOL_RECOVERED_TASKS = DeclaredCounter(
    "repro_pool_recovered_tasks_total",
    "Tasks re-run to completion across a respawn.")
POOL_RESPAWNS = DeclaredCounter(
    "repro_pool_respawns_total",
    "Executor rebuilds after worker casualties.")
POOL_TASKS = DeclaredCounter(
    "repro_pool_tasks_total",
    "Tasks submitted to the pool.")
POOL_TIMEOUT_RERUNS = DeclaredCounter(
    "repro_pool_timeout_reruns_total",
    "Straggler tasks re-run in the parent process.")
ROUTER_SWAPS = DeclaredCounter(
    "repro_router_swaps_total",
    "SWAP gates inserted by routing passes.",
    ("router",))
SAT_CONFLICTS = DeclaredCounter(
    "repro_sat_conflicts_total",
    "CDCL conflicts per swap bound k.",
    ("bound",))
SAT_RESTARTS = DeclaredCounter(
    "repro_sat_restarts_total",
    "CDCL restarts per swap bound k.",
    ("bound",))
SAT_SOLVES = DeclaredCounter(
    "repro_sat_solves_total",
    "Exact QLS searches by outcome and mode.",
    ("outcome", "mode"))
SERVICE_COMPILE_SECONDS = DeclaredHistogram(
    "repro_service_compile_seconds",
    "Wall-clock seconds per cache-miss compilation.")
SERVICE_REQUESTS = DeclaredCounter(
    "repro_service_requests_total",
    "Compile requests resolved by the service.",
    ("result",))


__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "DECLARED", "DeclaredCounter", "DeclaredGauge", "DeclaredHistogram",
    "enable", "disable", "active", "enabled", "disabled",
    "merge_active", "snapshot_delta", "parse_prometheus_text",
]
