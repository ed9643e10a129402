"""Unit tests for the metrics registry: series, snapshot/merge, render."""

import pytest

from repro.obs import metrics as obs
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    parse_prometheus_text,
    snapshot_delta,
)


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_events_total", "help text")
        c.inc(event="hit")
        c.inc(3, event="miss")
        c.inc(event="hit")
        assert c.value(event="hit") == 2
        assert c.value(event="miss") == 3
        assert c.value(event="other") == 0
        assert c.total() == 5

    def test_counters_only_go_up(self):
        c = MetricsRegistry().counter("repro_x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_label_order_is_canonical(self):
        c = MetricsRegistry().counter("repro_x_total")
        c.inc(b="2", a="1")
        assert c.value(a="1", b="2") == 1

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("repro-bad-name")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("repro_depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6


class TestHistogram:
    def test_observe_buckets_sum_count(self):
        h = MetricsRegistry().histogram("repro_seconds",
                                        buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 5
        assert h.sum() == pytest.approx(56.05)
        key = ()
        assert h._series[key]["counts"] == [1, 2, 1]  # 50.0 overflows

    def test_default_buckets_sorted(self):
        h = MetricsRegistry().histogram("repro_seconds")
        assert h.buckets == tuple(sorted(DEFAULT_BUCKETS))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_seconds", buckets=())


class TestRegistry:
    def test_create_or_get_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_x_total") is \
            registry.counter("repro_x_total")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("repro_x_total")

    def test_snapshot_merge_round_trip(self):
        source = MetricsRegistry()
        source.counter("repro_events_total").inc(4, event="hit")
        source.gauge("repro_depth").set(7)
        source.histogram("repro_seconds", buckets=(1.0,)).observe(0.5)
        clone = MetricsRegistry()
        clone.merge(source.snapshot())
        assert clone.render_prometheus() == source.render_prometheus()

    def test_merge_is_additive_for_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total").inc(2, event="hit")
        registry.histogram("repro_seconds", buckets=(1.0,)).observe(0.5)
        registry.merge(registry.snapshot())  # fold itself back in
        assert registry.counter("repro_events_total").value(event="hit") == 4
        assert registry.histogram("repro_seconds").count() == 2

    def test_merge_gauge_last_write_wins(self):
        source = MetricsRegistry()
        source.gauge("repro_depth").set(3)
        target = MetricsRegistry()
        target.gauge("repro_depth").set(9)
        target.merge(source.snapshot())
        assert target.gauge("repro_depth").value() == 3

    def test_merge_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            MetricsRegistry().merge({"repro_x": {"kind": "summary",
                                                 "series": {}}})


class TestSnapshotDelta:
    def test_counter_growth_only(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_events_total")
        counter.inc(2, event="hit")
        before = registry.snapshot()
        counter.inc(3, event="hit")
        counter.inc(event="miss")
        registry.gauge("repro_depth").set(9)
        delta = snapshot_delta(before, registry.snapshot())
        series = delta["repro_events_total"]["series"]
        assert series['[["event", "hit"]]'] == 3
        assert series['[["event", "miss"]]'] == 1
        assert "repro_depth" not in delta  # gauges excluded

    def test_unchanged_series_dropped(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total").inc(event="hit")
        snap = registry.snapshot()
        assert snapshot_delta(snap, snap) == {}

    def test_histogram_delta_merges_back(self):
        registry = MetricsRegistry()
        h = registry.histogram("repro_seconds", buckets=(1.0, 10.0))
        h.observe(0.5)
        before = registry.snapshot()
        h.observe(5.0)
        delta = snapshot_delta(before, registry.snapshot())
        target = MetricsRegistry()
        target.merge(delta)
        merged = target.histogram("repro_seconds")
        assert merged.count() == 1
        assert merged.sum() == pytest.approx(5.0)


class TestPrometheusText:
    def test_render_parses_and_escapes(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total", "what happened") \
            .inc(5, path='tricky"value\\x')
        text = registry.render_prometheus()
        assert "# HELP repro_events_total what happened" in text
        assert "# TYPE repro_events_total counter" in text
        parsed = parse_prometheus_text(text)
        labels = '{path="tricky\\"value\\\\x"}'
        assert parsed["repro_events_total"][labels] == 5

    def test_histogram_renders_cumulative_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("repro_seconds", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        parsed = parse_prometheus_text(registry.render_prometheus())
        buckets = parsed["repro_seconds_bucket"]
        assert buckets['{le="1"}'] == 1
        assert buckets['{le="10"}'] == 2  # cumulative
        assert buckets['{le="+Inf"}'] == 3
        assert parsed["repro_seconds_count"][""] == 3
        assert parsed["repro_seconds_sum"][""] == pytest.approx(55.5)

    def test_parse_handles_braces_inside_label_values(self):
        # regression: the /v1/jobs/{id} endpoint label contains ``}``
        text = 'repro_http_requests_total{endpoint="/v1/jobs/{id}"} 4\n'
        parsed = parse_prometheus_text(text)
        assert parsed["repro_http_requests_total"][
            '{endpoint="/v1/jobs/{id}"}'] == 4

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus_text("!!! not a sample\n")

    def test_integral_values_render_without_decimal(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc(3)
        assert "repro_x_total 3\n" in registry.render_prometheus()


class TestArming:
    def test_declared_metrics_are_noops_when_disarmed(self):
        with obs.disabled():
            obs.POOL_TASKS.inc()
            obs.JOBS_QUEUE_DEPTH.set(3)
            obs.SERVICE_COMPILE_SECONDS.observe(0.5)
            assert obs.active() is None

    def test_enabled_context_restores_previous(self):
        with obs.disabled():
            with obs.enabled() as registry:
                assert obs.active() is registry
                obs.POOL_TASKS.inc()
                assert registry.counter(obs.POOL_TASKS.name).total() == 1
            assert obs.active() is None

    def test_enable_is_idempotent_without_argument(self):
        with obs.disabled():
            first = obs.enable()
            assert obs.enable() is first
            obs.disable()
            assert obs.active() is None

    def test_merge_active_noop_when_disarmed(self):
        source = MetricsRegistry()
        source.counter("repro_x_total").inc()
        with obs.disabled():
            obs.merge_active(source.snapshot())  # must not raise
        with obs.enabled() as registry:
            obs.merge_active(source.snapshot())
            assert registry.counter("repro_x_total").total() == 1
            obs.merge_active(None)  # empty piggyback
            assert registry.counter("repro_x_total").total() == 1


#: ``# HELP``/``# TYPE`` lines of every declared metric, as rendered by
#: ``GET /v1/metrics``.  perfbench and dashboards read these names: a
#: change here is an interface change.
PROMETHEUS_INTERFACE = """\
# HELP repro_cache_events_total Result-cache events (hit, miss, eviction, quarantine, ...).
# TYPE repro_cache_events_total counter
# HELP repro_http_request_seconds HTTP request latency by method and endpoint.
# TYPE repro_http_request_seconds histogram
# HELP repro_http_requests_by_client_total HTTP requests by X-Client-Id.
# TYPE repro_http_requests_by_client_total counter
# HELP repro_http_requests_total HTTP requests by method, endpoint, and response status.
# TYPE repro_http_requests_total counter
# HELP repro_jobs_queue_depth Jobs currently waiting in the queue.
# TYPE repro_jobs_queue_depth gauge
# HELP repro_jobs_transitions_total Job lifecycle transitions by destination status.
# TYPE repro_jobs_transitions_total counter
# HELP repro_pipeline_runs_total Completed pipeline runs.
# TYPE repro_pipeline_runs_total counter
# HELP repro_pipeline_stage_seconds Wall-clock seconds per pipeline stage.
# TYPE repro_pipeline_stage_seconds histogram
# HELP repro_pool_fallbacks_total Tasks a pool lost that the parent re-ran to completion.
# TYPE repro_pool_fallbacks_total counter
# HELP repro_pool_recovered_tasks_total Tasks re-run to completion across a respawn.
# TYPE repro_pool_recovered_tasks_total counter
# HELP repro_pool_respawns_total Executor rebuilds after worker casualties.
# TYPE repro_pool_respawns_total counter
# HELP repro_pool_tasks_total Tasks submitted to the pool.
# TYPE repro_pool_tasks_total counter
# HELP repro_pool_timeout_reruns_total Straggler tasks re-run in the parent process.
# TYPE repro_pool_timeout_reruns_total counter
# HELP repro_router_swaps_total SWAP gates inserted by routing passes.
# TYPE repro_router_swaps_total counter
# HELP repro_sat_conflicts_total CDCL conflicts per swap bound k.
# TYPE repro_sat_conflicts_total counter
# HELP repro_sat_restarts_total CDCL restarts per swap bound k.
# TYPE repro_sat_restarts_total counter
# HELP repro_sat_solves_total Exact QLS searches by outcome and mode.
# TYPE repro_sat_solves_total counter
# HELP repro_service_compile_seconds Wall-clock seconds per cache-miss compilation.
# TYPE repro_service_compile_seconds histogram
# HELP repro_service_requests_total Compile requests resolved by the service.
# TYPE repro_service_requests_total counter
"""


def _drive(metric, **labels):
    """One call of ``metric``'s kind-specific method."""
    if metric.kind == "counter":
        metric.inc(**labels)
    elif metric.kind == "gauge":
        metric.set(1, **labels)
    else:
        metric.observe(0.5, **labels)


class TestDeclaredMetrics:
    def test_prometheus_interface_is_pinned(self):
        with obs.enabled() as registry:
            for metric in obs.DECLARED.values():
                _drive(metric, **{label: "x" for label in metric.labels})
            text = registry.render_prometheus()
        comments = [line for line in text.splitlines()
                    if line.startswith("#")]
        assert "\n".join(comments) + "\n" == PROMETHEUS_INTERFACE

    @pytest.mark.parametrize("labels", [
        {"endpoint": "/v1/compile", "status": "200"},            # missing
        {"method": "GET", "endpoint": "/", "status": "200",
         "client": "c"},                                          # extra
        {"method": "GET", "path": "/", "status": "200"},         # renamed
    ], ids=["missing", "extra", "renamed"])
    def test_wrong_label_set_raises_when_armed(self, labels):
        with obs.enabled() as registry:
            with pytest.raises(ValueError, match="takes labels"):
                obs.HTTP_REQUESTS.inc(**labels)
            assert registry.names() == []

    def test_wrong_label_set_is_silent_when_disarmed(self):
        with obs.disabled():
            obs.HTTP_REQUESTS.inc(method="GET", path="/", status="200")
            obs.POOL_TASKS.inc(extra="label")

    def test_label_order_does_not_matter(self):
        with obs.enabled() as registry:
            obs.HTTP_REQUESTS.inc(status="200", endpoint="/", method="GET")
            assert registry.counter(obs.HTTP_REQUESTS.name).value(
                method="GET", endpoint="/", status="200") == 1

    def test_kind_methods_are_closed(self):
        with pytest.raises(AttributeError):
            obs.POOL_TASKS.observe(1.0)  # a counter has no observe
        with pytest.raises(AttributeError):
            obs.POOL_TASKZ.inc()  # a misspelled metric

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ValueError, match="declared twice"):
            obs.DeclaredCounter(obs.POOL_TASKS.name, "again")
