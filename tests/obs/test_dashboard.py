"""Dashboard rendering from collected and loaded data."""

from __future__ import annotations

from repro.obs.dashboard import render_dashboard, render_span_tree
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import collect
from repro.obs.trace import MemorySink, SpanRecord, SpanRecorder


def _record(trace_id, span_id, parent_id, name, start_ms, duration_ms,
            status="ok"):
    return SpanRecord(
        trace_id=trace_id, span_id=span_id, parent_id=parent_id, name=name,
        process="p", start_ms=start_ms, duration_ms=duration_ms,
        status=status,
    ).to_dict()


#: one TACC solve inside a DES run, then a second root whose child
#: failed — listed in finish order, as a session records them
_GOLDEN_RECORDS = [
    _record("p:1", "p:3", "p:2", "solve/tacc/train", 1000.5, 790.1234),
    _record("p:1", "p:4", "p:2", "solve/tacc/polish", 1790.7, 21.9),
    _record("p:1", "p:2", "p:1", "solve/tacc", 1000.2, 812.4),
    _record("p:1", "p:1", "", "sim/run", 1000.0, 2500.0),
    _record("p:5", "p:6", "p:5", "solve/tacc", 4000.1, 0.004, "error:ValueError"),
    _record("p:5", "p:5", "", "cluster/degraded", 4000.0, 0.5, "error:ValueError"),
]

#: the same trees rendered by the nested-tree renderer this one
#: replaced (output of the span-tree renderer before span records)
_GOLDEN_SECTION = "\n".join([
    'span                   duration   status          ',
    '---------------------  ---------  ----------------',
    'sim/run                2.500 s    ok              ',
    '  solve/tacc           812.40 ms  ok              ',
    '    solve/tacc/train   790.12 ms  ok              ',
    '    solve/tacc/polish  21.90 ms   ok              ',
    'cluster/degraded       500.0 us   error:ValueError',
    '  solve/tacc           4.0 us     error:ValueError',
])


class TestRenderSpanTree:
    def test_indents_children(self):
        recorder = SpanRecorder(MemorySink(), "p")
        with recorder.span("root"):
            with recorder.span("child"):
                pass
        text = render_span_tree([record.to_dict() for record in recorder.sink])
        lines = text.splitlines()
        root_line = next(line for line in lines if "root" in line)
        child_line = next(line for line in lines if "child" in line)
        assert root_line.startswith("root")
        assert child_line.startswith("  child")

    def test_error_status_visible(self):
        record = _record("p:1", "p:1", "", "x", 0.0, 500.0, "error:ValueError")
        assert "error:ValueError" in render_span_tree([record])

    def test_golden_matches_the_nested_tree_renderer(self):
        assert render_span_tree(_GOLDEN_RECORDS) == _GOLDEN_SECTION
        text = render_dashboard({"metrics": {}, "spans": _GOLDEN_RECORDS})
        assert "## spans\n" + _GOLDEN_SECTION in text


class TestRenderDashboard:
    def test_empty_data_says_so(self):
        assert "no observability data" in render_dashboard({"metrics": {}, "spans": []})

    def test_all_sections_render(self):
        registry = MetricsRegistry()
        registry.counter("rl/episodes", {"solver": "tacc"}).inc(40)
        registry.gauge("rl/epsilon").set(0.05)
        hist = registry.histogram("sim/queue_wait_s")
        for i in range(50):
            hist.observe(i / 1000.0)
        recorder = SpanRecorder(MemorySink(), "p")
        with recorder.span("solve/tacc"):
            pass
        text = render_dashboard(collect(registry, recorder.sink))
        assert "## spans" in text
        assert "solve/tacc" in text
        assert "## counters" in text
        assert "rl/episodes{solver=tacc}" in text
        assert "## gauges" in text
        assert "## distributions" in text
        assert "sim/queue_wait_s" in text

    def test_busiest_distribution_gets_a_chart(self):
        registry = MetricsRegistry()
        hist = registry.histogram("sim/queue_wait_s")
        for i in range(1, 200):
            hist.observe(i / 100.0)
        text = render_dashboard(collect(registry))
        assert "distribution: sim/queue_wait_s" in text

    def test_serve_section_renders(self):
        registry = MetricsRegistry()
        registry.counter("serve/requests", {"op": "assign"}).inc(90)
        registry.counter("serve/requests", {"op": "release"}).inc(10)
        registry.counter("serve/admitted", {"priority": "normal"}).inc(75)
        registry.counter(
            "serve/rejected", {"priority": "low", "reason": "watermark"}
        ).inc(25)
        registry.counter("serve/batch_flushes", {"reason": "size"}).inc(3)
        registry.counter("serve/batch_flushes", {"reason": "deadline"}).inc(2)
        registry.counter("serve/reopt_runs", {"outcome": "swapped"}).inc()
        registry.gauge("serve/queue_depth").set(4)
        registry.gauge("serve/reopt_gain_ms").set(12.5)
        registry.histogram("serve/batch_size").observe(16)
        registry.timer("serve/assign_latency_s").observe(0.002)
        text = render_dashboard(collect(registry))
        assert "## serve" in text
        assert "100" in text  # requests summed across op labels
        assert "25.0%" in text  # rejection ratio
        assert "size=3 deadline=2" in text or "deadline=2 size=3" in text
        assert "swapped=1" in text
        assert "12.5" in text

    def test_serve_section_covers_deadline_and_retry_families(self):
        registry = MetricsRegistry()
        registry.counter("serve/requests", {"op": "assign"}).inc(50)
        registry.counter("serve/deadline_exceeded").inc(4)
        registry.counter("serve/client_retries").inc(9)
        registry.counter("serve/retry_budget_exhausted").inc(2)
        text = render_dashboard(collect(registry))
        assert "deadline exceeded" in text
        assert "client retries" in text
        assert "retry budget exhausted" in text

    def test_trace_and_slo_sections_render(self):
        registry = MetricsRegistry()
        registry.counter("trace/traces_sampled").inc(12)
        registry.counter("trace/spans_exported").inc(48)
        registry.gauge("slo/fast_burn_rate").set(14.5)
        registry.gauge("slo/slow_burn_rate").set(6.25)
        registry.counter("slo/pages").inc(1)
        text = render_dashboard(collect(registry))
        assert "## trace" in text
        assert "traces sampled" in text
        assert "spans exported" in text
        assert "## slo" in text
        assert "14.50x" in text
        assert "6.25x" in text
        assert "pages fired" in text

    def test_trace_and_slo_sections_absent_without_metrics(self):
        registry = MetricsRegistry()
        registry.counter("serve/requests").inc()
        text = render_dashboard(collect(registry))
        assert "## trace" not in text
        assert "## slo" not in text

    def test_shard_section_renders(self):
        registry = MetricsRegistry()
        registry.counter("shard/routed", {"shard": "shard-0", "op": "assign"}).inc(60)
        registry.counter("shard/routed", {"shard": "shard-1", "op": "assign"}).inc(40)
        registry.counter("shard/spillovers").inc(5)
        registry.counter("shard/unroutable").inc(1)
        registry.counter("shard/migrated_devices").inc(8)
        registry.counter("shard/breaker_trips", {"shard": "shard-0"}).inc(2)
        registry.counter("shard/migration_rounds", {"outcome": "moved"}).inc(3)
        registry.gauge("shard/active_devices").set(17)
        registry.timer("shard/route_latency_s").observe(0.001)
        text = render_dashboard(collect(registry))
        assert "## shard" in text
        assert "100" in text  # routed summed across shards and ops
        assert "spillovers" in text
        assert "shard-0=2" in text
        assert "moved=3" in text
        assert "17" in text

    def test_shard_section_absent_without_shard_metrics(self):
        registry = MetricsRegistry()
        registry.counter("serve/requests").inc()
        assert "## shard" not in render_dashboard(collect(registry))

    def test_serve_section_absent_without_serve_metrics(self):
        registry = MetricsRegistry()
        registry.counter("engine/jobs_scheduled").inc()
        assert "## serve" not in render_dashboard(collect(registry))

    def test_sections_without_data_are_omitted(self):
        registry = MetricsRegistry()
        registry.counter("only/counter").inc()
        text = render_dashboard(collect(registry))
        assert "## counters" in text
        assert "## gauges" not in text
        assert "## spans" not in text
