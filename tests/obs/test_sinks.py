"""JSON-lines round trip and Prometheus text-format export."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import SerializationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import (
    collect,
    escape_label_value,
    load_jsonl,
    prometheus_from_collected,
    prometheus_name,
    to_prometheus_text,
    write_jsonl,
)
from repro.obs.trace import MemorySink, SpanRecorder


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("solver/solves", {"solver": "tacc"}).inc(3)
    registry.gauge("rl/epsilon").set(0.05)
    hist = registry.histogram("sim/queue_wait_s", buckets=[0.01, 0.1])
    for value in (0.005, 0.05, 0.5):
        hist.observe(value)
    registry.timer("solver/runtime_s").observe(1.25)
    return registry


class TestJsonl:
    def test_round_trip(self, tmp_path):
        registry = _populated_registry()
        recorder = SpanRecorder(MemorySink(), "p")
        with recorder.span("solve/tacc"):
            with recorder.span("rl/train"):
                pass
        path = write_jsonl(tmp_path / "run.jsonl", registry, recorder.sink)
        data = load_jsonl(path)
        metrics = data["metrics"]
        assert metrics["counters"]["solver/solves{solver=tacc}"] == 3
        assert metrics["gauges"]["rl/epsilon"] == 0.05
        wait = metrics["histograms"]["sim/queue_wait_s"]
        assert wait["count"] == 3
        assert wait["buckets"][-1][0] == math.inf
        assert data["spans"] == [record.to_dict() for record in recorder.sink]
        child, root = data["spans"]
        assert (root["name"], child["name"]) == ("solve/tacc", "rl/train")
        assert child["parent_id"] == root["span_id"]

    def test_version_1_span_line_is_rejected(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text(
            '{"type": "meta", "format": "repro-obs", "version": 1}\n'
            '{"type": "span", "tree": {"name": "solve/tacc", "start_s": 0.0,'
            ' "duration_s": 0.1, "status": "ok"}}\n',
            encoding="utf-8",
        )
        with pytest.raises(SerializationError, match="version-1 span"):
            load_jsonl(path)

    def test_every_line_is_valid_json(self, tmp_path):
        path = write_jsonl(tmp_path / "run.jsonl", _populated_registry())
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert {r["type"] for r in records[1:]} <= {"counter", "gauge", "histogram", "timer"}

    def test_collect_matches_loaded_shape(self, tmp_path):
        registry = _populated_registry()
        live = collect(registry)
        loaded = load_jsonl(write_jsonl(tmp_path / "run.jsonl", registry))
        assert live["metrics"]["counters"] == loaded["metrics"]["counters"]
        assert live["metrics"]["gauges"] == loaded["metrics"]["gauges"]

    def test_non_finite_values_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("m/inf").inc(math.inf)
        registry.gauge("m/nan").set(math.nan)
        registry.gauge("m/neg").set(-math.inf)
        loaded = load_jsonl(write_jsonl(tmp_path / "run.jsonl", registry))
        metrics = loaded["metrics"]
        assert math.isinf(metrics["counters"]["m/inf"])
        assert metrics["counters"]["m/inf"] > 0
        assert math.isnan(metrics["gauges"]["m/nan"])
        assert metrics["gauges"]["m/neg"] == -math.inf
        # downstream consumers keep working on the revived floats
        assert "repro_m_inf_total +Inf" in prometheus_from_collected(loaded)


class TestPrometheus:
    def test_name_sanitization(self):
        assert prometheus_name("sim/queue_wait_s") == "repro_sim_queue_wait_s"
        assert prometheus_name("solver/solves", "_total") == "repro_solver_solves_total"

    def test_label_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_escaped_labels_in_output(self):
        registry = MetricsRegistry()
        registry.counter("c", {"k": 'quo"te\nnew\\line'}).inc()
        text = to_prometheus_text(registry)
        assert 'k="quo\\"te\\nnew\\\\line"' in text
        assert "\n\n" not in text  # the raw newline never leaks into a line

    def test_counter_gauge_lines(self):
        text = to_prometheus_text(_populated_registry())
        assert "# TYPE repro_solver_solves_total counter" in text
        assert 'repro_solver_solves_total{solver="tacc"} 3.0' in text
        assert "# TYPE repro_rl_epsilon gauge" in text
        assert "repro_rl_epsilon 0.05" in text

    def test_histogram_triple_with_inf_bucket(self):
        text = to_prometheus_text(_populated_registry())
        assert 'repro_sim_queue_wait_s_bucket{le="0.01"} 1' in text
        assert 'repro_sim_queue_wait_s_bucket{le="0.1"} 2' in text
        assert 'repro_sim_queue_wait_s_bucket{le="+Inf"} 3' in text
        assert "repro_sim_queue_wait_s_count 3" in text

    def test_from_collected_matches_live_export(self, tmp_path):
        registry = _populated_registry()
        live = to_prometheus_text(registry)
        loaded = prometheus_from_collected(
            load_jsonl(write_jsonl(tmp_path / "run.jsonl", registry))
        )
        assert sorted(live.splitlines()) == sorted(loaded.splitlines())
