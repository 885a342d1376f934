"""ASCII dashboard: one readable page from a collected obs state.

Takes the plain-dict shape produced by :func:`repro.obs.sinks.collect`
or :func:`repro.obs.sinks.load_jsonl` and renders sections for span
trees (span records stitched by :func:`repro.obs.trace.build_trace`),
counters, gauges, and distribution instruments, reusing the repo's
table/chart helpers so the output matches the experiment tooling.
"""

from __future__ import annotations

import math

from repro.obs.trace import SpanRecord, _walk, build_trace, trace_ids
from repro.utils.ascii_plot import line_chart
from repro.utils.tables import format_table

__all__ = ["render_dashboard", "render_span_tree"]


def _fmt_seconds(seconds: float) -> str:
    if not math.isfinite(seconds):
        return "n/a"
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"


def render_span_tree(spans: "list[dict]") -> str:
    """Indented listing of span records (``SpanRecord.to_dict`` payloads),
    stitched into trees, with durations and status."""
    records = [SpanRecord.from_dict(payload) for payload in spans]
    by_trace: "dict[str, list[SpanRecord]]" = {}
    for record in records:
        by_trace.setdefault(record.trace_id, []).append(record)
    rows: list[list] = []
    for trace_id in trace_ids(records):
        roots, _ = build_trace(by_trace[trace_id], trace_id)
        for root in roots:
            for node, depth in _walk(root):
                record = node.record
                rows.append([
                    "  " * depth + record.name,
                    _fmt_seconds(record.duration_ms / 1e3),
                    record.status,
                ])
    return format_table(["span", "duration", "status"], rows)


def _distribution_rows(group: dict) -> list[list]:
    rows = []
    for key, summary in group.items():
        rows.append(
            [
                key,
                int(summary.get("count", 0)),
                summary.get("mean", math.nan),
                summary.get("p50", math.nan),
                summary.get("p90", math.nan),
                summary.get("p99", math.nan),
                summary.get("max", math.nan),
            ]
        )
    return rows


def _bucket_chart(key: str, summary: dict, width: int) -> "str | None":
    """Per-bucket (non-cumulative) count chart for one histogram."""
    buckets = summary.get("buckets") or []
    points: list[tuple[float, float]] = []
    previous = 0
    for bound, cumulative in buckets:
        count = cumulative - previous
        previous = cumulative
        if count > 0 and math.isfinite(bound):
            points.append((float(bound), float(count)))
    if len(points) < 2:
        return None
    return line_chart(
        {key: points},
        width=width,
        height=10,
        title=f"distribution: {key}",
        x_label="bucket upper bound",
        y_label="count",
    )


def _render_engine_section(metrics: dict) -> "str | None":
    """Sweep-engine summary: jobs, cache hit ratio, queue wait, utilization."""
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    timers = metrics.get("timers", {})
    touched = any(
        key.startswith("engine/")
        for group in (counters, gauges, timers)
        for key in group
    )
    if not touched:
        return None
    rows: list[list] = []
    for label, key in (
        ("jobs scheduled", "engine/jobs_scheduled"),
        ("jobs completed", "engine/jobs_completed"),
        ("jobs failed", "engine/jobs_failed"),
        ("cache hits", "engine/cache_hits"),
        ("cache misses", "engine/cache_misses"),
    ):
        if key in counters:
            rows.append([label, int(counters[key])])
    hits = counters.get("engine/cache_hits", 0)
    misses = counters.get("engine/cache_misses", 0)
    if hits + misses > 0:
        rows.append(["cache hit ratio", f"{hits / (hits + misses):.0%}"])
    wait = timers.get("engine/queue_wait_s")
    if wait and wait.get("count", 0) > 0:
        rows.append(["queue wait p50", _fmt_seconds(wait.get("p50", math.nan))])
        rows.append(["queue wait max", _fmt_seconds(wait.get("max", math.nan))])
    runtime = timers.get("engine/job_runtime_s")
    if runtime and runtime.get("count", 0) > 0:
        rows.append(["job runtime p50", _fmt_seconds(runtime.get("p50", math.nan))])
        rows.append(["job runtime max", _fmt_seconds(runtime.get("max", math.nan))])
    if "engine/worker_utilization" in gauges:
        rows.append(
            ["worker utilization", f"{float(gauges['engine/worker_utilization']):.0%}"]
        )
    if not rows:
        return None
    return format_table(["engine", "value"], rows)


def _sum_metric(counters: dict, name: str) -> float:
    """Total across the unlabeled series and every labeled variant."""
    return sum(
        value
        for key, value in counters.items()
        if key == name or key.startswith(name + "{")
    )


def _label_breakdown(counters: dict, name: str, label: str) -> str:
    """Compact ``value=count`` listing for one labeled counter family."""
    prefix = f"{name}{{{label}="
    parts = [
        f"{key[len(prefix):-1]}={int(value)}"
        for key, value in sorted(counters.items())
        if key.startswith(prefix)
    ]
    return " ".join(parts)


def _render_serve_section(metrics: dict) -> "str | None":
    """Serving summary: admission, batching, latency, re-optimization."""
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    timers = metrics.get("timers", {})
    histograms = metrics.get("histograms", {})
    touched = any(
        key.startswith("serve/")
        for group in (counters, gauges, timers, histograms)
        for key in group
    )
    if not touched:
        return None
    rows: list[list] = []
    requests = _sum_metric(counters, "serve/requests")
    admitted = _sum_metric(counters, "serve/admitted")
    rejected = _sum_metric(counters, "serve/rejected")
    if requests:
        rows.append(["requests", int(requests)])
    if admitted or rejected:
        rows.append(["admitted", int(admitted)])
        rows.append(["rejected", int(rejected)])
        rows.append(["rejection ratio", f"{rejected / (admitted + rejected):.1%}"])
    for label, key in (
        ("assigns", "serve/assigned"),
        ("releases", "serve/released"),
        ("errors", "serve/errors"),
        ("deadline exceeded", "serve/deadline_exceeded"),
        ("client retries", "serve/client_retries"),
        ("retry budget exhausted", "serve/retry_budget_exhausted"),
    ):
        if key in counters:
            rows.append([label, int(counters[key])])
    flushes = _label_breakdown(counters, "serve/batch_flushes", "reason")
    if flushes:
        rows.append(["batch flushes", flushes])
    batch = histograms.get("serve/batch_size")
    if batch and batch.get("count", 0) > 0:
        rows.append(["batch size p50", f"{batch.get('p50', math.nan):.3g}"])
        rows.append(["batch size max", f"{batch.get('max', math.nan):.3g}"])
    latency = timers.get("serve/assign_latency_s")
    if latency and latency.get("count", 0) > 0:
        rows.append(["assign latency p50", _fmt_seconds(latency.get("p50", math.nan))])
        rows.append(["assign latency p99", _fmt_seconds(latency.get("p99", math.nan))])
    if "serve/queue_depth" in gauges:
        rows.append(["queue depth", int(gauges["serve/queue_depth"])])
    if "serve/active_devices" in gauges:
        rows.append(["active devices", int(gauges["serve/active_devices"])])
    reopt = _label_breakdown(counters, "serve/reopt_runs", "outcome")
    if reopt:
        rows.append(["reopt runs", reopt])
    if "serve/reopt_gain_ms" in gauges:
        rows.append(["last reopt gain", f"{float(gauges['serve/reopt_gain_ms']):.3f} ms"])
    if not rows:
        return None
    return format_table(["serve", "value"], rows)


def _render_shard_section(metrics: dict) -> "str | None":
    """Sharded-tier summary: routing, failover, and migration traffic."""
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    timers = metrics.get("timers", {})
    touched = any(
        key.startswith("shard/")
        for group in (counters, gauges, timers)
        for key in group
    )
    if not touched:
        return None
    rows: list[list] = []
    routed = _sum_metric(counters, "shard/routed")
    if routed:
        rows.append(["routed", int(routed)])
    for label, key in (
        ("spillovers", "shard/spillovers"),
        ("unroutable", "shard/unroutable"),
        ("migrated devices", "shard/migrated_devices"),
        ("migration lost", "shard/migration_lost_devices"),
        ("deadline timeouts", "shard/deadline_timeouts"),
    ):
        if key in counters:
            rows.append([label, int(counters[key])])
    hedges = _sum_metric(counters, "shard/hedged_requests")
    if hedges:
        wins = _sum_metric(counters, "shard/hedge_wins")
        rows.append(["hedges (wins)", f"{int(hedges)} ({int(wins)})"])
    cleanups = _sum_metric(counters, "shard/hedge_cleanups")
    if cleanups:
        rows.append(["hedge cleanups", int(cleanups)])
    ghosts = _sum_metric(counters, "shard/ghost_releases")
    if ghosts:
        rows.append(["ghost releases", int(ghosts)])
    ejections = _sum_metric(counters, "shard/latency_ejections")
    if ejections:
        rows.append(["latency ejections", int(ejections)])
        by_shard = _label_breakdown(counters, "shard/latency_ejections",
                                    "shard")
        if by_shard:
            rows.append(["ejections by shard", by_shard])
    trips = _sum_metric(counters, "shard/breaker_trips")
    if trips:
        rows.append(["breaker trips", int(trips)])
        by_shard = _label_breakdown(counters, "shard/breaker_trips", "shard")
        if by_shard:
            rows.append(["trips by shard", by_shard])
    rounds = _label_breakdown(counters, "shard/migration_rounds", "outcome")
    if rounds:
        rows.append(["migration rounds", rounds])
    latency = timers.get("shard/route_latency_s")
    if latency and latency.get("count", 0) > 0:
        rows.append(["route latency p50", _fmt_seconds(latency.get("p50", math.nan))])
        rows.append(["route latency p99", _fmt_seconds(latency.get("p99", math.nan))])
    if "shard/active_devices" in gauges:
        rows.append(["active devices", int(gauges["shard/active_devices"])])
    if not rows:
        return None
    return format_table(["shard", "value"], rows)


def _render_netem_section(metrics: dict) -> "str | None":
    """Network-emulation summary: what chaos actually hit the wire."""
    counters = metrics.get("counters", {})
    timers = metrics.get("timers", {})
    rows: list[list] = []
    for label, key in (
        ("dropped", "netem/dropped_messages"),
        ("partition drops", "netem/partition_drops"),
        ("delayed", "netem/delayed_messages"),
        ("duplicated", "netem/duplicated_messages"),
        ("reordered", "netem/reordered_messages"),
    ):
        if key in counters:
            rows.append([label, int(counters[key])])
    injected = timers.get("netem/injected_delay_s")
    if injected and injected.get("count", 0) > 0:
        rows.append(["injected delay p50",
                     _fmt_seconds(injected.get("p50", math.nan))])
        rows.append(["injected delay p99",
                     _fmt_seconds(injected.get("p99", math.nan))])
    if not rows:
        return None
    return format_table(["netem", "value"], rows)


def _render_contention_section(metrics: dict) -> "str | None":
    """Contention-model summary: evaluations and link pressure."""
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    rows: list[list] = []
    for label, key in (
        ("full evaluations", "contention/evaluations"),
        ("incremental deltas", "contention/delta_evals"),
    ):
        if key in counters:
            rows.append([label, int(counters[key])])
    if "contention/max_utilization" in gauges:
        rows.append(
            ["max link utilization",
             f"{float(gauges['contention/max_utilization']):.3f}"]
        )
    if "contention/saturated_links" in gauges:
        rows.append(
            ["saturated links", int(gauges["contention/saturated_links"])]
        )
    if not rows:
        return None
    return format_table(["contention", "value"], rows)


def _render_wal_section(metrics: dict) -> "str | None":
    """Durability summary: journal traffic and crash recoveries."""
    counters = metrics.get("counters", {})
    timers = metrics.get("timers", {})
    rows: list[list] = []
    for label, key in (
        ("records appended", "wal/records_appended"),
        ("snapshots written", "wal/snapshots_written"),
        ("records replayed", "wal/records_replayed"),
        ("recoveries", "wal/recoveries"),
    ):
        if key in counters:
            rows.append([label, int(counters[key])])
    recovery = timers.get("wal/recovery_time_s")
    if recovery and recovery.get("count", 0) > 0:
        rows.append(["recovery time p50",
                     _fmt_seconds(recovery.get("p50", math.nan))])
        rows.append(["recovery time max",
                     _fmt_seconds(recovery.get("max", math.nan))])
    if not rows:
        return None
    return format_table(["wal", "value"], rows)


def _render_trace_section(metrics: dict) -> "str | None":
    """Tracing summary: sampled traces and exported spans."""
    counters = metrics.get("counters", {})
    rows: list[list] = []
    for label, key in (
        ("traces sampled", "trace/traces_sampled"),
        ("spans exported", "trace/spans_exported"),
    ):
        if key in counters:
            rows.append([label, int(counters[key])])
    if not rows:
        return None
    return format_table(["trace", "value"], rows)


def _render_slo_section(metrics: dict) -> "str | None":
    """Error-budget summary: multi-window burn rates and pages."""
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    rows: list[list] = []
    for label, key in (
        ("fast burn rate", "slo/fast_burn_rate"),
        ("slow burn rate", "slo/slow_burn_rate"),
    ):
        if key in gauges:
            rows.append([label, f"{float(gauges[key]):.2f}x"])
    if "slo/pages" in counters:
        rows.append(["pages fired", int(counters["slo/pages"])])
    if not rows:
        return None
    return format_table(["slo", "value"], rows)


def render_dashboard(data: dict, width: int = 64) -> str:
    """Render the full dashboard; sections with no data are omitted."""
    metrics = data.get("metrics", {})
    spans = data.get("spans", [])
    sections: list[str] = ["repro observability dashboard", "=" * 29]

    if spans:
        sections.append("")
        sections.append("## spans")
        sections.append(render_span_tree(spans))

    engine_section = _render_engine_section(metrics)
    if engine_section:
        sections.append("")
        sections.append("## engine")
        sections.append(engine_section)

    serve_section = _render_serve_section(metrics)
    if serve_section:
        sections.append("")
        sections.append("## serve")
        sections.append(serve_section)

    shard_section = _render_shard_section(metrics)
    if shard_section:
        sections.append("")
        sections.append("## shard")
        sections.append(shard_section)

    netem_section = _render_netem_section(metrics)
    if netem_section:
        sections.append("")
        sections.append("## netem")
        sections.append(netem_section)

    contention_section = _render_contention_section(metrics)
    if contention_section:
        sections.append("")
        sections.append("## contention")
        sections.append(contention_section)

    wal_section = _render_wal_section(metrics)
    if wal_section:
        sections.append("")
        sections.append("## wal")
        sections.append(wal_section)

    trace_section = _render_trace_section(metrics)
    if trace_section:
        sections.append("")
        sections.append("## trace")
        sections.append(trace_section)

    slo_section = _render_slo_section(metrics)
    if slo_section:
        sections.append("")
        sections.append("## slo")
        sections.append(slo_section)

    counters = metrics.get("counters", {})
    if counters:
        sections.append("")
        sections.append("## counters")
        sections.append(
            format_table(
                ["metric", "total"],
                [[key, value] for key, value in counters.items()],
            )
        )

    gauges = metrics.get("gauges", {})
    if gauges:
        sections.append("")
        sections.append("## gauges")
        sections.append(
            format_table(
                ["metric", "value"],
                [[key, value] for key, value in gauges.items()],
            )
        )

    distributions = {**metrics.get("histograms", {}), **metrics.get("timers", {})}
    if distributions:
        sections.append("")
        sections.append("## distributions (histograms & timers)")
        sections.append(
            format_table(
                ["metric", "count", "mean", "p50", "p90", "p99", "max"],
                _distribution_rows(distributions),
                float_format=".4g",
            )
        )
        # chart the busiest distribution so the page has one picture
        busiest = max(
            distributions.items(), key=lambda item: item[1].get("count", 0), default=None
        )
        if busiest is not None and busiest[1].get("count", 0) > 0:
            chart = _bucket_chart(busiest[0], busiest[1], width)
            if chart:
                sections.append("")
                sections.append(chart)

    if len(sections) == 2:
        sections.append("")
        sections.append("(no observability data collected)")
    return "\n".join(sections)
