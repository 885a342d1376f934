"""repro.obs — unified observability: metrics, tracing, sinks, dashboard.

The library is instrumented everywhere (solvers, RL trainers, the DES,
the cluster controller) but collection is **off by default**: every
call site talks to null objects whose methods do nothing, so the
steady-state cost is one no-op attribute call per sample.

Typical use::

    from repro import obs

    with obs.observed() as session:
        result = repro.get_solver("tacc", seed=1).solve(problem)
        report = repro.simulate_assignment(result.assignment, duration_s=10.0)
        print(session.render_dashboard())
        session.write_jsonl("run.jsonl")

or process-wide from the CLI: ``python -m repro solve --obs run.jsonl
...`` then ``python -m repro obs run.jsonl``.

Metric names live in :mod:`repro.obs.names`; the catalog with
semantics is ``docs/observability.md``.
"""

from repro.obs import names
from repro.obs.dashboard import render_dashboard, render_span_tree
from repro.obs.ledger import (
    NullLedger,
    RunLedger,
    new_run_id,
    read_ledger,
    render_ledger_summary,
    summarize_ledger,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
    default_buckets,
    snapshot_delta,
)
from repro.obs.profile import merge_profiles, profile_call, render_profile
from repro.obs.runtime import (
    ObsSession,
    disable,
    disable_tracing,
    enable,
    enable_tracing,
    is_enabled,
    is_tracing,
    ledger,
    ledgered,
    metrics,
    observed,
    spans,
    traced,
    tracer,
    unledgered,
)
from repro.obs.sinks import collect, load_jsonl, to_prometheus_text, write_jsonl
from repro.obs.slo import BurnRateMonitor, SLOConfig, summarize_slo
from repro.obs.trace import (
    NullSpanRecorder,
    SpanRecord,
    SpanRecorder,
    SpanSink,
    TraceContext,
    TraceSampler,
    build_trace,
    context_from_wire,
    critical_path,
    load_span_file,
    load_trace_dir,
    new_trace_id,
    render_critical_path,
    render_waterfall,
    trace_ids,
)

__all__ = [
    "names",
    # instruments & registries
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "default_buckets",
    "snapshot_delta",
    # spans: one record model, in-process and cross-process
    "TraceContext",
    "TraceSampler",
    "SpanRecord",
    "SpanRecorder",
    "NullSpanRecorder",
    "SpanSink",
    "new_trace_id",
    "context_from_wire",
    "build_trace",
    "load_span_file",
    "load_trace_dir",
    "trace_ids",
    "critical_path",
    "render_critical_path",
    "render_waterfall",
    # SLO burn rates
    "SLOConfig",
    "BurnRateMonitor",
    "summarize_slo",
    # runtime switch
    "ObsSession",
    "metrics",
    "tracer",
    "ledger",
    "is_enabled",
    "enable",
    "disable",
    "observed",
    "ledgered",
    "unledgered",
    "spans",
    "is_tracing",
    "enable_tracing",
    "disable_tracing",
    "traced",
    # run ledger
    "RunLedger",
    "NullLedger",
    "new_run_id",
    "read_ledger",
    "summarize_ledger",
    "render_ledger_summary",
    # profiling
    "profile_call",
    "merge_profiles",
    "render_profile",
    # sinks & rendering
    "collect",
    "write_jsonl",
    "load_jsonl",
    "to_prometheus_text",
    "render_dashboard",
    "render_span_tree",
]
