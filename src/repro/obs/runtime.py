"""The process-wide observability switch.

One module-level pair ``(registry, tracer)`` backs every instrumented
call site in the library.  By default both are the null twins, so all
instrumentation compiles down to no-op method calls; :func:`enable`
swaps in live objects and returns the :class:`ObsSession` handle used
to snapshot, export, or render what was collected.  The session's
tracer is a :class:`~repro.obs.trace.SpanRecorder` writing to an
in-memory :class:`~repro.obs.trace.MemorySink` — the same span model
as the cross-process recorder behind :func:`spans`, which is switched
on separately with :func:`enable_tracing` / :func:`traced`.

Instrumented code fetches the live objects with :func:`metrics` and
:func:`tracer` *at the start of a unit of work* (one solve, one sim
run) and keeps local references — one global lookup per unit, one
attribute call per sample.
"""

from __future__ import annotations

import contextlib
import uuid
from pathlib import Path

from repro.obs.ledger import NULL_LEDGER, NullLedger, RunLedger
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.obs.trace import (
    NULL_SPAN_RECORDER,
    SPAN_FILE_PREFIX,
    MemorySink,
    NullSpanRecorder,
    SpanRecord,
    SpanRecorder,
    SpanSink,
    TraceSampler,
)

__all__ = [
    "ObsSession",
    "metrics",
    "tracer",
    "ledger",
    "spans",
    "is_enabled",
    "is_tracing",
    "enable",
    "disable",
    "observed",
    "ledgered",
    "unledgered",
    "enable_tracing",
    "disable_tracing",
    "traced",
]

_registry: "MetricsRegistry | NullRegistry" = NULL_REGISTRY
_tracer: "SpanRecorder | NullSpanRecorder" = NULL_SPAN_RECORDER
_session: "ObsSession | None" = None
_ledger: "RunLedger | NullLedger" = NULL_LEDGER
_spans: "SpanRecorder | NullSpanRecorder" = NULL_SPAN_RECORDER


class ObsSession:
    """A live observability window: a fresh registry and span recorder."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        #: in-process spans; the random process name keeps span ids
        #: unique when pool workers' sessions are adopted by the parent
        self.tracer = SpanRecorder(MemorySink(), f"obs-{uuid.uuid4().hex[:8]}")

    def snapshot(self) -> dict:
        """Current metric values (see :meth:`MetricsRegistry.snapshot`)."""
        return self.registry.snapshot()

    def spans(self) -> "list[SpanRecord]":
        """Finished spans collected so far, in finish order."""
        return list(self.tracer.sink)

    def write_jsonl(self, path: "str | Path") -> Path:
        """Dump metrics + spans as JSON lines (see :mod:`repro.obs.sinks`)."""
        from repro.obs.sinks import write_jsonl

        return write_jsonl(path, self.registry, self.spans())

    def to_prometheus(self) -> str:
        """Render the registry in Prometheus text exposition format."""
        from repro.obs.sinks import to_prometheus_text

        return to_prometheus_text(self.registry)

    def render_dashboard(self, width: int = 64) -> str:
        """ASCII dashboard of the current state."""
        from repro.obs.dashboard import render_dashboard
        from repro.obs.sinks import collect

        return render_dashboard(collect(self.registry, self.spans()), width=width)


def metrics() -> "MetricsRegistry | NullRegistry":
    """The active metrics registry (the null registry when disabled)."""
    return _registry


def tracer() -> "SpanRecorder | NullSpanRecorder":
    """The session's in-process span recorder (the null one when disabled)."""
    return _tracer


def ledger() -> "RunLedger | NullLedger":
    """The active run ledger (the null ledger when none is attached)."""
    return _ledger


def spans() -> "SpanRecorder | NullSpanRecorder":
    """The active cross-process span recorder (the null one when tracing is off).

    Cross-process tracing is switched independently of metrics: a
    serving process can trace without a metrics session and vice
    versa.  Instrumented code follows the registry discipline — fetch
    once per unit of work, then one attribute call per span.
    """
    return _spans


def is_enabled() -> bool:
    """Whether a live observability session is active."""
    return _registry.enabled


def is_tracing() -> bool:
    """Whether a live cross-process span recorder is attached."""
    return _spans.enabled


def enable() -> ObsSession:
    """Switch observability on; idempotent (returns the live session)."""
    global _registry, _tracer, _session
    if _session is None:
        _session = ObsSession()
        _registry, _tracer = _session.registry, _session.tracer
    return _session


def disable() -> None:
    """Switch observability off and drop the live session."""
    global _registry, _tracer, _session
    _registry = NULL_REGISTRY
    _tracer = NULL_SPAN_RECORDER
    _session = None


@contextlib.contextmanager
def observed():
    """``with observed() as session:`` — enable for a scope, then restore.

    Restores whatever was active before (including a previous live
    session), so tests and nested tools cannot leak global state.
    Pool workers use exactly this to run each job under a fresh local
    registry whose state is then shipped back to the parent.
    """
    global _registry, _tracer, _session
    previous = (_registry, _tracer, _session)
    _session = ObsSession()
    _registry, _tracer = _session.registry, _session.tracer
    try:
        yield _session
    finally:
        _registry, _tracer, _session = previous


@contextlib.contextmanager
def ledgered(path, run_id: "str | None" = None):
    """``with ledgered(path) as led:`` — attach a run ledger, then restore.

    Instrumented code reaches the active ledger through :func:`ledger`
    (one no-op method call when none is attached), mirroring the
    metrics switch.  The ledger is closed on exit and the previous one
    (usually the null ledger) restored.
    """
    global _ledger
    previous = _ledger
    _ledger = RunLedger(path, run_id=run_id)
    try:
        yield _ledger
    finally:
        _ledger.close()
        _ledger = previous


def enable_tracing(
    directory: "str | Path",
    process: str,
    sample: float = 1.0,
    seed: int = 0,
) -> SpanRecorder:
    """Attach a live span recorder writing ``spans-<process>.jsonl``.

    Idempotent per (directory, process): calling again with the same
    target returns the live recorder.  Long-running servers call this
    once at startup and :func:`disable_tracing` on shutdown; scoped
    code prefers :func:`traced`.
    """
    global _spans
    directory = Path(directory)
    path = directory / f"{SPAN_FILE_PREFIX}{process}.jsonl"
    if isinstance(_spans, SpanRecorder) and _spans.sink.path == path:
        return _spans
    sink = SpanSink(path, process)
    _spans = SpanRecorder(sink, process, TraceSampler(sample, seed))
    return _spans


def disable_tracing() -> None:
    """Detach and close the span recorder (idempotent)."""
    global _spans
    _spans.close()
    _spans = NULL_SPAN_RECORDER


@contextlib.contextmanager
def traced(
    directory: "str | Path",
    process: str,
    sample: float = 1.0,
    seed: int = 0,
):
    """``with traced(dir, "client") as rec:`` — trace a scope, then restore.

    Mirrors :func:`ledgered`: the previous recorder (usually the null
    one) is restored on exit and the sink is closed, so tests and
    nested tools cannot leak the global.
    """
    global _spans
    previous = _spans
    path = Path(directory) / f"{SPAN_FILE_PREFIX}{process}.jsonl"
    recorder = SpanRecorder(
        SpanSink(path, process), process, TraceSampler(sample, seed)
    )
    _spans = recorder
    try:
        yield recorder
    finally:
        recorder.close()
        _spans = previous


@contextlib.contextmanager
def unledgered():
    """Silence the run ledger for a scope (the previous one is restored).

    Engine job cells run under this in *both* the serial inline path
    and pool workers: the parent is the ledger's single writer, so a
    ``--jobs 4`` run and a serial run of the same sweep produce the
    same event stream.  The silenced ledger is not closed — it still
    belongs to whoever attached it.
    """
    global _ledger
    previous = _ledger
    _ledger = NULL_LEDGER
    try:
        yield
    finally:
        _ledger = previous
