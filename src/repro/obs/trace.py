"""The one span model: :class:`SpanRecord`, opened by a :class:`SpanRecorder`.

Every timed scope in the library is a flat record linked to its parent
by id — ``(trace_id, span_id, parent_id)`` — and :func:`build_trace`
stitches records back into trees.  The same model serves two uses:

* **in-process** — ``with obs.tracer().span("solve/tacc"):`` nests
  solves, solver phases, DES runs, re-optimizations and rebalances
  under the innermost live span of the same recorder (tracked per
  asyncio task / thread through a contextvar).  The observed session
  keeps these records in memory (:class:`MemorySink`) and the session
  JSONL stores one ``span`` line per record;
* **cross-process** — a request carries a **trace context**
  (``trace_id, span_id, sampled``) stamped on every line-JSON protocol
  message, and each hop (client, router, netem wire, shard service,
  batcher, WAL replay) opens a child span bound to that context.  Each
  process appends its spans to a per-process :class:`SpanSink` file
  (the run ledger's single-writer discipline), and ``repro trace``
  stitches the files back into one waterfall or critical-path view per
  trace id.

Determinism: the sampling decision is a pure function of
``(seed, trace_id)`` via :func:`~repro.utils.rng.derive_seed`, and
trace ids themselves derive from ``(seed, request index)`` in the
seeded load generators — so a replayed run samples exactly the same
requests.  Tracing never feeds back into scheduling: span records
carry wall-clock timestamps but no instrumented code path branches on
them, which is what the trace determinism suite pins down.

When tracing is off, every call site talks to
:class:`NullSpanRecorder` — one no-op attribute call per span, the
same discipline as the null metrics registry.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import SerializationError
from repro.obs import names as obs_names
from repro.obs.ledger import JsonlAppender
from repro.utils.rng import derive_seed
from repro.utils.validation import require

__all__ = [
    "TraceContext",
    "TraceSampler",
    "context_from_wire",
    "new_trace_id",
    "SpanRecord",
    "SpanSink",
    "MemorySink",
    "SpanRecorder",
    "NullSpanRecorder",
    "NULL_SPAN_RECORDER",
    "SPAN_FILE_PREFIX",
    "load_span_file",
    "load_trace_dir",
    "trace_ids",
    "build_trace",
    "render_waterfall",
    "critical_path",
    "render_critical_path",
]

#: span sink files are named ``spans-<process>.jsonl`` inside a trace dir
SPAN_FILE_PREFIX = "spans-"

#: sink file header line, ledger-style
_FORMAT = "repro-trace"
_VERSION = 1

#: sampling draws compare against this resolution
_SAMPLE_RESOLUTION = 1_000_000


# ----------------------------------------------------------------------
# context + sampling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceContext:
    """What one hop hands the next: trace id, parent span, sampled flag.

    The wire form rides protocol messages as the ``trace`` field and is
    omitted entirely when no context is attached, so untraced runs emit
    byte-identical protocol lines.
    """

    trace_id: str
    span_id: str = ""
    sampled: bool = True

    def to_dict(self) -> dict:
        """Wire form (the ``trace`` field of a protocol message)."""
        payload: dict = {"trace_id": self.trace_id}
        if self.span_id:
            payload["span_id"] = self.span_id
        if not self.sampled:
            payload["sampled"] = False
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        """Inverse of :meth:`to_dict`; raises SerializationError on junk."""
        try:
            return cls(
                trace_id=str(payload["trace_id"]),
                span_id=str(payload.get("span_id", "")),
                sampled=bool(payload.get("sampled", True)),
            )
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"bad trace context: {exc}") from exc


def context_from_wire(payload: "dict | None") -> "TraceContext | None":
    """Lenient inbound parse: a malformed ``trace`` field drops the
    context (the request must still be served) instead of raising."""
    if not payload:
        return None
    try:
        return TraceContext.from_dict(payload)
    except SerializationError:
        return None


def new_trace_id(seed: int, n: int) -> str:
    """Deterministic trace id for the ``n``-th request of a seeded run."""
    return f"{derive_seed(seed, 'trace-id', n):016x}"


class TraceSampler:
    """Head-based deterministic sampling: a pure function of the id.

    Every process holding the same ``(seed, rate)`` pair agrees on
    which trace ids are sampled without coordination, and a replayed
    run samples the same requests — the property the determinism
    suite pins.
    """

    def __init__(self, rate: float = 1.0, seed: int = 0) -> None:
        require(0.0 <= rate <= 1.0, f"sample rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)

    def sampled(self, trace_id: str) -> bool:
        """Whether this trace id is sampled (same answer everywhere)."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        draw = derive_seed(self.seed, "trace-sample", trace_id)
        return (draw % _SAMPLE_RESOLUTION) < self.rate * _SAMPLE_RESOLUTION


# ----------------------------------------------------------------------
# span records + sink
# ----------------------------------------------------------------------
@dataclass
class SpanRecord:
    """One finished span as it appears on disk (one JSON line)."""

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    process: str
    start_ms: float            # wall clock, epoch milliseconds
    duration_ms: float = 0.0
    status: str = "ok"
    events: list = field(default_factory=list)
    attributes: dict = field(default_factory=dict)

    @property
    def end_ms(self) -> float:
        """Wall-clock end of the span (epoch milliseconds)."""
        return self.start_ms + self.duration_ms

    def to_dict(self) -> dict:
        """JSON-ready form (omits empty optionals)."""
        payload: dict = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "process": self.process,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
            "status": self.status,
        }
        if self.parent_id:
            payload["parent_id"] = self.parent_id
        if self.events:
            payload["events"] = list(self.events)
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        """Inverse of :meth:`to_dict`; raises SerializationError on junk."""
        try:
            return cls(
                trace_id=str(payload["trace_id"]),
                span_id=str(payload["span_id"]),
                parent_id=str(payload.get("parent_id", "")),
                name=str(payload["name"]),
                process=str(payload.get("process", "?")),
                start_ms=float(payload["start_ms"]),
                duration_ms=float(payload.get("duration_ms", 0.0)),
                status=str(payload.get("status", "ok")),
                events=list(payload.get("events", [])),
                attributes=dict(payload.get("attributes", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"bad span record: {exc}") from exc


class SpanSink(JsonlAppender):
    """Append-only JSONL span file: one per process, single-writer.

    The run ledger's file discipline (:class:`~repro.obs.ledger.JsonlAppender`)
    with a ``repro-trace`` header and sorted keys; each exported span
    counts toward ``trace/spans_exported``.
    """

    def __init__(self, path: "str | Path", process: str) -> None:
        header = {"format": _FORMAT, "version": _VERSION, "process": process}
        super().__init__(path, json.dumps(header, sort_keys=True))
        self.process = process

    def emit(self, record: SpanRecord) -> None:
        """Append one finished span (thread-safe)."""
        self.append(json.dumps(record.to_dict(), sort_keys=True))
        _count(obs_names.TRACE_SPANS_EXPORTED)


class MemorySink(list):
    """Finished spans kept in memory: the observed session's sink."""

    emit = list.append

    def close(self) -> None:
        """Nothing to release."""


def _count(name: str) -> None:
    from repro.obs import runtime as obs_runtime

    obs_runtime.metrics().counter(name).inc()


# ----------------------------------------------------------------------
# the recorder (live + null twin)
# ----------------------------------------------------------------------
#: the innermost live span of the current asyncio task / thread —
#: children and events attach here without threading a handle through
#: every call signature (netem annotates the router's forward span this
#: way).  contextvars give each asyncio task its own copy, so hedged
#: forwards running concurrently each see their own span, and
#: ``asyncio.to_thread`` carries the caller's span into the thread.
_CURRENT_SPAN: "contextvars.ContextVar[_ActiveSpan | None]" = (
    contextvars.ContextVar("repro_trace_current_span", default=None)
)


class _ActiveSpan:
    """One live span, closed by ``with`` or by an explicit :meth:`finish`.

    ``finish`` exists for measurement harnesses whose send and
    completion live in different callbacks (the open-loop load
    generator), where a ``with`` block cannot bracket the request.
    Never call it on the serving request path — there the lint enforces
    ``start_span`` + ``with``, and ``start_manual`` is forbidden
    outright.
    """

    __slots__ = (
        "_recorder", "_record", "_started", "_token", "_outer", "_done",
        "context",
    )

    def __init__(
        self, recorder: "SpanRecorder", record: SpanRecord,
        started: float,
    ) -> None:
        self._recorder = recorder
        self._record = record
        self._started = started
        self._token = None
        #: the span that was current when this one was entered (any
        #: recorder's) — :meth:`SpanRecorder.current` walks this chain
        self._outer = None
        self._done = False
        #: hand this to the next hop (its parent is *this* span)
        self.context = TraceContext(
            trace_id=record.trace_id, span_id=record.span_id, sampled=True
        )

    @property
    def span_id(self) -> str:
        """This span's id (the next hop's parent id)."""
        return self._record.span_id

    def annotate(self, **attributes) -> None:
        """Attach key/value attributes to the live span."""
        self._record.attributes.update(attributes)

    def event(self, name: str, **fields) -> None:
        """Record a point-in-time event inside the span."""
        entry = {
            "name": name,
            "t_ms": round(
                (time.perf_counter() - self._started) * 1e3, 3
            ),
        }
        entry.update(fields)
        self._record.events.append(entry)
        self._recorder.events_recorded += 1

    def set_status(self, status: str) -> None:
        """Override the span status (exceptions set ``error:<Type>``)."""
        self._record.status = status

    def finish(self, status: "str | None" = None) -> None:
        """Close and export the span (idempotent)."""
        if self._done:
            return
        self._done = True
        self._record.duration_ms = (
            time.perf_counter() - self._started
        ) * 1e3
        if status is not None:
            self._record.status = status
        self._recorder._finish(self._record)

    def __enter__(self) -> "_ActiveSpan":
        self._outer = _CURRENT_SPAN.get()
        self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        self.finish(None if exc_type is None else f"error:{exc_type.__name__}")
        return False


class _NullActiveSpan:
    """Shared no-op span: the unsampled / disabled twin."""

    __slots__ = ()

    span_id = ""
    context = None

    def annotate(self, **attributes) -> None:
        """No-op."""

    def event(self, name: str, **fields) -> None:
        """No-op."""

    def set_status(self, status: str) -> None:
        """No-op."""

    def finish(self, status: "str | None" = None) -> None:
        """No-op."""

    def __enter__(self) -> "_NullActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_ACTIVE_SPAN = _NullActiveSpan()


class SpanRecorder:
    """Opens spans and exports each finished one to ``sink.emit``.

    Two ways in, one record model:

    * ``start_span(name, context)`` — a request hop bound to a wire
      :class:`TraceContext` (sampled or not), which is how spans cross
      processes;
    * ``span(name)`` — an in-process scope (a solve, a solver phase, a
      DES run) nested under this recorder's innermost live span, or the
      root of a new trace whose id is its own span id.

    Both must be used as context managers (``with``) — the request-path
    lint enforces this for ``start_span``, so spans cannot leak open.
    Each recorder sees only its own live spans, so in-process scopes
    never attach to a request hop and hop events never land on a solver
    scope.
    """

    enabled = True

    def __init__(
        self,
        sink: "SpanSink | MemorySink",
        process: str,
        sampler: "TraceSampler | None" = None,
    ) -> None:
        self.sink = sink
        self.process = process
        self.sampler = sampler or TraceSampler()
        self._ids = itertools.count(1)
        self.spans_exported = 0
        self.events_recorded = 0
        self.traces_started = 0

    # -- context creation ----------------------------------------------
    def new_context(self, trace_id: str) -> TraceContext:
        """Root context for ``trace_id``; applies the sampling decision."""
        sampled = self.sampler.sampled(trace_id)
        if sampled:
            self.traces_started += 1
            _count(obs_names.TRACE_TRACES_SAMPLED)
        return TraceContext(trace_id=trace_id, span_id="", sampled=sampled)

    # -- span lifecycle ------------------------------------------------
    def _open(
        self, name: str, trace_id: "str | None", parent_id: str,
        attributes: dict,
    ) -> _ActiveSpan:
        """One live span; ``trace_id=None`` roots a new trace at it."""
        span_id = f"{self.process}:{next(self._ids)}"
        record = SpanRecord(
            trace_id=span_id if trace_id is None else trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            process=self.process,
            start_ms=time.time() * 1e3,
            attributes=attributes,
        )
        return _ActiveSpan(self, record, time.perf_counter())

    def start_span(
        self,
        name: str,
        context: "TraceContext | None",
        **attributes,
    ) -> "_ActiveSpan | _NullActiveSpan":
        """Open a child span of ``context`` (``with`` only).

        Returns the shared no-op span when the context is missing or
        the trace is unsampled, so unsampled requests cost one branch.
        """
        if context is None or not context.sampled:
            return _NULL_ACTIVE_SPAN
        return self._open(name, context.trace_id, context.span_id, attributes)

    def start_manual(
        self,
        name: str,
        context: "TraceContext | None",
        **attributes,
    ) -> "_ActiveSpan | _NullActiveSpan":
        """Open a span closed by ``.finish()`` instead of ``with``.

        Only for measurement harnesses (see :class:`_ActiveSpan`); the
        request-path lint rejects this call in serving code.
        """
        return self.start_span(name, context, **attributes)

    def span(self, name: str, **attributes) -> _ActiveSpan:
        """Open an in-process span; use as ``with recorder.span("x"):``."""
        parent = self._live()
        if parent is None:
            return self._open(name, None, "", attributes)
        return self._open(
            name, parent._record.trace_id, parent._record.span_id, attributes
        )

    def _live(self) -> "_ActiveSpan | None":
        live = _CURRENT_SPAN.get()
        while live is not None and live._recorder is not self:
            live = live._outer
        return live

    def current(self) -> "_ActiveSpan | _NullActiveSpan":
        """This recorder's innermost live span in this task (no-op when none)."""
        live = self._live()
        return live if live is not None else _NULL_ACTIVE_SPAN

    def event(self, name: str, **fields) -> None:
        """Annotate the current task's live span (no-op when none)."""
        self.current().event(name, **fields)

    def adopt(self, spans: "list[dict]") -> None:
        """Export spans finished elsewhere (``SpanRecord.to_dict`` payloads).

        The engine folds pool workers' session spans into the parent
        this way; their ids carry the worker recorder's process name,
        so they never collide with the parent's.
        """
        for payload in spans:
            self.sink.emit(SpanRecord.from_dict(payload))

    def _finish(self, record: SpanRecord) -> None:
        self.sink.emit(record)
        self.spans_exported += 1

    def close(self) -> None:
        """Close the sink."""
        self.sink.close()


class NullSpanRecorder:
    """The disabled recorder: every call is a shared no-op."""

    enabled = False
    process = ""

    def new_context(self, trace_id: str) -> None:
        """No context: messages stay untraced (and byte-identical)."""
        return None

    def start_span(self, name, context, **attributes) -> _NullActiveSpan:
        """Shared no-op span."""
        return _NULL_ACTIVE_SPAN

    def start_manual(self, name, context, **attributes) -> _NullActiveSpan:
        """Shared no-op span."""
        return _NULL_ACTIVE_SPAN

    def span(self, name: str, **attributes) -> _NullActiveSpan:
        """Shared no-op span."""
        return _NULL_ACTIVE_SPAN

    def current(self) -> _NullActiveSpan:
        """Shared no-op span."""
        return _NULL_ACTIVE_SPAN

    def event(self, name: str, **fields) -> None:
        """No-op."""

    def adopt(self, spans: "list[dict]") -> None:
        """No-op."""

    def close(self) -> None:
        """No-op."""


#: the module-level singleton instrumented code sees when tracing is off
NULL_SPAN_RECORDER = NullSpanRecorder()


# ----------------------------------------------------------------------
# stitching: per-process files -> one tree per trace id
# ----------------------------------------------------------------------
def load_span_file(path: "str | Path") -> "list[SpanRecord]":
    """Read one sink file (header line skipped, torn tail dropped)."""
    path = Path(path)
    records: "list[SpanRecord]" = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            if index == len(lines) - 1:
                break  # torn tail: the writer was SIGKILLed mid-append
            raise SerializationError(
                f"corrupt span file {path} at line {index + 1}: {exc}"
            ) from exc
        if payload.get("format") == _FORMAT:
            continue  # header line
        records.append(SpanRecord.from_dict(payload))
    return records


def load_trace_dir(directory: "str | Path") -> "list[SpanRecord]":
    """Read every ``spans-*.jsonl`` under ``directory`` (sorted names)."""
    directory = Path(directory)
    require(directory.is_dir(), f"not a trace directory: {directory}")
    records: "list[SpanRecord]" = []
    for path in sorted(directory.glob(f"{SPAN_FILE_PREFIX}*.jsonl")):
        records.extend(load_span_file(path))
    return records


def trace_ids(records: "list[SpanRecord]") -> "list[str]":
    """Distinct trace ids, ordered by first span start."""
    first_seen: dict = {}
    for record in records:
        start = first_seen.get(record.trace_id)
        if start is None or record.start_ms < start:
            first_seen[record.trace_id] = record.start_ms
    return sorted(first_seen, key=first_seen.get)


@dataclass
class TraceNode:
    """One span plus its resolved children, time-sorted."""

    record: SpanRecord
    children: "list[TraceNode]" = field(default_factory=list)


def build_trace(
    records: "list[SpanRecord]", trace_id: str
) -> "tuple[list[TraceNode], list[SpanRecord]]":
    """Stitch one trace id into root trees.

    Returns ``(roots, orphans)``: roots are spans with no parent id (or
    whose parent never reached a sink — those become roots too, so a
    lost file degrades the view instead of hiding spans), orphans lists
    the spans whose parent id did not resolve.
    """
    mine = [r for r in records if r.trace_id == trace_id]
    nodes = {r.span_id: TraceNode(r) for r in mine}
    roots: "list[TraceNode]" = []
    orphans: "list[SpanRecord]" = []
    for record in mine:
        node = nodes[record.span_id]
        parent = nodes.get(record.parent_id) if record.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
            if record.parent_id:
                orphans.append(record)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.record.start_ms)
    roots.sort(key=lambda root: root.record.start_ms)
    return roots, orphans


def _walk(node: TraceNode, depth: int = 0):
    yield node, depth
    for child in node.children:
        yield from _walk(child, depth + 1)


def render_waterfall(
    roots: "list[TraceNode]", width: int = 40
) -> str:
    """Time-aligned ASCII waterfall of one stitched trace."""
    flat = [item for root in roots for item in _walk(root)]
    if not flat:
        return "(no spans)"
    t0 = min(node.record.start_ms for node, _ in flat)
    t1 = max(node.record.end_ms for node, _ in flat)
    span_ms = max(t1 - t0, 1e-9)
    name_w = max(
        len("  " * depth + node.record.name) for node, depth in flat
    )
    lines = [
        f"trace {flat[0][0].record.trace_id}  "
        f"({span_ms:.2f} ms end-to-end, {len(flat)} spans)"
    ]
    for node, depth in flat:
        record = node.record
        left = int((record.start_ms - t0) / span_ms * width)
        bar_w = max(1, int(record.duration_ms / span_ms * width))
        bar = " " * min(left, width - 1) + "#" * min(bar_w, width - left)
        label = ("  " * depth + record.name).ljust(name_w)
        flags = "" if record.status == "ok" else f"  !{record.status}"
        events = f"  ·{len(record.events)}ev" if record.events else ""
        lines.append(
            f"  {label}  |{bar.ljust(width)}|"
            f" {record.duration_ms:9.3f} ms"
            f"  [{record.process}]{events}{flags}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class CriticalSegment:
    """One hop of the critical path with its exclusive self-time."""

    name: str
    process: str
    span_id: str
    duration_ms: float
    self_ms: float
    status: str


def critical_path(root: TraceNode) -> "tuple[list[CriticalSegment], float]":
    """Walk the latest-finishing child chain from ``root``.

    Each segment's ``self_ms`` is its duration minus the on-path
    child's duration *clipped to the parent interval* — so the
    segments telescope to exactly the root duration when parent/child
    links and clocks are intact, and to less when they are not.
    Returns ``(segments, attributed_ms)``.
    """
    segments: "list[CriticalSegment]" = []
    attributed = 0.0
    node = root
    while node is not None:
        record = node.record
        chosen = None
        for child in node.children:
            if chosen is None or child.record.end_ms > chosen.record.end_ms:
                chosen = child
        child_ms = 0.0
        if chosen is not None:
            # clip the child to the parent interval: clock skew or a
            # broken link must not attribute more time than elapsed
            lo = max(chosen.record.start_ms, record.start_ms)
            hi = min(chosen.record.end_ms, record.end_ms)
            child_ms = max(0.0, hi - lo)
        self_ms = max(0.0, record.duration_ms - child_ms)
        segments.append(CriticalSegment(
            name=record.name,
            process=record.process,
            span_id=record.span_id,
            duration_ms=record.duration_ms,
            self_ms=self_ms,
            status=record.status,
        ))
        attributed += self_ms
        node = chosen
    return segments, attributed


def render_critical_path(root: TraceNode) -> str:
    """The critical-path view: one line per hop, attribution summary."""
    segments, attributed = critical_path(root)
    total = max(root.record.duration_ms, 1e-9)
    lines = [
        f"critical path of trace {root.record.trace_id} "
        f"({root.record.duration_ms:.3f} ms end-to-end)"
    ]
    for segment in segments:
        share = segment.self_ms / total * 100.0
        flag = "" if segment.status == "ok" else f"  !{segment.status}"
        lines.append(
            f"  {segment.name:<28} {segment.self_ms:9.3f} ms self"
            f"  ({share:5.1f}%)  [{segment.process}]{flag}"
        )
    coverage = attributed / total * 100.0
    lines.append(
        f"  attributed {coverage:.1f}% of end-to-end latency "
        f"to {len(segments)} named spans"
    )
    return "\n".join(lines)
