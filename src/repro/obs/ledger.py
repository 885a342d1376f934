"""Per-run event ledger: one append-only JSON-lines stream per run.

Metrics answer *how much*; the ledger answers *what happened, when*.
Every record is self-describing, in the same spirit as the metric
export in :mod:`repro.obs.sinks`::

    {"type": "meta", "format": "repro-obs-ledger", "version": 1, "run_id": "..."}
    {"type": "event", "event": "run_start", "run_id": "...", "t": 1722..., ...}
    {"type": "event", "event": "cache_hit", ...}
    {"type": "event", "event": "job_end", "status": "timeout", ...}

which appends, streams, and greps well.  The engine emits
``run_start``/``run_end``, per-job ``job_start``/``job_end`` (with a
``status`` of ``ok``/``timeout``/``error``) and ``cache_hit`` events;
the fault layer emits ``fault``, ``task_timeout``, ``task_retry``,
``task_failover`` and ``task_lost``.  Emission goes through
:func:`repro.obs.runtime.ledger`, so instrumented code pays one no-op
method call when no ledger is active — the same null-twin discipline
as the metrics registry.

Writes go through :class:`JsonlAppender` — line-buffered appends under
a lock, a header only on an empty file — so a crashed run keeps every
event up to the crash.  The per-process span files of
:mod:`repro.obs.trace` use the same appender.  Events recorded inside
pool *workers* are not captured (workers are ledger-silent by design,
like the cache); the parent records the job lifecycle on their behalf.
"""

from __future__ import annotations

import json
import math
import threading
import time
import uuid
from pathlib import Path

__all__ = [
    "LEDGER_FORMAT",
    "LEDGER_VERSION",
    "JsonlAppender",
    "RunLedger",
    "NullLedger",
    "NULL_LEDGER",
    "new_run_id",
    "read_ledger",
    "summarize_ledger",
    "render_ledger_summary",
]

LEDGER_FORMAT = "repro-obs-ledger"
LEDGER_VERSION = 1


def new_run_id() -> str:
    """Sortable-by-time, collision-safe run identifier."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:8]


def _json_safe(value):
    """JSON has no Infinity/NaN literals; stringify them."""
    if isinstance(value, float) and not math.isfinite(value):
        return "Infinity" if value > 0 else ("-Infinity" if value < 0 else "NaN")
    return value


class JsonlAppender:
    """Single-writer append-only JSONL file: the ledger and span sinks.

    A lock, a lazily opened append handle, ``header`` written only to an
    empty file, and one flushed line per record, so a crashed writer
    loses at most its torn final line.  :meth:`close` releases the
    handle; the next append reopens it in append mode.
    """

    def __init__(self, path: "str | Path", header: str) -> None:
        self.path = Path(path)
        self._header = header
        self._lock = threading.Lock()
        self._fh = None

    def append(self, line: str) -> None:
        """Append one serialized record (thread-safe, flushed)."""
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                header_needed = not self.path.exists() or self.path.stat().st_size == 0
                self._fh = self.path.open("a", encoding="utf-8")
                if header_needed:
                    self._fh.write(self._header + "\n")
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        """Close the stream (further appends reopen it)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class RunLedger(JsonlAppender):
    """Appends structured events for one run to a JSONL file."""

    enabled = True

    def __init__(self, path: "str | Path", run_id: "str | None" = None) -> None:
        self.run_id = run_id or new_run_id()
        header = {
            "type": "meta",
            "format": LEDGER_FORMAT,
            "version": LEDGER_VERSION,
            "run_id": self.run_id,
        }
        super().__init__(path, json.dumps(header))

    def emit(self, event: str, **fields) -> None:
        """Append one event record (thread-safe, flushed per line)."""
        record = {
            "type": "event",
            "event": event,
            "run_id": self.run_id,
            "t": time.time(),
        }
        record.update({key: _json_safe(value) for key, value in fields.items()})
        self.append(json.dumps(record))


class NullLedger:
    """The disabled ledger: ``emit`` is a no-op method call."""

    enabled = False

    def emit(self, event: str, **fields) -> None:
        """No-op."""

    def close(self) -> None:
        """No-op."""


#: the module-level singleton instrumented code sees when no ledger is active
NULL_LEDGER = NullLedger()


def read_ledger(path: "str | Path") -> "list[dict]":
    """Event records of a ledger file, in emission order (meta skipped)."""
    records: list[dict] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") == "event":
            records.append(record)
    return records


def summarize_ledger(records: "list[dict]") -> dict:
    """Aggregate view of one ledger: event counts, runs, wall span."""
    counts: dict[str, int] = {}
    run_ids: list[str] = []
    times = [r["t"] for r in records if isinstance(r.get("t"), (int, float))]
    for record in records:
        counts[record["event"]] = counts.get(record["event"], 0) + 1
        run_id = record.get("run_id")
        if run_id and run_id not in run_ids:
            run_ids.append(run_id)
    return {
        "events": len(records),
        "event_counts": counts,
        "run_ids": run_ids,
        "wall_s": (max(times) - min(times)) if times else 0.0,
    }


def render_ledger_summary(records: "list[dict]") -> str:
    """Human summary table for ``repro ledger`` (reuses the table helper)."""
    from repro.utils.tables import format_table

    summary = summarize_ledger(records)
    rows = [["run(s)", ", ".join(summary["run_ids"]) or "-"],
            ["events", summary["events"]],
            ["wall span (s)", summary["wall_s"]]]
    rows += [
        [f"event: {name}", count]
        for name, count in sorted(summary["event_counts"].items())
    ]
    return format_table(["ledger", "value"], rows)
