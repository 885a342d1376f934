"""Export sinks: in-memory collection, JSON-lines files, Prometheus text.

The JSON-lines layout is one self-describing record per line::

    {"type": "meta", "format": "repro-obs", "version": 2}
    {"type": "counter", "name": "solver/solves", "labels": {...}, "value": 3}
    {"type": "gauge", ...}
    {"type": "histogram", "name": "sim/queue_wait_s", ..., "summary": {...}}
    {"type": "timer", ...}
    {"type": "span", "span": {...one SpanRecord.to_dict()...}}

which streams, appends, and greps well.  :func:`load_jsonl` folds a
file back into the same collected-dict shape :func:`collect` produces,
so the dashboard renders live sessions and files identically.  Version
1 stored nested span trees (``"tree"``); loading such a span line
raises :class:`~repro.errors.SerializationError`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.errors import SerializationError
from repro.obs.ledger import _json_safe
from repro.obs.metrics import instrument_key

__all__ = [
    "collect",
    "write_jsonl",
    "load_jsonl",
    "to_prometheus_text",
    "prometheus_from_collected",
    "prometheus_name",
    "escape_label_value",
]

JSONL_FORMAT = "repro-obs"
JSONL_VERSION = 2


def _summary_safe(summary: dict) -> dict:
    out = {}
    for key, value in summary.items():
        if key == "buckets":
            out[key] = [[_json_safe(b), c] for b, c in value]
        else:
            out[key] = _json_safe(value)
    return out


def _json_load(value):
    """Inverse of :func:`_json_safe`: revive stringified non-finites."""
    if value == "Infinity":
        return math.inf
    if value == "-Infinity":
        return -math.inf
    if value == "NaN":
        return math.nan
    return value


def _summary_load(summary: dict) -> dict:
    out = {}
    for key, value in summary.items():
        if key == "buckets":
            out[key] = [[_json_load(b), c] for b, c in value]
        else:
            out[key] = _json_load(value)
    return out


def collect(registry, spans=()) -> dict:
    """Fold a live registry (+ finished span records) into one plain dict."""
    return {
        "metrics": registry.snapshot(),
        "spans": [record.to_dict() for record in spans],
    }


def write_jsonl(path: "str | Path", registry, spans=()) -> Path:
    """Write the current state as JSON lines; returns the path."""
    path = Path(path)
    lines = [
        json.dumps({"type": "meta", "format": JSONL_FORMAT, "version": JSONL_VERSION})
    ]
    for (kind, name, labels), instrument in sorted(
        registry.instruments().items(), key=lambda item: (item[0][0], item[0][1], item[0][2])
    ):
        record: dict = {"type": kind, "name": name, "labels": dict(labels)}
        if kind in ("counter", "gauge"):
            record["value"] = _json_safe(instrument.value)
        else:
            record["summary"] = _summary_safe(instrument.summary())
        lines.append(json.dumps(record))
    for record in spans:
        lines.append(json.dumps({"type": "span", "span": record.to_dict()}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_jsonl(path: "str | Path") -> dict:
    """Read a JSON-lines export back into the :func:`collect` shape."""
    metrics: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}, "timers": {}}
    spans: list[dict] = []
    text = Path(path).read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "meta":
            continue
        if kind == "span":
            if "span" not in record:
                raise SerializationError(
                    f"{path}:{number}: version-1 span tree; this reader "
                    f"expects version-{JSONL_VERSION} span records"
                )
            spans.append(record["span"])
            continue
        key = instrument_key(record["name"], record.get("labels"))
        if kind == "counter":
            metrics["counters"][key] = _json_load(record["value"])
        elif kind == "gauge":
            metrics["gauges"][key] = _json_load(record["value"])
        elif kind == "histogram":
            metrics["histograms"][key] = _summary_load(record["summary"])
        elif kind == "timer":
            metrics["timers"][key] = _summary_load(record["summary"])
    return {"metrics": metrics, "spans": spans}


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------

def prometheus_name(name: str, suffix: str = "") -> str:
    """``layer/metric`` -> ``repro_layer_metric`` (sanitized)."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{safe}{suffix}"


def escape_label_value(value: str) -> str:
    """Escape per the exposition format: backslash, quote, newline."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_text(labels: dict, extra: "dict | None" = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(merged[key])}"' for key in sorted(merged)
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def to_prometheus_text(registry) -> str:
    """Render every instrument in Prometheus text format.

    Counters get a ``_total`` suffix; histograms and timers emit the
    standard ``_bucket``/``_sum``/``_count`` triple with cumulative
    ``le`` buckets ending at ``+Inf``.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def emit_type(pname: str, kind: str) -> None:
        """Return emit type."""
        if pname not in typed:
            lines.append(f"# TYPE {pname} {kind}")
            typed.add(pname)

    for (kind, name, labels), instrument in sorted(
        registry.instruments().items(), key=lambda item: (item[0][0], item[0][1], item[0][2])
    ):
        label_map = dict(labels)
        if kind == "counter":
            pname = prometheus_name(name, "_total")
            emit_type(pname, "counter")
            lines.append(f"{pname}{_label_text(label_map)} {_format_value(instrument.value)}")
        elif kind == "gauge":
            pname = prometheus_name(name)
            emit_type(pname, "gauge")
            lines.append(f"{pname}{_label_text(label_map)} {_format_value(instrument.value)}")
        else:  # histogram / timer
            pname = prometheus_name(name)
            emit_type(pname, "histogram")
            for bound, cumulative in instrument.cumulative_buckets():
                le = "+Inf" if bound == math.inf else _format_value(bound)
                lines.append(
                    f"{pname}_bucket{_label_text(label_map, {'le': le})} {cumulative}"
                )
            lines.append(f"{pname}_sum{_label_text(label_map)} {_format_value(instrument.sum)}")
            lines.append(f"{pname}_count{_label_text(label_map)} {instrument.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _split_key(key: str) -> tuple[str, dict]:
    """Inverse of :func:`instrument_key` (labels cannot contain ``,={}``)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels = {}
    for pair in rest.rstrip("}").split(","):
        if pair:
            label, _, value = pair.partition("=")
            labels[label] = value
    return name, labels


def prometheus_from_collected(data: dict) -> str:
    """Prometheus text from a collected/loaded dict (no live registry).

    Summaries carry exactly what the exposition format needs: counter
    and gauge values verbatim, histogram/timer cumulative buckets plus
    ``sum``/``count``.
    """
    metrics = data.get("metrics", {})
    lines: list[str] = []
    typed: set[str] = set()

    def emit_type(pname: str, kind: str) -> None:
        """Return emit type."""
        if pname not in typed:
            lines.append(f"# TYPE {pname} {kind}")
            typed.add(pname)

    for key, value in metrics.get("counters", {}).items():
        name, labels = _split_key(key)
        pname = prometheus_name(name, "_total")
        emit_type(pname, "counter")
        lines.append(f"{pname}{_label_text(labels)} {_format_value(value)}")
    for key, value in metrics.get("gauges", {}).items():
        name, labels = _split_key(key)
        pname = prometheus_name(name)
        emit_type(pname, "gauge")
        lines.append(f"{pname}{_label_text(labels)} {_format_value(value)}")
    for group in ("histograms", "timers"):
        for key, summary in metrics.get(group, {}).items():
            name, labels = _split_key(key)
            pname = prometheus_name(name)
            emit_type(pname, "histogram")
            for bound, cumulative in summary.get("buckets", []):
                le = "+Inf" if bound == math.inf else _format_value(bound)
                lines.append(
                    f"{pname}_bucket{_label_text(labels, {'le': le})} {cumulative}"
                )
            lines.append(
                f"{pname}_sum{_label_text(labels)} {_format_value(summary.get('sum', 0.0))}"
            )
            lines.append(f"{pname}_count{_label_text(labels)} {summary.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")
