"""Synthetic workload traces with persistence.

A trace is the materialized arrival stream of a whole device fleet —
``(time, device, size, compute)`` tuples in time order.  Pre-generating
a trace lets two assignments be compared against *bit-identical*
workloads (paired comparison, lower variance than independent seeded
runs), and the JSON-lines format makes traces shareable artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path as FilePath

from repro.errors import SerializationError
from repro.model.entities import IoTDevice
from repro.utils.rng import derive_seed, make_rng
from repro.utils.validation import check_positive, require
from repro.workload.arrivals import ArrivalProcess, PoissonProcess
from repro.workload.tasks import TaskFactory


@dataclass(frozen=True)
class TraceEntry:
    """One arrival in a trace."""

    time_s: float
    device_id: int
    size_bits: float
    compute_units: float


@dataclass
class Trace:
    """A time-ordered list of arrivals plus the horizon it covers."""

    horizon_s: float
    entries: list[TraceEntry]

    @property
    def n_entries(self) -> int:
        """Return n entries."""
        return len(self.entries)

    def rate_of(self, device_id: int) -> float:
        """Empirical arrival rate of one device over the horizon."""
        count = sum(1 for e in self.entries if e.device_id == device_id)
        return count / self.horizon_s

    # ------------------------------------------------------------------
    def save(self, path: "str | FilePath") -> None:
        """Write JSON-lines: a header line, then one line per entry."""
        path = FilePath(path)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"horizon_s": self.horizon_s}) + "\n")
            for entry in self.entries:
                handle.write(
                    json.dumps(
                        {
                            "t": entry.time_s,
                            "d": entry.device_id,
                            "b": entry.size_bits,
                            "c": entry.compute_units,
                        }
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, path: "str | FilePath") -> "Trace":
        """Inverse of :meth:`save`.

        Raises :class:`~repro.errors.SerializationError` for a malformed
        file, and for values the simulator cannot replay: a non-finite
        or non-positive ``horizon_s``, a non-finite or negative arrival
        time ``t``, or a non-finite or non-positive size ``b`` or
        compute ``c``.
        """
        path = FilePath(path)
        try:
            with path.open("r", encoding="utf-8") as handle:
                horizon_s = float(json.loads(handle.readline())["horizon_s"])
                _check(horizon_s, horizon_s > 0, "horizon_s must be finite and > 0")
                entries = []
                for line, record in enumerate(map(json.loads, handle), start=2):
                    entry = TraceEntry(
                        time_s=float(record["t"]),
                        device_id=int(record["d"]),
                        size_bits=float(record["b"]),
                        compute_units=float(record["c"]),
                    )
                    _check(entry.time_s, entry.time_s >= 0,
                           f"line {line}: t must be finite and >= 0")
                    _check(entry.size_bits, entry.size_bits > 0,
                           f"line {line}: b must be finite and > 0")
                    _check(entry.compute_units, entry.compute_units > 0,
                           f"line {line}: c must be finite and > 0")
                    entries.append(entry)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid trace file {path}: {exc}") from exc
        return cls(horizon_s=horizon_s, entries=entries)


def _check(value: float, in_range: bool, message: str) -> None:
    """Reject a trace value that is out of range or not finite."""
    if not (in_range and math.isfinite(value)):
        raise ValueError(f"{message}, got {value!r}")


def generate_trace(
    devices: list[IoTDevice],
    horizon_s: float,
    seed: int = 0,
    arrivals: "dict[int, ArrivalProcess] | None" = None,
    task_factory: "TaskFactory | None" = None,
) -> Trace:
    """Materialize the fleet's arrivals over ``horizon_s`` seconds.

    By default each device is a Poisson source at its ``rate_hz``;
    pass ``arrivals`` to override per device.  Entries come back
    time-sorted.
    """
    check_positive(horizon_s, "horizon_s")
    require(len(devices) > 0, "devices must be non-empty")
    factory = task_factory if task_factory is not None else TaskFactory()
    entries: list[TraceEntry] = []
    for device in devices:
        process = (arrivals or {}).get(device.device_id) or PoissonProcess(device.rate_hz)
        rng = make_rng(derive_seed(seed, "trace", device.device_id))
        clock = 0.0
        while True:
            clock += process.next_interval(rng)
            if clock > horizon_s:
                break
            task = factory.make(device.device_id, server_id=-1, created_at=clock, rng=rng)
            entries.append(
                TraceEntry(
                    time_s=clock,
                    device_id=device.device_id,
                    size_bits=task.size_bits,
                    compute_units=task.compute_units,
                )
            )
    entries.sort(key=lambda e: e.time_s)
    return Trace(horizon_s=horizon_s, entries=entries)
