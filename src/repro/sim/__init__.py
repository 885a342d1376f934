"""Discrete-event simulation of an edge deployment.

The optimization layer works on a *static* delay matrix; this package
answers the follow-up question every systems reviewer asks: do static
wins survive contact with queueing?  It replays an assignment as
actual traffic — Poisson/periodic/bursty arrivals at IoT devices,
store-and-forward transmission with per-link FIFO queues along the
routed path, FIFO processing queues at edge servers — and measures
end-to-end latency, deadline miss rate and server utilization.

* :mod:`repro.sim.engine` — the simulation core: a clock, a heap of
  ``(time, seq, event)`` tuples, and :class:`Event`, the cancellable
  handle :meth:`Simulator.schedule` returns;
* :mod:`repro.sim.network` — link transmitters and hop-by-hop
  forwarding;
* :mod:`repro.sim.server` — edge-server processing queues;
* :mod:`repro.sim.device` — IoT traffic sources;
* :mod:`repro.sim.metrics` — latency/miss/utilization recording;
* :mod:`repro.sim.runner` — one-call replay of a solved assignment, and
  the world builder every runner shares;
* :mod:`repro.sim.trace_runner` — replay of one materialized trace, and
  the paired comparison of two assignments over it.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.metrics import MetricsRecorder, SimReport
from repro.sim.runner import simulate_assignment
from repro.sim.trace_runner import paired_comparison, replay_trace

__all__ = [
    "Simulator",
    "Event",
    "MetricsRecorder",
    "SimReport",
    "simulate_assignment",
    "paired_comparison",
    "replay_trace",
]
