"""Trace replay: the same workload against different assignments.

Independent seeded runs compare assignments with sampling noise on top;
replaying one materialized :class:`~repro.workload.traces.Trace` gives a
*paired* comparison — both assignments see byte-identical tasks at
identical instants, so any difference in measured latency is due to the
assignment alone.  This is the low-variance mode the F5 analysis in
EXPERIMENTS.md cross-checks against.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.model.solution import Assignment
from repro.sim.metrics import MetricsRecorder, SimReport
from repro.sim.runner import _build_world, _finish
from repro.sim.task import Task
from repro.utils.validation import check_nonnegative
from repro.workload.traces import Trace


def replay_trace(
    assignment: Assignment,
    trace: Trace,
    seed: int = 0,
    drain_s: float = 5.0,
    service: str = "deterministic",
) -> SimReport:
    """Replay ``trace`` through ``assignment``'s network and servers.

    The default *deterministic* service keeps the entire run free of
    randomness except what the trace itself encodes, making replays of
    two assignments exactly paired.  ``seed`` only matters with
    ``service="exponential"``.
    """
    check_nonnegative(drain_s, "drain_s")
    world = _build_world(assignment, MetricsRecorder(), seed, service)
    problem, recorder, fabric = world.problem, world.recorder, world.fabric
    device_by_id = {d.device_id: d for d in problem.devices}
    for entry in trace.entries:
        if entry.device_id not in device_by_id:
            raise ValidationError(
                f"trace references unknown device {entry.device_id}"
            )

    for task_id, entry in enumerate(trace.entries):
        device = device_by_id[entry.device_id]
        server_index = int(world.vector[device.device_id])
        task = Task(
            task_id=task_id,
            device_id=device.device_id,
            server_id=problem.servers[server_index].server_id,
            size_bits=entry.size_bits,
            compute_units=entry.compute_units,
            created_at=entry.time_s,
            deadline_s=device.deadline_s,
        )
        queue = world.queues[server_index]
        path = world.paths[device.device_id]

        def launch(task=task, path=path, queue=queue) -> None:
            """Count the task as created and send it toward its server."""
            recorder.on_created(task)
            fabric.forward(task, path, queue.submit)

        world.sim.schedule_at(entry.time_s, launch)

    world.sim.run(until=trace.horizon_s + drain_s)
    return _finish(world, trace.horizon_s)


def paired_comparison(
    baseline: Assignment,
    candidate: Assignment,
    trace: Trace,
    seed: int = 0,
) -> dict[str, float]:
    """Replay one trace through two assignments and report the deltas.

    Returns a dict with both means and the candidate-minus-baseline
    differences (negative = candidate faster).
    """
    if baseline.problem is not candidate.problem:
        raise ValidationError("paired comparison requires assignments of one problem")
    base_report = replay_trace(baseline, trace, seed=seed)
    cand_report = replay_trace(candidate, trace, seed=seed)
    return {
        "baseline_mean_network_ms": base_report.mean_network_latency_ms,
        "candidate_mean_network_ms": cand_report.mean_network_latency_ms,
        "delta_mean_network_ms": (
            cand_report.mean_network_latency_ms - base_report.mean_network_latency_ms
        ),
        "baseline_p99_total_ms": base_report.p99_total_latency_ms,
        "candidate_p99_total_ms": cand_report.p99_total_latency_ms,
        "delta_p99_total_ms": (
            cand_report.p99_total_latency_ms - base_report.p99_total_latency_ms
        ),
    }
