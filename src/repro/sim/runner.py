"""One-call replay of a solved assignment as live traffic.

:func:`simulate_assignment` builds the whole simulation — fabric,
server queues, traffic sources, recorder — from a topology-backed
problem and a complete assignment, runs it for the requested horizon
plus a drain period, and returns the :class:`~repro.sim.metrics.SimReport`.

The world itself (engine, fabric, per-server queues and packet routes)
is built by :func:`_build_world`, which the trace replay and the fault
runner share; :func:`_start_sources` and :func:`_finish` are the
traffic start and the report every runner ends with.

This is the bridge the F5 experiment crosses: solver results computed
on the static delay matrix are fed back in here, and the *measured*
latencies and deadline misses are what the figure reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRecorder, SimReport
from repro.sim.network import NetworkFabric
from repro.sim.server import EdgeServerQueue
from repro.sim.device import IoTTrafficSource
from repro.sim.task import Task
from repro.topology.delay import TransmissionDelayModel
from repro.topology.routing import Path, WeightFn, routing_paths_many
from repro.utils.rng import derive_seed, make_rng
from repro.utils.validation import check_nonnegative, check_positive, require
from repro.workload.arrivals import ArrivalProcess, PoissonProcess
from repro.workload.tasks import TaskFactory


def device_paths(
    problem: AssignmentProblem, vector: np.ndarray, weight_fn: WeightFn
) -> dict[int, Path]:
    """Each assigned device's packet route to its server, by device index.

    One shortest-path call covers every server that has devices.
    """
    def node(i) -> int:
        return problem.devices[int(i)].node_id

    groups = {
        problem.servers[j].node_id: np.flatnonzero(vector == j)
        for j in range(len(problem.servers))
    }
    groups = {server: assigned for server, assigned in groups.items() if assigned.size}
    routes = routing_paths_many(
        problem.graph,
        {server: [node(i) for i in assigned] for server, assigned in groups.items()},
        weight_fn,
    )
    return {
        int(i): routes[server][node(i)]
        for server, assigned in groups.items()
        for i in assigned
    }


@dataclass
class _World:
    """One simulated deployment, ready for traffic."""

    problem: AssignmentProblem
    vector: np.ndarray
    sim: Simulator
    recorder: MetricsRecorder
    fabric: NetworkFabric
    queues: list[EdgeServerQueue]
    #: device index -> packet route to its assigned server
    paths: dict[int, Path]


def _build_world(
    assignment: Assignment,
    recorder: MetricsRecorder,
    seed: int,
    service: str,
    crash_policy: str = "drop",
    fabric_rng: "np.random.Generator | None" = None,
) -> _World:
    """Validate ``assignment`` and build the engine, fabric, queues and routes."""
    problem = assignment.problem
    if problem.graph is None or problem.devices is None or problem.servers is None:
        raise ValidationError(
            "simulation requires a topology-backed problem (use topology_instance)"
        )
    if not assignment.is_complete:
        raise ValidationError("cannot simulate a partial assignment")
    sim = Simulator()
    fabric = NetworkFabric(sim, problem.graph, rng=fabric_rng)
    queues = [
        EdgeServerQueue(
            sim,
            server,
            rng=make_rng(derive_seed(seed, "server", server.server_id)),
            service=service,
            on_complete=recorder.on_completed,
            crash_policy=crash_policy,
        )
        for server in problem.servers
    ]
    vector = assignment.vector
    paths = device_paths(problem, vector, TransmissionDelayModel().link_weight)
    return _World(problem, vector, sim, recorder, fabric, queues, paths)


def _start_sources(
    world: _World,
    duration_s: float,
    seed: int,
    rate_scale: float,
    task_factory: "TaskFactory | None",
    arrivals: "dict[int, ArrivalProcess] | None",
    sink_for: "Callable[[int], Callable[[Task], None]] | None" = None,
) -> None:
    """Start one traffic source per device, server by server.

    Devices default to Poisson at ``rate_hz * rate_scale``; an
    ``arrivals`` override is used as-is.  ``sink_for(server_index)``,
    when given, replaces the direct hand-off to the server queue.
    """
    factory = task_factory if task_factory is not None else TaskFactory()
    overrides = arrivals or {}
    for server_index, server in enumerate(world.problem.servers):
        for device_index in np.flatnonzero(world.vector == server_index):
            device = world.problem.devices[int(device_index)]
            IoTTrafficSource(
                sim=world.sim,
                device=device,
                server_id=server.server_id,
                path=world.paths[int(device_index)],
                fabric=world.fabric,
                server_queue=world.queues[server_index],
                arrivals=overrides.get(device.device_id)
                or PoissonProcess(device.rate_hz * rate_scale),
                task_factory=factory,
                rng=make_rng(derive_seed(seed, "device", device.device_id)),
                horizon_s=duration_s,
                on_created=world.recorder.on_created,
                sink=None if sink_for is None else sink_for(server_index),
            ).start()


def _finish(world: _World, duration_s: float) -> SimReport:
    """Check conservation, emit the run's task and utilization metrics, freeze the report."""
    recorder = world.recorder
    if recorder.tasks_completed_total > recorder.tasks_created:
        raise SimulationError(
            f"conservation violated: {recorder.tasks_completed_total} completed "
            f"> {recorder.tasks_created} created"
        )
    registry = obs_runtime.metrics()
    registry.counter(obs_names.SIM_TASKS_CREATED).inc(recorder.tasks_created)
    registry.counter(obs_names.SIM_TASKS_COMPLETED).inc(recorder.tasks_completed_total)
    utilizations = [q.utilization(duration_s) for q in world.queues]
    if registry.enabled:
        link_hist = registry.histogram(obs_names.SIM_LINK_UTILIZATION)
        for value in world.fabric.link_utilization(duration_s).values():
            link_hist.observe(value)
        for queue, value in zip(world.queues, utilizations):
            registry.gauge(
                obs_names.SIM_SERVER_UTILIZATION,
                {"server": str(queue.server.server_id)},
            ).set(value)
    return recorder.report(duration_s=duration_s, server_utilization=utilizations)


def simulate_assignment(
    assignment: Assignment,
    duration_s: float = 60.0,
    seed: int = 0,
    rate_scale: float = 1.0,
    drain_s: float = 5.0,
    service: str = "exponential",
    task_factory: "TaskFactory | None" = None,
    arrivals: "dict[int, ArrivalProcess] | None" = None,
    warmup_s: float = 0.0,
) -> SimReport:
    """Simulate ``assignment`` for ``duration_s`` of virtual time.

    Parameters
    ----------
    assignment:
        A complete assignment over a topology-backed problem (one built
        by :func:`~repro.model.instances.topology_instance`).
    rate_scale:
        Multiplies every device's arrival rate — the load knob of the
        deadline-miss sweep.
    drain_s:
        Extra virtual time after generation stops so in-flight tasks
        can finish; their latencies are still recorded.
    service:
        ``"exponential"`` (M/M/1-like servers) or ``"deterministic"``.
    arrivals:
        Optional per-device arrival-process overrides (device_id →
        process); other devices default to Poisson at their entity rate.
        Overrides are used as-is: ``rate_scale`` does not scale them.
    warmup_s:
        Tasks created before this instant are excluded from the
        latency/deadline statistics (standard transient removal).
    """
    check_positive(duration_s, "duration_s")
    check_positive(rate_scale, "rate_scale")
    check_nonnegative(drain_s, "drain_s")
    check_nonnegative(warmup_s, "warmup_s")
    require(warmup_s < duration_s, "warmup_s must be shorter than duration_s")
    world = _build_world(assignment, MetricsRecorder(warmup_s=warmup_s), seed, service)

    with obs_runtime.tracer().span(
        obs_names.SPAN_SIM_RUN, duration_s=duration_s, sources=len(world.paths)
    ):
        _start_sources(world, duration_s, seed, rate_scale, task_factory, arrivals)
        world.sim.run(until=duration_s + drain_s)
    return _finish(world, duration_s)
