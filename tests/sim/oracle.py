"""The dataclass-event DES core and its three runners, kept as the reference.

:class:`OracleEventQueue` is the binary heap of ``@dataclass(order=True)``
:class:`OracleEvent` objects compared on ``(time, seq)``, and
:class:`OracleSimulator` is the run loop over it that validates every
delay with :func:`~repro.utils.validation.check_nonnegative` and bumps the
obs counters once per event.  The ``oracle_*`` functions are the three
runners as they were before the shared world builder: each validates
the assignment, builds its own engine, fabric and queues, routes its
devices, and finishes on its own.  They drive the production components
(links, servers, sources, dispatcher, injector, recorder) on the oracle
engine.

The production runners must reproduce these byte for byte: the same
pickled :class:`~repro.sim.metrics.SimReport`.  One deliberate
departure from the original: the oracle fault runner hands the
dispatcher its home routes at construction, because the dispatcher no
longer has a per-route setter.  The oracle engine still accepts an
infinite ``schedule_at`` time, as the original did; the production
engine rejects it.  Only tests and the CI parity job import this module.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.faults.dispatch import TaskDispatcher
from repro.faults.injector import FaultInjector
from repro.faults.policies import RetryPolicy
from repro.faults.scenario import FaultScenario
from repro.model.solution import Assignment
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.sim.device import IoTTrafficSource
from repro.sim.metrics import MetricsRecorder, SimReport
from repro.sim.network import NetworkFabric
from repro.sim.runner import device_paths
from repro.sim.server import EdgeServerQueue
from repro.sim.task import Task
from repro.topology.delay import TransmissionDelayModel
from repro.utils.rng import derive_seed, make_rng
from repro.utils.validation import check_nonnegative, check_positive, require
from repro.workload.arrivals import ArrivalProcess, PoissonProcess
from repro.workload.tasks import TaskFactory
from repro.workload.traces import Trace


@dataclass(order=True)
class OracleEvent:
    """A scheduled callback; comparison uses only (time, seq)."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event as dead; the engine skips it when popped."""
        self.cancelled = True


class OracleEventQueue:
    """Binary-heap future-event list."""

    def __init__(self) -> None:
        self._heap: list[OracleEvent] = []
        self._counter = itertools.count()

    def push(self, time: float, callback: Callable[[], None]) -> OracleEvent:
        """Enqueue ``callback`` to fire at ``time``; returns a cancellable handle."""
        event = OracleEvent(time=time, seq=next(self._counter), callback=callback)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> OracleEvent:
        """Remove and return the earliest live event."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        raise SimulationError("pop from empty event queue")

    def peek_time(self) -> "float | None":
        """Time of the earliest live event, or ``None`` if empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    @property
    def approx_len(self) -> int:
        """Heap size including cancelled events — O(1), for telemetry."""
        return len(self._heap)

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None


class OracleSimulator:
    """Event loop with a virtual clock (seconds)."""

    def __init__(self) -> None:
        self._queue = OracleEventQueue()
        self._now = 0.0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Return events processed."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> OracleEvent:
        """Fire ``callback`` after ``delay`` seconds of virtual time."""
        check_nonnegative(delay, "delay")
        return self._queue.push(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> OracleEvent:
        """Fire ``callback`` at absolute virtual ``time`` (not in the past)."""
        require(time >= self._now, f"cannot schedule at {time} before now={self._now}")
        return self._queue.push(time, callback)

    def run(self, until: "float | None" = None, max_events: int = 50_000_000) -> None:
        """Process events in order until the queue drains or ``until``."""
        if until is not None:
            check_nonnegative(until, "until")
        registry = obs_runtime.metrics()
        events_total = registry.counter(obs_names.SIM_EVENTS)
        depth_hist = registry.histogram(obs_names.SIM_EVENT_QUEUE_DEPTH)
        processed = 0
        while True:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            event = self._queue.pop()
            if event.time < self._now:  # pragma: no cover - defensive
                raise SimulationError(
                    f"time went backwards: event at {event.time} < now {self._now}"
                )
            self._now = event.time
            event.callback()
            processed += 1
            self._events_processed += 1
            events_total.inc()
            depth_hist.observe(self._queue.approx_len)
            if processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a zero-delay loop"
                )
        if until is not None and self._now < until:
            self._now = until


def oracle_simulate_assignment(
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
    """The fault-free runner over the oracle engine."""
    problem = assignment.problem
    if problem.graph is None or problem.devices is None or problem.servers is None:
        raise ValidationError(
            "simulation requires a topology-backed problem (use topology_instance)"
        )
    if not assignment.is_complete:
        raise ValidationError("cannot simulate a partial assignment")
    check_positive(duration_s, "duration_s")
    check_positive(rate_scale, "rate_scale")
    check_nonnegative(drain_s, "drain_s")
    check_nonnegative(warmup_s, "warmup_s")
    require(warmup_s < duration_s, "warmup_s must be shorter than duration_s")

    sim = OracleSimulator()
    recorder = MetricsRecorder(warmup_s=warmup_s)
    fabric = NetworkFabric(sim, problem.graph)
    delay_model = TransmissionDelayModel()

    queues: list[EdgeServerQueue] = []
    for server in problem.servers:
        queues.append(
            EdgeServerQueue(
                sim,
                server,
                rng=make_rng(derive_seed(seed, "server", server.server_id)),
                service=service,
                on_complete=recorder.on_completed,
            )
        )

    factory = task_factory if task_factory is not None else TaskFactory()
    sources: list[IoTTrafficSource] = []
    vector = assignment.vector
    paths = device_paths(problem, vector, delay_model.link_weight)
    for server_index, server in enumerate(problem.servers):
        for device_index in np.flatnonzero(vector == server_index):
            device = problem.devices[int(device_index)]
            process = (arrivals or {}).get(device.device_id) or PoissonProcess(
                device.rate_hz * rate_scale
            )
            if arrivals and device.device_id in arrivals and rate_scale != 1.0:
                process = arrivals[device.device_id]
            sources.append(
                IoTTrafficSource(
                    sim=sim,
                    device=device,
                    server_id=server.server_id,
                    path=paths[int(device_index)],
                    fabric=fabric,
                    server_queue=queues[server_index],
                    arrivals=process,
                    task_factory=factory,
                    rng=make_rng(derive_seed(seed, "device", device.device_id)),
                    horizon_s=duration_s,
                    on_created=recorder.on_created,
                )
            )

    with obs_runtime.tracer().span(
        obs_names.SPAN_SIM_RUN, duration_s=duration_s, sources=len(sources)
    ):
        for source in sources:
            source.start()
        sim.run(until=duration_s + drain_s)

    if recorder.tasks_completed_total > recorder.tasks_created:
        raise SimulationError(
            f"conservation violated: {recorder.tasks_completed_total} completed "
            f"> {recorder.tasks_created} created"
        )
    registry = obs_runtime.metrics()
    registry.counter(obs_names.SIM_TASKS_CREATED).inc(recorder.tasks_created)
    registry.counter(obs_names.SIM_TASKS_COMPLETED).inc(recorder.tasks_completed_total)
    utilizations = [q.utilization(duration_s) for q in queues]
    if registry.enabled:
        link_hist = registry.histogram(obs_names.SIM_LINK_UTILIZATION)
        for value in fabric.link_utilization(duration_s).values():
            link_hist.observe(value)
        for queue, value in zip(queues, utilizations):
            registry.gauge(
                obs_names.SIM_SERVER_UTILIZATION,
                {"server": str(queue.server.server_id)},
            ).set(value)
    return recorder.report(
        duration_s=duration_s,
        server_utilization=utilizations,
    )


def oracle_replay_trace(
    assignment: Assignment,
    trace: Trace,
    seed: int = 0,
    drain_s: float = 5.0,
    service: str = "deterministic",
) -> SimReport:
    """The trace replay over the oracle engine."""
    problem = assignment.problem
    if problem.graph is None or problem.devices is None or problem.servers is None:
        raise ValidationError("trace replay requires a topology-backed problem")
    if not assignment.is_complete:
        raise ValidationError("cannot replay a trace over a partial assignment")
    check_nonnegative(drain_s, "drain_s")
    device_by_id = {d.device_id: d for d in problem.devices}
    for entry in trace.entries:
        if entry.device_id not in device_by_id:
            raise ValidationError(
                f"trace references unknown device {entry.device_id}"
            )

    sim = OracleSimulator()
    recorder = MetricsRecorder()
    fabric = NetworkFabric(sim, problem.graph)
    delay_model = TransmissionDelayModel()

    queues: list[EdgeServerQueue] = []
    for server in problem.servers:
        queues.append(
            EdgeServerQueue(
                sim,
                server,
                rng=make_rng(derive_seed(seed, "server", server.server_id)),
                service=service,
                on_complete=recorder.on_completed,
            )
        )

    vector = assignment.vector
    paths = device_paths(problem, vector, delay_model.link_weight)

    for task_id, entry in enumerate(trace.entries):
        device = device_by_id[entry.device_id]
        server_index = int(vector[device.device_id])
        task = Task(
            task_id=task_id,
            device_id=device.device_id,
            server_id=problem.servers[server_index].server_id,
            size_bits=entry.size_bits,
            compute_units=entry.compute_units,
            created_at=entry.time_s,
            deadline_s=device.deadline_s,
        )
        queue = queues[server_index]
        path = paths[device.device_id]

        def launch(task=task, path=path, queue=queue) -> None:
            recorder.on_created(task)
            fabric.forward(task, path, queue.submit)

        sim.schedule_at(entry.time_s, launch)

    sim.run(until=trace.horizon_s + drain_s)
    return recorder.report(
        duration_s=trace.horizon_s,
        server_utilization=[q.utilization(trace.horizon_s) for q in queues],
    )


def oracle_paired_comparison(
    baseline: Assignment,
    candidate: Assignment,
    trace: Trace,
    seed: int = 0,
) -> dict[str, float]:
    """The paired comparison over two oracle replays."""
    if baseline.problem is not candidate.problem:
        raise ValidationError("paired comparison requires assignments of one problem")
    base_report = oracle_replay_trace(baseline, trace, seed=seed)
    cand_report = oracle_replay_trace(candidate, trace, seed=seed)
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


def oracle_simulate_with_faults(
    assignment: Assignment,
    scenario: FaultScenario,
    duration_s: float = 60.0,
    seed: int = 0,
    mode: str = "retry",
    policy: "RetryPolicy | None" = None,
    crash_policy: str = "drop",
    rate_scale: float = 1.0,
    drain_s: float = 5.0,
    service: str = "exponential",
    task_factory: "TaskFactory | None" = None,
    arrivals: "dict[int, ArrivalProcess] | None" = None,
    warmup_s: float = 0.0,
    window_s: "float | None" = None,
) -> SimReport:
    """The chaos runner over the oracle engine."""
    problem = assignment.problem
    if problem.graph is None or problem.devices is None or problem.servers is None:
        raise ValidationError(
            "simulation requires a topology-backed problem (use topology_instance)"
        )
    if not assignment.is_complete:
        raise ValidationError("cannot simulate a partial assignment")
    check_positive(duration_s, "duration_s")
    check_positive(rate_scale, "rate_scale")
    check_nonnegative(drain_s, "drain_s")
    check_nonnegative(warmup_s, "warmup_s")
    require(warmup_s < duration_s, "warmup_s must be shorter than duration_s")
    if policy is None:
        policy = RetryPolicy()

    sim = OracleSimulator()
    recorder = MetricsRecorder(warmup_s=warmup_s, window_s=window_s)
    fabric = NetworkFabric(
        sim, problem.graph, rng=make_rng(derive_seed(seed, "fault-link-jitter"))
    )
    delay_model = TransmissionDelayModel()

    queues: list[EdgeServerQueue] = []
    for server in problem.servers:
        queues.append(
            EdgeServerQueue(
                sim,
                server,
                rng=make_rng(derive_seed(seed, "server", server.server_id)),
                service=service,
                crash_policy=crash_policy,
            )
        )

    vector = assignment.vector
    paths = device_paths(problem, vector, delay_model.link_weight)
    dispatcher = TaskDispatcher(
        sim=sim,
        problem=problem,
        queues=queues,
        fabric=fabric,
        recorder=recorder,
        policy=policy,
        mode=mode,
        rng=make_rng(derive_seed(seed, "fault-dispatch")),
        delay_model=delay_model,
        home_paths={
            (problem.devices[index].device_id, int(vector[index])): path
            for index, path in paths.items()
        },
    )
    injector = FaultInjector(
        sim,
        scenario,
        queues={index: queue for index, queue in enumerate(queues)},
        fabric=fabric,
    )

    factory = task_factory if task_factory is not None else TaskFactory()
    sources: list[IoTTrafficSource] = []
    for server_index, server in enumerate(problem.servers):
        for device_index in np.flatnonzero(vector == server_index):
            device = problem.devices[int(device_index)]
            path = paths[int(device_index)]
            process = (arrivals or {}).get(device.device_id) or PoissonProcess(
                device.rate_hz * rate_scale
            )
            if arrivals and device.device_id in arrivals and rate_scale != 1.0:
                process = arrivals[device.device_id]
            sources.append(
                IoTTrafficSource(
                    sim=sim,
                    device=device,
                    server_id=server.server_id,
                    path=path,
                    fabric=fabric,
                    server_queue=queues[server_index],
                    arrivals=process,
                    task_factory=factory,
                    rng=make_rng(derive_seed(seed, "device", device.device_id)),
                    horizon_s=duration_s,
                    on_created=recorder.on_created,
                    sink=dispatcher.sink_for(server_index),
                )
            )

    with obs_runtime.tracer().span(
        obs_names.SPAN_CHAOS,
        scenario=scenario.name,
        fault_events=len(scenario),
        mode=mode,
        duration_s=duration_s,
        sources=len(sources),
    ):
        injector.arm()
        for source in sources:
            source.start()
        sim.run(until=duration_s + drain_s)

    accounted = (
        recorder.tasks_completed_total
        + recorder.tasks_lost
        + dispatcher.tasks_in_flight
    )
    if accounted != recorder.tasks_created:
        raise SimulationError(
            f"conservation violated: created={recorder.tasks_created} != "
            f"completed={recorder.tasks_completed_total} + "
            f"lost={recorder.tasks_lost} + in_flight={dispatcher.tasks_in_flight}"
        )
    registry = obs_runtime.metrics()
    registry.counter(obs_names.SIM_TASKS_CREATED).inc(recorder.tasks_created)
    registry.counter(obs_names.SIM_TASKS_COMPLETED).inc(recorder.tasks_completed_total)
    utilizations = [q.utilization(duration_s) for q in queues]
    if registry.enabled:
        link_hist = registry.histogram(obs_names.SIM_LINK_UTILIZATION)
        for value in fabric.link_utilization(duration_s).values():
            link_hist.observe(value)
        for queue, value in zip(queues, utilizations):
            registry.gauge(
                obs_names.SIM_SERVER_UTILIZATION,
                {"server": str(queue.server.server_id)},
            ).set(value)
    return recorder.report(duration_s=duration_s, server_utilization=utilizations)
