"""One-call chaos simulation: an assignment replayed under faults.

:func:`simulate_with_faults` is the fault-injection counterpart of
:func:`~repro.sim.runner.simulate_assignment`: same topology-backed
problem, same traffic model, but every task flows through a
:class:`~repro.faults.dispatch.TaskDispatcher` (timeout / retry /
failover per the chosen policy) while a
:class:`~repro.faults.injector.FaultInjector` drives the scenario's
crashes, stragglers and link degradations against the live components.

Determinism: the arrival and service processes use exactly the same
derived seeds as the fault-free runner, so for a fixed ``seed`` the
*offered load* is identical across dispatch modes — the comparison the
X6 experiment relies on.  The dispatcher's backoff jitter draws from
its own derived stream, so retries don't perturb arrivals either.
"""

from __future__ import annotations

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
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRecorder, SimReport
from repro.sim.network import NetworkFabric
from repro.sim.runner import device_paths
from repro.sim.server import EdgeServerQueue
from repro.topology.delay import TransmissionDelayModel
from repro.utils.rng import derive_seed, make_rng
from repro.utils.validation import check_nonnegative, check_positive, require
from repro.workload.arrivals import ArrivalProcess, PoissonProcess
from repro.workload.tasks import TaskFactory


def simulate_with_faults(
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
    """Simulate ``assignment`` under ``scenario`` for ``duration_s``.

    Parameters beyond :func:`~repro.sim.runner.simulate_assignment`:

    mode:
        Dispatch mode — ``"none"`` (failed tasks are lost), ``"retry"``
        (re-send to the same server after backoff) or ``"failover"``
        (re-dispatch to the cheapest healthy alternate).
    policy:
        :class:`RetryPolicy` (timeout, retry budget, backoff shape);
        defaults to ``RetryPolicy()``.
    crash_policy:
        What a crash does to queued tasks — ``"drop"`` loses them,
        ``"requeue"`` parks them for post-repair service.
    window_s:
        When set, the report carries a per-creation-window goodput
        timeline (see :meth:`MetricsRecorder.goodput_timeline`).
    """
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

    sim = Simulator()
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
    )
    injector = FaultInjector(
        sim,
        scenario,
        queues={index: queue for index, queue in enumerate(queues)},
        fabric=fabric,
    )

    factory = task_factory if task_factory is not None else TaskFactory()
    sources: list[IoTTrafficSource] = []
    vector = assignment.vector
    paths = device_paths(problem, vector, delay_model.link_weight)
    for server_index, server in enumerate(problem.servers):
        for device_index in np.flatnonzero(vector == server_index):
            device = problem.devices[int(device_index)]
            path = paths[int(device_index)]
            dispatcher.seed_path(device.device_id, server_index, path)
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
