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

from repro.errors import SimulationError
from repro.faults.dispatch import TaskDispatcher
from repro.faults.injector import FaultInjector
from repro.faults.policies import RetryPolicy
from repro.faults.scenario import FaultScenario
from repro.model.solution import Assignment
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.sim.metrics import MetricsRecorder, SimReport
from repro.sim.runner import _build_world, _finish, _start_sources
from repro.utils.rng import derive_seed, make_rng
from repro.utils.validation import check_nonnegative, check_positive, require
from repro.workload.arrivals import ArrivalProcess
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
    check_positive(duration_s, "duration_s")
    check_positive(rate_scale, "rate_scale")
    check_nonnegative(drain_s, "drain_s")
    check_nonnegative(warmup_s, "warmup_s")
    require(warmup_s < duration_s, "warmup_s must be shorter than duration_s")
    if policy is None:
        policy = RetryPolicy()
    world = _build_world(
        assignment,
        MetricsRecorder(warmup_s=warmup_s, window_s=window_s),
        seed,
        service,
        crash_policy=crash_policy,
        fabric_rng=make_rng(derive_seed(seed, "fault-link-jitter")),
    )
    problem, recorder = world.problem, world.recorder
    dispatcher = TaskDispatcher(
        sim=world.sim,
        problem=problem,
        queues=world.queues,
        fabric=world.fabric,
        recorder=recorder,
        policy=policy,
        mode=mode,
        rng=make_rng(derive_seed(seed, "fault-dispatch")),
        home_paths={
            (problem.devices[device].device_id, int(world.vector[device])): path
            for device, path in world.paths.items()
        },
    )
    injector = FaultInjector(
        world.sim,
        scenario,
        queues=dict(enumerate(world.queues)),
        fabric=world.fabric,
    )

    with obs_runtime.tracer().span(
        obs_names.SPAN_CHAOS,
        scenario=scenario.name,
        fault_events=len(scenario),
        mode=mode,
        duration_s=duration_s,
        sources=len(world.paths),
    ):
        injector.arm()
        _start_sources(
            world, duration_s, seed, rate_scale, task_factory, arrivals,
            sink_for=dispatcher.sink_for,
        )
        world.sim.run(until=duration_s + drain_s)

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
    return _finish(world, duration_s)
