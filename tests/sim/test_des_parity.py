"""The DES core and its runners, pinned to the dataclass-event oracle.

Every runner (``simulate_assignment``, ``replay_trace``,
``paired_comparison``, ``simulate_with_faults``) must produce exactly the
report its copy in :mod:`tests.sim.oracle` produces: the pickled
:class:`~repro.sim.metrics.SimReport` is compared byte for byte.  Raw
:class:`~repro.sim.engine.Simulator` programs (relative and absolute
scheduling, cancellation from outside and from inside callbacks, server
crashes, repairs and withdrawals) must fire the same callbacks at the
same instants as on :class:`~tests.sim.oracle.OracleSimulator`.
"""

from __future__ import annotations

import functools
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.faults import FaultScenario, RetryPolicy, simulate_with_faults
from repro.faults.scenario import FaultEventSpec, compose
from repro.model.entities import EdgeServer
from repro.model.instances import topology_instance
from repro.model.solution import Assignment
from repro.obs import names
from repro.sim.engine import Simulator
from repro.sim.runner import device_paths, simulate_assignment
from repro.sim.server import EdgeServerQueue
from repro.sim.task import Task
from repro.sim.trace_runner import paired_comparison, replay_trace
from repro.topology.delay import TransmissionDelayModel
from repro.workload.arrivals import MMPPProcess, PeriodicProcess, PoissonProcess
from repro.workload.traces import generate_trace
from tests.sim.oracle import (
    OracleSimulator,
    oracle_paired_comparison,
    oracle_replay_trace,
    oracle_simulate_assignment,
    oracle_simulate_with_faults,
)


@functools.lru_cache(maxsize=None)
def _problem(seed: int):
    return topology_instance(
        n_routers=15, n_devices=10, n_servers=3, tightness=0.6, seed=seed,
        deadline_s=0.05,
    )


@st.composite
def assignments(draw):
    """A complete (not necessarily feasible) assignment of a small topology."""
    problem = _problem(draw(st.sampled_from([11, 12])))
    vector = draw(st.lists(st.integers(0, problem.n_servers - 1),
                           min_size=problem.n_devices, max_size=problem.n_devices))
    return Assignment(problem, np.array(vector, dtype=np.int64))


#: per-device arrival overrides, built fresh per run (MMPP keeps state)
_OVERRIDES = {
    "poisson": lambda: PoissonProcess(3.0),
    "periodic": lambda: PeriodicProcess(0.4, jitter=0.3),
    "mmpp": lambda: MMPPProcess(1.0, 8.0, mean_calm_s=1.0, mean_burst_s=0.5),
}


def _arrivals(plan: "dict[int, str] | None"):
    if plan is None:
        return None
    return {device: _OVERRIDES[kind]() for device, kind in plan.items()}


def _same(got, expected) -> None:
    assert pickle.dumps(got) == pickle.dumps(expected)


class TestRunnerParity:
    @settings(max_examples=40, deadline=None)
    @given(
        assignment=assignments(),
        seed=st.integers(0, 2**16),
        duration_s=st.sampled_from([1.0, 2.5]),
        rate_scale=st.sampled_from([0.5, 1.0, 2.0]),
        drain_s=st.sampled_from([0.0, 1.0, 5.0]),
        service=st.sampled_from(["exponential", "deterministic"]),
        warmup=st.booleans(),
        overrides=st.none() | st.dictionaries(
            st.integers(0, 9), st.sampled_from(sorted(_OVERRIDES)), max_size=4),
    )
    def test_simulate_assignment(self, assignment, seed, duration_s, rate_scale,
                                 drain_s, service, warmup, overrides):
        kwargs = dict(duration_s=duration_s, seed=seed, rate_scale=rate_scale,
                      drain_s=drain_s, service=service,
                      warmup_s=duration_s / 4 if warmup else 0.0)
        _same(simulate_assignment(assignment, arrivals=_arrivals(overrides), **kwargs),
              oracle_simulate_assignment(assignment, arrivals=_arrivals(overrides),
                                         **kwargs))

    @settings(max_examples=30, deadline=None)
    @given(
        baseline=assignments(),
        other=st.lists(st.integers(0, 2), min_size=10, max_size=10),
        trace_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        horizon_s=st.sampled_from([1.0, 3.0]),
        drain_s=st.sampled_from([0.0, 5.0]),
        service=st.sampled_from(["exponential", "deterministic"]),
    )
    def test_replay_trace_and_paired_comparison(self, baseline, other, trace_seed,
                                                seed, horizon_s, drain_s, service):
        trace = generate_trace(baseline.problem.devices, horizon_s, seed=trace_seed)
        _same(replay_trace(baseline, trace, seed=seed, drain_s=drain_s, service=service),
              oracle_replay_trace(baseline, trace, seed=seed, drain_s=drain_s,
                                  service=service))
        candidate = Assignment(baseline.problem, np.array(other, dtype=np.int64))
        _same(paired_comparison(baseline, candidate, trace, seed=seed),
              oracle_paired_comparison(baseline, candidate, trace, seed=seed))

    @settings(max_examples=40, deadline=None)
    @given(
        assignment=assignments(),
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(["none", "retry", "failover"]),
        crash_policy=st.sampled_from(["drop", "requeue"]),
        window_s=st.sampled_from([None, 0.5, 1.0]),
        timeout_s=st.sampled_from([None, 0.05, 0.2]),
        max_retries=st.integers(0, 3),
        crash=st.tuples(st.integers(0, 2), st.sampled_from([0.3, 1.0]),
                        st.sampled_from([None, 0.5, 2.0])),
        chaos_seed=st.none() | st.integers(0, 2**16),
        degrade=st.none() | st.tuples(st.sampled_from([0.2, 1.0]),
                                      st.sampled_from([0.0, 0.01])),
        warmup=st.booleans(),
        overrides=st.none() | st.dictionaries(
            st.integers(0, 9), st.sampled_from(sorted(_OVERRIDES)), max_size=3),
    )
    def test_simulate_with_faults(self, assignment, seed, mode, crash_policy,
                                  window_s, timeout_s, max_retries, crash,
                                  chaos_seed, degrade, warmup, overrides):
        server, at_s, repair_after = crash
        parts = [FaultScenario.single_crash(
            server, at_s, None if repair_after is None else at_s + repair_after)]
        if chaos_seed is not None:
            parts.append(FaultScenario.random(3, 2.0, chaos_seed, crash_rate_hz=0.5,
                                              mean_downtime_s=0.4, slowdown_prob=0.5))
        if degrade is not None:
            problem = assignment.problem
            weight = TransmissionDelayModel().link_weight
            hops = [path.nodes for path in
                    device_paths(problem, assignment.vector, weight).values()
                    if len(path.nodes) > 1]
            if hops:
                parts.append(FaultScenario(events=(FaultEventSpec(
                    at_s=degrade[0], kind="link_degrade", u=hops[0][0], v=hops[0][1],
                    factor=0.3, extra_latency_s=0.005, jitter_s=degrade[1],
                    duration_s=1.0),)))
        scenario = compose(*parts)
        kwargs = dict(duration_s=2.0, seed=seed, mode=mode, crash_policy=crash_policy,
                      policy=RetryPolicy(max_retries=max_retries, timeout_s=timeout_s),
                      drain_s=3.0, window_s=window_s, warmup_s=0.5 if warmup else 0.0,
                      rate_scale=2.0)
        _same(simulate_with_faults(assignment, scenario, arrivals=_arrivals(overrides),
                                   **kwargs),
              oracle_simulate_with_faults(assignment, scenario,
                                          arrivals=_arrivals(overrides), **kwargs))

    def test_observed_runs_record_the_same_sim_metrics(self):
        """With obs on, both engines count the same events and queue depths."""
        problem = _problem(11)
        assignment = Assignment(problem, np.arange(problem.n_devices) % 3)
        scenario = FaultScenario.single_crash(0, 0.5, 1.5)
        snapshots = []
        for simulate, run_faults in (
            (simulate_assignment, simulate_with_faults),
            (oracle_simulate_assignment, oracle_simulate_with_faults),
        ):
            with obs.observed() as session:
                simulate(assignment, duration_s=2.0, seed=4)
                run_faults(assignment, scenario, duration_s=2.0, seed=4, mode="failover")
                snap = session.snapshot()
            snapshots.append((
                {k: v for k, v in snap["counters"].items() if k.startswith("sim/")},
                snap["histograms"][names.SIM_EVENT_QUEUE_DEPTH]["count"],
                snap["histograms"][names.SIM_EVENT_QUEUE_DEPTH]["sum"],
            ))
        assert snapshots[0] == snapshots[1]
        assert snapshots[0][0][names.SIM_EVENTS] > 0


# ----------------------------------------------------------------------
# raw engine programs
# ----------------------------------------------------------------------
_OPS = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.1, 0.25, 1.0])),
    st.tuples(st.just("schedule_at"), st.sampled_from([0.0, 0.25, 0.5, 2.0])),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("nested"), st.sampled_from([0.0, 0.25]),
              st.integers(0, 40)),
)


def _run_program(sim, ops, until):
    """Run ``ops`` on ``sim``; returns what fired, when, and the final clock.

    A ``nested`` event, when it fires, cancels an earlier handle and
    schedules a child, so cancellation and scheduling also happen from
    inside callbacks.
    """
    fired = []
    handles = []

    def callback(label):
        def fire():
            fired.append((label, sim.now))
        return fire

    def nested(label, delay, victim):
        def fire():
            fired.append((label, sim.now))
            handles[victim % len(handles)].cancel()
            handles.append(sim.schedule(delay, callback(f"{label}/child")))
        return fire

    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "schedule":
            handles.append(sim.schedule(op[1], callback(index)))
        elif kind == "schedule_at":
            handles.append(sim.schedule_at(op[1], callback(index)))
        elif kind == "cancel" and handles:
            handles[op[1] % len(handles)].cancel()
        elif kind == "nested":
            handles.append(sim.schedule(op[1], nested(index, op[1], op[2])))
    sim.run(until=until)
    return fired, sim.now, sim.events_processed


def _server() -> EdgeServer:
    return EdgeServer(server_id=0, node_id=0, capacity=10.0, service_rate=4.0)


def _run_server(sim, arrivals, lifecycle, service, crash_policy):
    """Tasks arrive at a server that crashes, recovers and withdraws tasks."""
    log = []
    queue = EdgeServerQueue(
        sim, _server(), rng=np.random.default_rng(5), service=service,
        on_complete=lambda task: log.append(("done", task.task_id, sim.now)),
        on_failed=lambda task, reason: log.append((reason, task.task_id, sim.now)),
        crash_policy=crash_policy,
    )
    tasks = []
    for task_id, (at_s, compute) in enumerate(arrivals):
        task = Task(task_id=task_id, device_id=0, server_id=0, size_bits=1e3,
                    compute_units=compute, created_at=at_s)
        tasks.append(task)
        sim.schedule_at(at_s, functools.partial(queue.submit, task))
    actions = {"fail": queue.fail, "recover": queue.recover}
    for at_s, action, target in lifecycle:
        if action == "withdraw":
            victim = tasks[target % len(tasks)]
            sim.schedule_at(at_s, lambda v=victim: log.append(
                ("withdraw", v.task_id, sim.now, queue.withdraw(v))))
        else:
            sim.schedule_at(at_s, actions[action])
    sim.run()
    return log, sim.now, sim.events_processed, queue.busy_time, queue.tasks_rejected


class TestEngineParity:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_OPS, min_size=1, max_size=40),
           until=st.none() | st.sampled_from([0.0, 0.3, 1.0, 5.0]))
    def test_programs_fire_identically(self, ops, until):
        assert (_run_program(Simulator(), ops, until)
                == _run_program(OracleSimulator(), ops, until))

    @settings(max_examples=100, deadline=None)
    @given(
        arrivals=st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.2, 0.5, 1.0]),
                                    st.sampled_from([0.2, 0.5, 1.0])),
                          min_size=1, max_size=15),
        lifecycle=st.lists(st.tuples(st.sampled_from([0.05, 0.1, 0.3, 0.6, 1.5]),
                                     st.sampled_from(["fail", "recover", "withdraw"]),
                                     st.integers(0, 20)),
                           max_size=8),
        service=st.sampled_from(["exponential", "deterministic"]),
        crash_policy=st.sampled_from(["drop", "requeue"]),
    )
    def test_server_lifecycle_identical(self, arrivals, lifecycle, service,
                                        crash_policy):
        args = (arrivals, lifecycle, service, crash_policy)
        assert _run_server(Simulator(), *args) == _run_server(OracleSimulator(), *args)
