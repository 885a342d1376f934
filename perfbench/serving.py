"""Online serve workloads: one trace, open loop then closed loop.

All load comes from this process: in-process clients, no sockets, one
thread (the event loop).  The assign/release trace and the Poisson
schedule are generated from the seed before anything is timed.

* ``serve-churn``  — the direct arm: ``AssignmentService`` alone;
* ``serve-routed`` — the same trace through ``ShardRouter`` over three
  in-process shards.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass
from statistics import median

import gates
import loadgen
import numpy as np

UNASSIGNED = gates.UNASSIGNED


#: the cluster every serve workload runs: 1000 devices, 20 servers on a
#: 120-router edge hierarchy (three top-level regions)
N_DEVICES, N_SERVERS, N_ROUTERS, TIGHTNESS = 1000, 20, 120, 0.6
WINDOW = 64  # closed-loop outstanding requests
RATE_HZ = 1000.0  # open-loop offered rate
OPEN_SHARE = 0.5  # share of the run spent in the open loop; the rest is closed
SETUPS = 3  # set-up repetitions; setup_s is their median
N_SHARDS = 3
#: ring seed whose hash puts each of the hierarchy's three regions on
#: its own shard
RING_SEED = 4


#: workload → whether it goes through the shard router.  serve-churn
#: is pure request-path plumbing (admission, batcher, state, asyncio);
#: serve-routed adds the router (forward, hedging, spill)
ROUTED = {"serve-churn": False, "serve-routed": True}

#: a p95-over-peers multiple no shard reaches: outlier ejection off
_NO_EJECTION = 1e9

#: longest wait, after the last answer, for hedge losers and their
#: clean-up releases to finish before the shards stop
_SETTLE_LIMIT_S = 5.0

#: closed-loop trace headroom: requests per second the trace can feed
_CLOSED_RATE_CAP = 12_000.0


@dataclass
class Arm:
    """A started service or router plus what the checks need."""

    client: object
    services: "dict[str, object]"
    router: "object | None" = None
    plan: "object | None" = None

    async def stop(self) -> None:
        if self.router is not None:
            await self.router.stop()
        for service in self.services.values():
            await service.stop()


async def _start_arm(problem, routed: bool) -> Arm:
    from repro.serve import AssignmentService, ServiceConfig
    from repro.serve.server import InProcessClient

    config = ServiceConfig()
    if not routed:
        service = AssignmentService(problem, config)
        await service.start()
        return Arm(InProcessClient(service), {"direct": service})
    from repro.shard import CircuitBreaker, InProcessBackend, ShardRouter, build_plan
    from repro.shard.latency import LatencyTracker

    plan = build_plan(problem, N_SHARDS, seed=RING_SEED)
    services, backends = {}, {}
    for shard in plan.shards:
        service = AssignmentService(plan.subproblem(problem, shard.name), config)
        await service.start()
        services[shard.name] = service
        backends[shard.name] = InProcessBackend(shard.name, service,
                                                CircuitBreaker())
    # all shards share this one event loop, so a shard whose p95 stands
    # out is seeing host stalls, not a gray failure: outlier ejection
    # stays off (see README, baseline findings)
    router = ShardRouter(plan, backends,
                         latency=LatencyTracker(ejection_multiplier=_NO_EJECTION))
    await router.start()
    return Arm(router, services, router=router, plan=plan)


def _build(seed: int):
    from repro import topology_instance

    return topology_instance(
        "edge_hierarchy", n_routers=N_ROUTERS, n_devices=N_DEVICES,
        n_servers=N_SERVERS, tightness=TIGHTNESS, seed=seed,
    )


async def _measure(name: str, seed: int, seconds: float, recorder,
                   probe_lag: bool) -> dict:
    from repro.serve.loadtest import generate_trace, replay_serial

    routed = ROUTED[name]
    # -- set-up, repeated; the last arm stays up for the timed phases
    setup_s, build_s = [], []
    arm = problem = None
    for _ in range(SETUPS):
        if arm is not None:
            await arm.stop()
        t0 = time.perf_counter()
        problem = _build(seed)
        t1 = time.perf_counter()
        arm = await _start_arm(problem, routed)
        setup_s.append(time.perf_counter() - t0)
        build_s.append(t1 - t0)

    # -- inputs, generated before timing
    open_s = seconds * OPEN_SHARE
    closed_s = seconds - open_s
    rng = np.random.default_rng([seed, 1])
    due = loadgen.poisson_offsets(rng, RATE_HZ, int(RATE_HZ * open_s))
    n_open = len(due)
    trace = generate_trace(
        N_DEVICES, n_open + int(_CLOSED_RATE_CAP * closed_s),
        seed=seed, release_ratio=0.45, priority_mix=(0.2, 0.6, 0.2),
    )
    # -- timed phases; the inputs above go to the permanent GC
    # generation so collections scan the program's heap, not the trace
    gc.collect()
    gc.freeze()
    lags: "list[float]" = []
    stop_probe = asyncio.Event()
    probe = (asyncio.create_task(loadgen.loop_lag_probe(stop_probe, lags))
             if probe_lag else None)
    # tasks that live for the whole run (the arm's batcher loops, the
    # lag probe); any other task pending after the last answer is work
    # still in flight
    resident = asyncio.all_tasks()
    recorder.start_window()
    timed_since = time.perf_counter()
    try:
        with recorder.span("bench.open_loop"):
            opened = await loadgen.drive(
                arm.client, trace[:n_open], due_s=due,
                before_send=recorder.new_group,
            )
        with recorder.span("bench.closed_loop"):
            closed = await loadgen.drive(
                arm.client, trace[n_open:], window=WINDOW,
                stop_after_s=closed_s, offset=n_open,
                before_send=recorder.new_group,
            )
        timed_s = time.perf_counter() - timed_since
        # every client answer is in; hedge losers may still land and
        # their clean-up releases run.  Stop the shards only once all
        # of that has finished, or count the run failed
        settled = await loadgen.settle(resident, _SETTLE_LIMIT_S)
        router_counts = _router_counts(arm.router)
    finally:
        stop_probe.set()
        if probe is not None:
            await probe
        await arm.stop()
        gc.unfreeze()

    # -- checks
    outcomes = opened.outcomes + closed.outcomes
    sent = trace[:n_open + closed.sent]
    violations = gates.statuses_ok(outcomes, name)
    if not settled:
        violations.append(f"{name}: tasks still in flight "
                          f"{_SETTLE_LIMIT_S:g} s after the last answer")
    held = gates.held_after(outcomes)
    vectors = {label: s.state.vector for label, s in arm.services.items()}
    for label, service in arm.services.items():
        violations += gates.capacity_feasible(
            service.state.problem, vectors[label], f"{name}.{label}")
    violations += gates.held_consistent(held, vectors, name)
    serial = not routed
    if serial and not any(o.status == "rejected" for o in outcomes):
        expected, _ = replay_serial(problem, sent)
        violations += gates.serial_pin(vectors["direct"], expected, name)
    standing = _global_vector(arm, problem)
    objective, bound = _certify(problem, standing)
    violations += gates.above_bound(objective, bound, f"{name}.standing")
    checks = 4 + len(arm.services) + serial

    latencies = [o.latency_ms for o in opened.outcomes]
    closed_ok = sum(o.status == "ok" for o in closed.outcomes)
    metrics = {
        "setup_s": median(setup_s),
        "goodput_per_s": closed_ok / closed.duration_s,
        "p50_ms": _percentile(latencies, 50),
    }
    notes = {
        "open_rate_hz": RATE_HZ,
        "open_requests": len(latencies),
        "p99_ms": _percentile(latencies, 99),
        "p999_ms": _percentile(latencies, 99.9),
        "closed_window": WINDOW,
        "closed_requests": closed.sent,
        "closed_s": closed.duration_s,
        "build_s": median(build_s),
        "holds": opened.holds + closed.holds,
        "held_devices": len(held),
        "assigned_delay_ms": objective / max(1, len(held)) * 1e3,
        "gap_pct": (objective / bound - 1.0) * 100.0 if bound > 0 else 0.0,
        "timed_s": timed_s,
    }
    timed = opened.outcomes + closed.outcomes
    queue_ms = [o.queue_ms for o in timed if o.queue_ms is not None]
    layer = {
        "driver.late_ms_p99": _percentile([o.late_ms for o in opened.outcomes], 99),
        "asyncio.loop_lag_ms_p99": _percentile(lags, 99) if lags else 0.0,
        "serve.queue_wait_ms_p50": _percentile(queue_ms, 50) if queue_ms else 0.0,
        "serve.queue_wait_ms_p99": _percentile(queue_ms, 99) if queue_ms else 0.0,
        "serve.rejected": sum(o.status == "rejected" for o in timed),
        "requests": len(timed),
        **router_counts,
    }
    return {"metrics": metrics, "notes": notes, "layer": layer,
            "attempted": len(outcomes) + checks, "violations": violations,
            "timed_since": timed_since, "timed_s": timed_s}


def run_serve(name: str, seed: int, seconds: float, recorder,
              probe_lag: bool = False) -> dict:
    """Measure one serve workload in a fresh event loop."""
    return asyncio.run(_measure(name, seed, seconds, recorder, probe_lag))


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def _router_counts(router) -> dict:
    if router is None:
        return {"shard.hedges": 0, "shard.hedge_wins": 0, "shard.spillovers": 0}
    return {
        "shard.hedges": router.hedges_total,
        "shard.hedge_wins": router.hedge_wins_total,
        "shard.spillovers": router.spillovers_total,
    }


def _global_vector(arm: Arm, problem) -> np.ndarray:
    """The standing assignment in global server indices."""
    if arm.plan is None:
        return np.asarray(arm.services["direct"].state.vector).copy()
    vector = np.full(problem.n_devices, UNASSIGNED, dtype=np.int64)
    for label, service in arm.services.items():
        local = np.asarray(service.state.vector)
        for device in np.flatnonzero(local != UNASSIGNED):
            vector[device] = arm.plan.global_server(label, int(local[device]))
    return vector


def _certify(problem, vector) -> "tuple[float, float]":
    """(standing delay, LP lower bound) over the devices held at the end."""
    from repro.model.problem import AssignmentProblem
    from repro.solvers.lp import lp_lower_bound

    held = np.flatnonzero(vector != UNASSIGNED)
    if held.size == 0:
        return 0.0, 0.0
    objective = float(problem.delay[held, vector[held]].sum())
    sub = AssignmentProblem(
        delay=problem.delay[held], demand=problem.demand[held],
        capacity=problem.capacity, name=f"{problem.name}|held={held.size}",
    )
    return objective, float(lp_lower_bound(sub))
