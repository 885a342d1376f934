"""Fast deterministic performance probes.

Each probe is a self-contained callable exercising one hot path of
the library on a fixed tiny workload (fixed seeds, quick-scale sizes)
so a full sweep of all probes stays in low single-digit seconds.  Three
probes are larger on purpose, so a core is timed where its scaling
shows: ``topology_build_wide`` builds a 2000-device instance (the
shortest-path core), ``solve_local_search_mid`` runs local search
on a 400-device instance (the move-delta kernel), and
``solve_tacc_search`` trains TACC for its default 400 episodes on a
150-device instance (the Q-learning step).
Probes measure *relative* speed across commits, not absolute paper
numbers — the benchmark suite under ``benchmarks/`` owns those.

Timing discipline: :func:`measure` runs each probe once unmeasured to
warm imports and caches, then ``repeats`` measured times, and reports
the **minimum** wall time — the standard noise-rejection estimator
for short benchmarks (interference only ever adds time).
"""

from __future__ import annotations

import functools
import time

from repro.utils.validation import require

__all__ = ["PROBES", "probe_names", "measure"]


def _tiny_problem():
    from repro.model.instances import topology_instance

    return topology_instance(
        family="random_geometric",
        n_routers=24,
        n_devices=20,
        n_servers=4,
        tightness=0.75,
        seed=7,
        deadline_s=0.05,
    )


def probe_topology_build_wide() -> None:
    """Build one 2000-device x 40-server topology instance.

    The build is shortest paths end to end: spread placement over 200
    routers, then the device x server delay matrix.  This is the probe
    at a size where the routing core's scaling shows.
    """
    from repro.model.instances import topology_instance

    topology_instance(
        family="random_geometric",
        n_routers=200,
        n_devices=2000,
        n_servers=40,
        tightness=0.75,
        seed=7,
    )


def probe_solve_greedy() -> None:
    """One greedy solve on a tiny topology instance."""
    from repro.solvers.registry import get_solver

    get_solver("greedy", seed=7).solve(_tiny_problem())


def probe_solve_local_search() -> None:
    """One local-search solve (the iterative-improvement hot loop)."""
    from repro.solvers.registry import get_solver

    get_solver("local_search", seed=7).solve(_tiny_problem())


@functools.lru_cache(maxsize=1)
def _mid_problem():
    from repro.model.instances import topology_instance

    return topology_instance(
        family="random_geometric",
        n_routers=120,
        n_devices=400,
        n_servers=16,
        tightness=0.75,
        seed=7,
    )


def probe_solve_local_search_mid() -> None:
    """One local-search solve on a 400-device x 16-server instance.

    Times the move-delta scan where it dominates; the instance is built
    once (during the warm-up run) and not timed.
    """
    from repro.solvers.registry import get_solver

    get_solver("local_search", seed=7).solve(_mid_problem())


@functools.lru_cache(maxsize=1)
def _search_problem():
    from repro.model.instances import topology_instance

    return topology_instance(
        family="random_geometric",
        n_routers=80,
        n_devices=150,
        n_servers=8,
        tightness=0.75,
        seed=7,
    )


def probe_solve_tacc_search() -> None:
    """One TACC solve (400 episodes) on a 150-device x 8-server instance.

    Training is nearly all of it: 60,000 environment steps with the
    Q-update and the Boltzmann explore.  The instance is built once
    (during the warm-up run) and not timed.
    """
    from repro.solvers.registry import get_solver

    get_solver("tacc", seed=7).solve(_search_problem())


def probe_sim_short() -> None:
    """A short DES replay of a solved assignment (event loop + network)."""
    from repro.sim.runner import simulate_assignment
    from repro.solvers.registry import get_solver

    result = get_solver("greedy", seed=7).solve(_tiny_problem())
    simulate_assignment(result.assignment, duration_s=4.0, seed=11)


def probe_engine_grid() -> None:
    """A 4-cell serial engine sweep (spec hashing + dispatch overhead)."""
    from repro.engine import EngineOptions, JobSpec, run_jobs

    instance_json = _tiny_problem().to_json()
    specs = [
        JobSpec(
            experiment="perf-probe",
            fn="repro.cli.commands:compare_cell",
            params={"solver": name, "instance_json": instance_json},
            seed=7,
            label=f"probe {name}",
        )
        for name in ("greedy", "regret", "greedy", "regret")
    ]
    run_jobs(specs, EngineOptions(jobs=1))


def _tiny_loadtest(n_requests: int):
    """One fixed-seed in-process loadtest run; returns the report."""
    import asyncio

    from repro.serve import (
        AssignmentService,
        InProcessClient,
        LoadTestConfig,
        ServiceConfig,
        run_loadtest,
    )

    problem = _tiny_problem()
    config = LoadTestConfig(
        n_requests=n_requests, rate_hz=50_000.0, profile="poisson", seed=7
    )

    async def scenario():
        service = AssignmentService(problem, ServiceConfig(max_queue=100_000))
        await service.start()
        try:
            return await run_loadtest(
                InProcessClient(service),
                problem.n_devices,
                config,
                collect_stats=False,
            )
        finally:
            await service.stop()

    return asyncio.run(scenario())


def probe_serve_loadtest_p99() -> float:
    """p99 request latency (seconds) of a fixed-seed in-process loadtest."""
    return _tiny_loadtest(300).latency_ms["p99"] / 1e3


def probe_serve_throughput() -> None:
    """Wall time to serve a fixed-size loadtest (inverse throughput)."""
    _tiny_loadtest(500)


def _tiny_sharded_loadtest(n_requests: int):
    """The same fixed-seed loadtest through an in-process shard router."""
    import asyncio

    from repro.serve import (
        AssignmentService,
        LoadTestConfig,
        ServiceConfig,
        run_loadtest,
    )
    from repro.shard import InProcessBackend, ShardRouter, build_plan

    problem = _tiny_problem()
    plan = build_plan(problem, 3)
    config = LoadTestConfig(
        n_requests=n_requests, rate_hz=50_000.0, profile="poisson", seed=7
    )

    async def scenario():
        services = {}
        backends = {}
        for spec in plan.shards:
            service = AssignmentService(
                plan.subproblem(problem, spec.name),
                ServiceConfig(max_queue=100_000),
            )
            await service.start()
            services[spec.name] = service
            backends[spec.name] = InProcessBackend(spec.name, service)
        router = ShardRouter(plan, backends)
        await router.start()
        try:
            return await run_loadtest(
                router, problem.n_devices, config, collect_stats=False
            )
        finally:
            await router.stop()
            for service in services.values():
                if service.started:
                    await service.stop()

    return asyncio.run(scenario())


def probe_shard_loadtest_p99() -> float:
    """p99 request latency (seconds) through the sharded front end."""
    return _tiny_sharded_loadtest(300).latency_ms["p99"] / 1e3


def probe_shard_route_throughput() -> None:
    """Wall time to route a fixed-size loadtest across shards."""
    _tiny_sharded_loadtest(500)


def probe_serve_gray_p99() -> float:
    """p99 latency (seconds) of the defense stack under a gray wire.

    A fixed-seed sharded loadtest with deadlines and hedging on, over a
    scripted netem wire that drops a tenth of one shard's requests and
    holds another shard gray-slow — the serving tier's worst day,
    reduced to one number the perf gate can watch.
    """
    import asyncio

    from repro.netem import NetemBackend, NetemEngine, NetemRule, NetemScript
    from repro.serve import (
        AssignmentService,
        LoadTestConfig,
        ServiceConfig,
        run_loadtest,
    )
    from repro.shard import (
        InProcessBackend,
        RouterConfig,
        ShardRouter,
        build_plan,
    )

    problem = _tiny_problem()
    plan = build_plan(problem, 3)
    shard_names = [s.name for s in plan.shards]
    engine = NetemEngine(NetemScript(seed=7, rules=(
        NetemRule(kind="drop", edge=f"*->{shard_names[0]}",
                  direction="forward", p=0.1),
        NetemRule(kind="slow", edge=f"*->{shard_names[-1]}", factor=3.0),
        NetemRule(kind="delay", edge="*", direction="forward",
                  delay_s=0.0005, jitter_s=0.0005),
    )))
    config = LoadTestConfig(
        n_requests=300, rate_hz=2_000.0, profile="poisson", seed=7
    )

    async def scenario():
        services = {}
        backends = {}
        for spec in plan.shards:
            service = AssignmentService(
                plan.subproblem(problem, spec.name),
                ServiceConfig(max_queue=100_000),
            )
            await service.start()
            services[spec.name] = service
            backends[spec.name] = NetemBackend(
                InProcessBackend(spec.name, service), engine
            )
        router = ShardRouter(
            plan, backends,
            RouterConfig(default_deadline_ms=2_000.0, hedge=True),
        )
        await router.start()
        try:
            return await run_loadtest(
                router, problem.n_devices, config, collect_stats=False
            )
        finally:
            await router.stop()
            for service in services.values():
                if service.started:
                    await service.stop()

    return asyncio.run(scenario()).latency_ms["p99"] / 1e3


def probe_shard_recovery_time() -> float:
    """Seconds to rebuild a shard's state from its WAL after a crash.

    Journals a fixed mutation workload (assigns, releases, a swap and a
    snapshot roll), then times a fresh state's snapshot + journal
    replay — the recovery cost the gray-failure experiments bound.
    """
    import tempfile
    import time as _time

    from repro.model.instances import random_instance
    from repro.serve.state import ServiceState
    from repro.wal import WriteAheadLog

    problem = random_instance(200, 8, tightness=0.6, seed=7)
    with tempfile.TemporaryDirectory(prefix="probe-wal-") as wal_dir:
        state = ServiceState(
            problem, wal=WriteAheadLog(wal_dir, snapshot_every=256)
        )
        for _ in range(4):
            for device in range(0, 200, 2):
                state.assign(device)
            for device in range(0, 200, 2):
                state.release(device)
        state._wal.close()
        fresh = ServiceState(problem, wal=WriteAheadLog(wal_dir))
        started = _time.perf_counter()
        fresh.recover()
        return _time.perf_counter() - started


def _contention_setup():
    """Oversubscribed tiny instance + contention model (shared by probes)."""
    from repro.contention import ContentionConfig, ContentionModel
    from repro.model.instances import topology_instance

    problem = topology_instance(
        family="edge_hierarchy",
        n_routers=25,
        n_devices=30,
        n_servers=3,
        tightness=0.8,
        seed=7,
        oversubscription=8.0,
    )
    model = ContentionModel(problem, ContentionConfig(flow_scale=300.0))
    return problem, model


def probe_contention_delta_eval() -> None:
    """A burst of incremental shift deltas on a congested instance.

    2000 ``shift_delta`` evaluations (every 10th committed) — the inner
    loop of every congestion-aware solver.  The CI smoke job separately
    asserts this path beats the full-recompute oracle by >= 10x; this
    probe guards its absolute speed across commits.
    """
    from repro.contention import IncrementalEvaluator
    from repro.solvers.greedy import greedy_feasible_assignment

    problem, model = _contention_setup()
    vector = greedy_feasible_assignment(problem).vector
    evaluator = IncrementalEvaluator(model, vector)
    n_servers = problem.n_servers
    for step in range(2000):
        device = step % problem.n_devices
        server = (step * 7 + device) % n_servers
        evaluator.shift_delta(device, server)
        if step % 10 == 0:
            evaluator.apply_shift(device, server)


def probe_contention_solve() -> None:
    """One congestion-aware local-search solve on a congested instance."""
    from repro.solvers.registry import get_solver

    problem, model = _contention_setup()
    get_solver("congestion_local_search", seed=7, config=model.config).solve(
        problem
    )


#: probe name -> zero-argument callable (insertion order is report order)
PROBES = {
    "solve_greedy": probe_solve_greedy,
    "solve_local_search": probe_solve_local_search,
    "solve_local_search_mid": probe_solve_local_search_mid,
    "solve_tacc_search": probe_solve_tacc_search,
    "sim_short": probe_sim_short,
    "engine_grid": probe_engine_grid,
    "serve_loadtest_p99": probe_serve_loadtest_p99,
    "serve_throughput": probe_serve_throughput,
    "shard_loadtest_p99": probe_shard_loadtest_p99,
    "shard_route_throughput": probe_shard_route_throughput,
    "serve_gray_p99": probe_serve_gray_p99,
    "shard_recovery_time": probe_shard_recovery_time,
    "contention_delta_eval": probe_contention_delta_eval,
    "contention_solve": probe_contention_solve,
    "topology_build_wide": probe_topology_build_wide,
}


def probe_names() -> "list[str]":
    """All registered probe names, in report order."""
    return list(PROBES)


def measure(
    probes: "list[str] | None" = None, repeats: int = 3
) -> "dict[str, float]":
    """Best-of-``repeats`` seconds per probe (lower is always better).

    A probe that returns ``None`` is timed (wall seconds).  A probe
    that returns a float reports that value instead — for latency
    probes whose interesting number is a percentile the probe itself
    computed, not its own wall time.  Either way the minimum over
    ``repeats`` is kept: interference only ever adds time.

    ``probes=None`` runs all of them; unknown names raise early so a
    CI typo fails loudly instead of silently gating nothing.
    """
    require(repeats >= 1, f"repeats must be >= 1, got {repeats}")
    names = probe_names() if probes is None else list(probes)
    unknown = sorted(set(names) - set(PROBES))
    require(not unknown, f"unknown perf probes {unknown}; known: {probe_names()}")
    results: dict[str, float] = {}
    for name in names:
        fn = PROBES[name]
        fn()  # warm-up: imports, matrix caches
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - started
            best = min(best, float(value) if value is not None else elapsed)
        results[name] = best
    return results
