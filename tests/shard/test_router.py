"""Router behavior: routing, failover, reconciliation, rebalance,
and the sharded-vs-serial replay equivalence the tier is judged on."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import DeadlineExceededError
from repro.model.instances import topology_instance
from repro.model.solution import UNASSIGNED
from repro.serve.loadtest import generate_trace, replay_serial
from repro.serve.protocol import Request
from repro.serve.server import TCPServer, open_client
from repro.serve.service import AssignmentService, ServiceConfig
from repro.shard.backend import CircuitBreaker, InProcessBackend, TCPBackend
from repro.shard.partition import build_plan
from repro.shard.router import RouterConfig, ShardRouter


def run(coro):
    return asyncio.run(coro)


def make_problem(seed: int = 3):
    return topology_instance(
        family="edge_hierarchy", n_routers=40, n_devices=60,
        n_servers=8, tightness=0.7, seed=seed,
    )


class RecordingBackend(InProcessBackend):
    """In-process backend that logs every op it actually forwarded."""

    def __init__(self, name, service, breaker=None):
        super().__init__(name, service, breaker)
        self.forwarded: "list[Request]" = []

    async def request(self, request):
        response = await super().request(request)
        if request.op in ("assign", "release"):
            self.forwarded.append(request)
        return response


async def make_cluster(
    problem, n_shards=3, breaker_threshold=3, config=None
):
    """Plan + one in-process service per shard + a started router."""
    plan = build_plan(problem, n_shards)
    services = {}
    backends = {}
    for spec in plan.shards:
        service = AssignmentService(
            plan.subproblem(problem, spec.name),
            ServiceConfig(max_wait_s=0.0),
        )
        await service.start()
        services[spec.name] = service
        backends[spec.name] = RecordingBackend(
            spec.name, service,
            CircuitBreaker(failure_threshold=breaker_threshold),
        )
    router = ShardRouter(plan, backends, config)
    await router.start()
    return plan, services, backends, router


async def shutdown(services, router):
    await router.stop()
    for service in services.values():
        if service.started:
            await service.stop()


class TestRouting:
    def test_assign_lands_on_home_shard_with_global_server(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                for device in range(10):
                    response = await router.request(
                        Request(op="assign", device=device)
                    )
                    assert response.ok
                    home = plan.shard_of_device(device)
                    # the server index is global and owned by home
                    assert response.server in plan.shard(home).servers
                assert router.spillovers_total == 0
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_release_follows_the_device(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                assert (await router.request(
                    Request(op="assign", device=4))).ok
                response = await router.request(
                    Request(op="release", device=4))
                assert response.ok
                # released: the shard state agrees
                stats = await router.request(Request(op="stats"))
                assert stats.stats["active_devices"] == 0
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_client_ids_never_reach_backends_but_come_back(self):
        # clients stamp ids per connection; the router must not leak
        # them into its shared backend transports (they would collide
        # in a TCP client's in-flight table) yet must echo them back
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                # two "connections" both using id=1, plus a higher id
                for request in (
                    Request(op="assign", device=0, id=1),
                    Request(op="assign", device=1, id=1),
                    Request(op="release", device=0, id=7),
                ):
                    response = await router.request(request)
                    assert response.ok
                    assert response.id == request.id
                forwarded = [
                    r for b in backends.values() for r in b.forwarded
                ]
                assert len(forwarded) == 3
                assert all(r.id == 0 for r in forwarded)
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_concurrent_duplicate_release_loser_keeps_its_error(self):
        # both releases read the location before either resolves; the
        # loser's legitimate 'not assigned' error must NOT be rewritten
        # into a reconciled 'ok'
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                assert (await router.request(
                    Request(op="assign", device=4))).ok
                first = router.send(Request(op="release", device=4))
                second = router.send(Request(op="release", device=4))
                responses = await asyncio.gather(first, second)
                statuses = sorted(r.status for r in responses)
                assert statuses == ["error", "ok"]
                assert 4 not in router._locations
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_unknown_op_and_bad_device_are_errors(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                response = await router.request(
                    Request(op="migrate", devices=(0,), epoch=0))
                assert response.status == "error"
                response = await router.request(
                    Request(op="assign", device=10_000))
                assert response.status == "error"
            finally:
                await shutdown(services, router)

        run(scenario())


class TestFailover:
    def test_assigns_spill_when_home_shard_dies(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                victim = plan.shards[0].name
                victims = [
                    int(d) for d in plan.devices_of_shard(victim)][:5]
                assert victims, "plan gave shard-0 no home devices"
                await services[victim].stop()
                for device in victims:
                    response = await router.request(
                        Request(op="assign", device=device))
                    assert response.ok
                    landed = router._locations[device]
                    assert landed != victim
                    # globalized server belongs to the shard that took it
                    assert response.server in plan.shard(landed).servers
                assert router.spillovers_total == len(victims)
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_breaker_opens_after_repeated_failures(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(
                problem, breaker_threshold=3)
            try:
                victim = plan.shards[0].name
                victims = [
                    int(d) for d in plan.devices_of_shard(victim)][:5]
                await services[victim].stop()
                for device in victims:
                    await router.request(Request(op="assign", device=device))
                assert backends[victim].breaker.state == CircuitBreaker.OPEN
                assert backends[victim].breaker.trips == 1
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_release_to_dead_holder_reports_released(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                device = int(plan.devices_of_shard(plan.shards[0].name)[0])
                assert (await router.request(
                    Request(op="assign", device=device))).ok
                await services[plan.shards[0].name].stop()
                response = await router.request(
                    Request(op="release", device=device))
                assert response.ok
                assert "failure" in response.detail
                assert device not in router._locations
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_release_reconciles_after_restart_lost_state(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(
                problem, breaker_threshold=100)
            try:
                name = plan.shards[0].name
                device = int(plan.devices_of_shard(name)[0])
                assert (await router.request(
                    Request(op="assign", device=device))).ok
                # crash-and-restart: same shard, empty state
                await services[name].stop()
                services[name] = AssignmentService(
                    plan.subproblem(problem, name),
                    ServiceConfig(max_wait_s=0.0),
                )
                await services[name].start()
                backends[name].service = services[name]
                response = await router.request(
                    Request(op="release", device=device))
                assert response.ok
                assert "reconciled" in response.detail
            finally:
                await shutdown(services, router)

        run(scenario())


class TestHedgeLoserReap:
    def test_deadline_cut_loser_releases_its_possible_landing(self):
        # a hedge loser whose await was deadline-cut is exactly as
        # ambiguous as one whose answer was lost: the assign may have
        # applied before the cut, so _abandon's reaper must spawn the
        # same best-effort ghost release (regression: the landing held
        # shard capacity until the rebalancer noticed)
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                name = plan.shards[0].name
                device = int(plan.devices_of_shard(name)[0])
                # the loser's landing: the shard holds the device
                assert (await router.request(
                    Request(op="assign", device=device))).ok

                async def cut_loser():
                    raise DeadlineExceededError("deadline cut the await")

                task = asyncio.create_task(cut_loser())
                await asyncio.wait({task})
                router._abandon({task: (name, True)}, device)
                await asyncio.sleep(0)  # run the done-callback
                while router._cleanup_tasks:
                    await asyncio.gather(
                        *tuple(router._cleanup_tasks),
                        return_exceptions=True,
                    )
                assert router.ghost_releases_total == 1
                stats = (await router.request(Request(op="stats"))).stats
                assert stats["per_shard"][name]["active_devices"] == 0
            finally:
                await shutdown(services, router)

        run(scenario())


class SlowAnswerBackend(RecordingBackend):
    """Applies an assign at once but holds its answer for ``delay_s``."""

    delay_s = 0.0

    async def request(self, request):
        response = await super().request(request)
        if request.op == "assign":
            await asyncio.sleep(self.delay_s)
        return response


class TestStopDrainsHedgeLosers:
    def test_stop_waits_for_a_landing_loser_and_its_release(self):
        # the home shard applies the assign but its answer is held, so
        # the router hedges to the next shard, which wins.  stop() runs
        # while the loser is still in flight: it must wait for the
        # loser to land and for the clean-up release that landing
        # spawns (regression: stop() saw no clean-up task yet, returned,
        # and the device stayed held on two shards)
        async def scenario():
            problem = make_problem()
            plan = build_plan(problem, 3)
            services, backends = {}, {}
            for spec in plan.shards:
                service = AssignmentService(
                    plan.subproblem(problem, spec.name),
                    ServiceConfig(max_wait_s=0.0),
                )
                await service.start()
                services[spec.name] = service
                backends[spec.name] = SlowAnswerBackend(spec.name, service)
            home = plan.shards[0].name
            backends[home].delay_s = 0.3
            router = ShardRouter(plan, backends)
            await router.start()
            try:
                device = int(plan.devices_of_shard(home)[0])
                response = await router.request(
                    Request(op="assign", device=device))
                assert response.ok
                assert router.hedge_wins_total == 1
                await router.stop()
                copies = sum(
                    (s.state.vector != UNASSIGNED).astype(int)
                    for s in services.values()
                )
                # the one held device sits on exactly one shard
                assert np.flatnonzero(copies).tolist() == [device]
                assert copies[device] == 1
            finally:
                for service in services.values():
                    if service.started:
                        await service.stop()

        run(scenario())


class TestStats:
    def test_aggregates_cover_all_shards(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                for device in range(8):
                    await router.request(Request(op="assign", device=device))
                stats = (await router.request(Request(op="stats"))).stats
                assert stats["shards"] == plan.n_shards
                assert stats["shards_up"] == plan.n_shards
                assert stats["active_devices"] == 8
                assert stats["devices"] == problem.n_devices
                assert stats["servers"] == problem.n_servers
                assert set(stats["per_shard"]) == {
                    s.name for s in plan.shards}
                assert all(
                    state == "closed"
                    for state in stats["breaker_states"].values()
                )
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_dead_shard_drops_out_of_shards_up(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                await services[plan.shards[0].name].stop()
                stats = (await router.request(Request(op="stats"))).stats
                assert stats["shards_up"] == plan.n_shards - 1
            finally:
                await shutdown(services, router)

        run(scenario())


class TestRebalance:
    def test_strays_are_repatriated(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(
                problem, breaker_threshold=100)
            try:
                home = plan.shards[0].name
                strays = [int(d) for d in plan.devices_of_shard(home)][:4]
                await services[home].stop()
                for device in strays:
                    assert (await router.request(
                        Request(op="assign", device=device))).ok
                await services[home].start()  # the shard comes back
                moved = await router.rebalance_once()
                assert moved == len(strays)
                assert all(
                    router._locations[d] == home for d in strays)
                # shard state moved with the bookkeeping
                stats = (await router.request(Request(op="stats"))).stats
                assert stats["per_shard"][home]["active_devices"] == len(strays)
                assert stats["migrated_total"] == len(strays)
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_shaved_devices_are_not_repatriated_back(self):
        # a load-shave moves devices OFF their home shard; the next
        # round's repatriation must not drag them straight back (the
        # donor/target ping-pong the reviewer called churn)
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                donor = plan.shards[0].name
                devices = [
                    int(d) for d in plan.devices_of_shard(donor)][:4]
                assert devices, "plan gave shard-0 no home devices"
                for device in devices:
                    assert (await router.request(
                        Request(op="assign", device=device))).ok

                # doctor gossip to demand a shave from the donor, and
                # pin it by disabling the refresh inside rebalance_once
                async def frozen_stats():
                    return {}

                router._stats = frozen_stats
                router._gossip = {
                    name: {
                        "mean_utilization": 1.0 if name == donor else 0.0,
                        "epoch": services[name].state.epoch,
                    }
                    for name in backends
                }
                moved = await router.rebalance_once()
                assert moved >= 1
                shaved = set(router._shaved)
                assert shaved and shaved <= set(devices)
                assert all(
                    router._locations[d] != donor for d in shaved)
                # next round: no repatriation batch for shaved devices
                batch = router._pick_migration_batch()
                if batch is not None:
                    _, _, picked, kind = batch
                    assert kind != "repatriate" or not (
                        set(picked) & shaved)
                # a fresh release+assign clears the shave mark again
                probe = sorted(shaved)[0]
                assert (await router.request(
                    Request(op="release", device=probe))).ok
                assert (await router.request(
                    Request(op="assign", device=probe))).ok
                assert probe not in router._shaved
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_stale_epoch_migration_rejected(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                name = plan.shards[0].name
                device = int(plan.devices_of_shard(name)[0])
                assert (await router.request(
                    Request(op="assign", device=device))).ok
                stale = services[name].state.epoch
                other = int(plan.devices_of_shard(name)[1])
                assert (await router.request(
                    Request(op="assign", device=other))).ok  # epoch bump
                response = await backends[name].request(Request(
                    op="migrate", devices=(device,), epoch=stale))
                assert response.status == "rejected"
                assert "stale" in response.detail
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_balanced_cluster_skips_migration(self):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                assert await router.rebalance_once() == 0
            finally:
                await shutdown(services, router)

        run(scenario())


class TestTCPRouterEndToEnd:
    def test_concurrent_clients_with_colliding_ids(self):
        # every client stamps ids from 1 on its own connection, so two
        # pipelining clients collide on the wire; forwarded verbatim
        # into the per-shard TCP clients those ids would clash in the
        # shared in-flight table and surface as 'router failure' errors
        async def scenario():
            problem = make_problem()
            plan = build_plan(problem, 3)
            services, servers, backends = {}, {}, {}
            for spec in plan.shards:
                service = AssignmentService(
                    plan.subproblem(problem, spec.name),
                    ServiceConfig(max_wait_s=0.0),
                )
                await service.start()
                server = TCPServer(service)
                await server.start()
                services[spec.name] = service
                servers[spec.name] = server
                backends[spec.name] = TCPBackend(
                    spec.name, server.host, server.port)
            router = ShardRouter(plan, backends)
            await router.start()
            front = TCPServer(router)
            await front.start()
            clients = [
                await open_client(front.host, front.port)
                for _ in range(2)
            ]
            try:
                futures = []
                for k, client in enumerate(clients):
                    for device in range(k * 20, k * 20 + 20):
                        futures.append(client.send(
                            Request(op="assign", device=device)))
                    await client.flush()
                responses = await asyncio.gather(*futures)
                errors = [
                    r.detail for r in responses if r.status == "error"]
                assert not errors, errors
            finally:
                for client in clients:
                    await client.close()
                await front.stop()
                await router.stop()  # closes the TCP backends
                for name in servers:
                    await servers[name].stop()
                    await services[name].stop()

        run(scenario())


class TestReplayEquivalence:
    """ISSUE acceptance: a fixed trace driven through the sharded tier
    equals, shard by shard, a serial replay of the ops each shard saw."""

    @pytest.mark.parametrize("trace_seed", [0, 1])
    def test_sharded_replay_matches_per_shard_serial_replay(self, trace_seed):
        async def scenario():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                trace = generate_trace(
                    problem.n_devices, 400, seed=trace_seed)
                for request in trace:  # serial: total order per shard
                    await router.request(request)
                for spec in plan.shards:
                    sub = plan.subproblem(problem, spec.name)
                    forwarded = backends[spec.name].forwarded
                    serial_vector, _ = replay_serial(sub, forwarded)
                    live_vector = services[spec.name].state.vector
                    assert np.array_equal(live_vector, serial_vector), (
                        f"{spec.name} diverged from serial replay"
                    )
            finally:
                await shutdown(services, router)

        run(scenario())

    def test_two_identical_runs_are_identical(self):
        async def one_run():
            problem = make_problem()
            plan, services, backends, router = await make_cluster(problem)
            try:
                for request in generate_trace(problem.n_devices, 300, seed=9):
                    await router.request(request)
                return {
                    spec.name: services[spec.name].state.vector.tolist()
                    for spec in plan.shards
                }
            finally:
                await shutdown(services, router)

        assert run(one_run()) == run(one_run())
