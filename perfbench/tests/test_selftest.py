"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import catalogue  # noqa: E402
import gates  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
from repro.model.problem import AssignmentProblem  # noqa: E402
from repro.serve.protocol import Request, Response  # noqa: E402


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------
def test_every_metric_name_is_well_formed():
    for name in (*catalogue.END_TO_END, *catalogue.PER_LAYER):
        assert catalogue.NAME_RE.fullmatch(name), name
        assert len(name) <= 64, name


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == catalogue.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == catalogue.PER_LAYER
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# ----------------------------------------------------------------------
# open-loop driver: due-time accounting and the causality hold
# ----------------------------------------------------------------------
class ScriptedClient:
    """Answers each request ``ok`` after a scripted delay per index."""

    def __init__(self, delays_s: "dict[int, float]", default_s: float = 0.001):
        self.delays_s = delays_s
        self.default_s = default_s
        self.sent: "list[tuple[int, str, float]]" = []  # (id, op, when)
        self.answered: "dict[int, float]" = {}

    def send(self, request: Request) -> "asyncio.Future[Response]":
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self.sent.append((request.id, request.op, loop.time()))

        def answer() -> None:
            self.answered[request.id] = loop.time()
            future.set_result(Response(id=request.id, status="ok"))

        loop.call_later(self.delays_s.get(request.id, self.default_s), answer)
        return future


def _ops(*pairs):
    return [Request(op=op, id=i, device=device)
            for i, (op, device) in enumerate(pairs)]


def test_latency_is_timed_from_the_due_time_when_the_sender_is_held():
    # request 0 (assign d7) takes 80 ms; request 1 releases d7 and is due
    # at 5 ms, so it is held until 0 answers; request 2 (another device)
    # is due at 10 ms but queued behind the hold
    trace = _ops(("assign", 7), ("release", 7), ("assign", 3))
    client = ScriptedClient({0: 0.080})
    result = asyncio.run(loadgen.drive(client, trace, due_s=[0.0, 0.005, 0.010]))
    by_index = {o.index: o for o in result.outcomes}
    assert result.sent == 3 and result.holds == 1
    assert [sent[0] for sent in client.sent] == [0, 1, 2]  # order kept
    # the release went out only after its assign was answered
    assert client.sent[1][2] >= client.answered[0]
    # lateness and latency both count the hold, measured from due time
    assert by_index[1].late_ms >= 70.0
    assert by_index[1].latency_ms >= by_index[1].late_ms
    assert by_index[2].late_ms >= 65.0
    assert by_index[0].late_ms < 20.0


def test_closed_loop_keeps_the_window_and_times_from_send():
    trace = _ops(*[("assign", d) for d in range(6)])
    client = ScriptedClient({}, default_s=0.020)
    result = asyncio.run(loadgen.drive(client, trace, window=2))
    assert result.sent == 6 and result.holds == 0
    sends = sorted(when for _, _, when in client.sent)
    # three waves of two: the third send waits for a first answer
    assert sends[2] - sends[0] >= 0.015
    for outcome in result.outcomes:
        assert outcome.late_ms == 0.0
        assert 15.0 <= outcome.latency_ms < 200.0


def test_drive_needs_exactly_one_loop_mode():
    with pytest.raises(ValueError):
        asyncio.run(loadgen.drive(ScriptedClient({}), _ops(("assign", 1))))


# ----------------------------------------------------------------------
# correctness gates trip on planted violations
# ----------------------------------------------------------------------
def _problem():
    return AssignmentProblem(
        delay=np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 3.0]]),
        demand=np.array([2.0, 2.0, 2.0]),
        capacity=np.array([4.0, 4.0]),
    )


def test_over_capacity_plan_trips_the_feasibility_gate():
    problem = _problem()
    assert gates.plan_feasible(problem, [0, 1, 0], "ok") == []
    found = gates.plan_feasible(problem, [0, 0, 0], "planted")
    assert found and "over capacity" in found[0]
    assert gates.plan_feasible(problem, [0, 1, -1], "partial")


def test_objective_below_the_bound_trips():
    assert gates.above_bound(5.0, 5.0, "tight") == []
    assert gates.above_bound(4.0, 5.0, "planted")


def test_serial_pin_and_held_consistency_trip():
    assert gates.serial_pin([0, 1, -1], [0, 1, -1], "same") == []
    assert gates.serial_pin([0, 1, -1], [1, 1, -1], "planted")
    vectors = {"a": np.array([0, -1, -1]), "b": np.array([0, 1, -1])}
    found = gates.held_consistent({0, 1}, vectors, "planted")
    assert any("several shards" in line for line in found)
    assert gates.held_consistent({1}, {"a": np.array([-1, 0, -1])}, "ok") == []


def test_release_without_assign_trips_the_status_gate():
    from repro.serve import AssignmentService, ServiceConfig
    from repro.serve.server import InProcessClient

    async def replay():
        service = AssignmentService(_problem(), ServiceConfig())
        await service.start()
        try:
            trace = _ops(("assign", 0), ("release", 2))  # 2 never assigned
            return await loadgen.drive(InProcessClient(service), trace,
                                       due_s=[0.0, 0.001])
        finally:
            await service.stop()

    result = asyncio.run(replay())
    found = gates.statuses_ok(result.outcomes, "planted")
    assert len(found) == 1 and "release device 2" in found[0]
    assert gates.held_after(result.outcomes) == {0}


def test_unfinished_des_replay_trips_the_replay_gate():
    from repro import get_solver, simulate_assignment, topology_instance

    problem = topology_instance("random_geometric", n_routers=12,
                                n_devices=10, n_servers=2, seed=1)
    plan = get_solver("greedy", seed=1).solve(problem).assignment
    drained = simulate_assignment(plan, duration_s=2.0, seed=1, drain_s=1.0)
    assert gates.replay_lossless(drained, "drained") == []
    # no drain: the tasks created last are still on the wire at the end
    cut = simulate_assignment(plan, duration_s=2.0, seed=1, drain_s=0.0)
    found = gates.replay_lossless(cut, "planted")
    assert len(found) == 1 and "finished" in found[0]


# ----------------------------------------------------------------------
# settling: work still in flight after the last answer
# ----------------------------------------------------------------------
def test_settle_waits_for_tasks_spawned_by_finishing_ones():
    async def scenario():
        resident = asyncio.all_tasks()
        landed = []

        async def cleanup():
            await asyncio.sleep(0.02)
            landed.append("cleanup")

        async def loser():
            await asyncio.sleep(0.02)
            landed.append("loser")

        spawned = []
        task = asyncio.create_task(loser())
        # as the router's reaper does: a done-callback spawns the clean-up
        task.add_done_callback(
            lambda _: spawned.append(asyncio.ensure_future(cleanup())))
        settled = await loadgen.settle(resident, limit_s=5.0)
        assert all(t.done() for t in spawned)
        return settled, landed

    assert asyncio.run(scenario()) == (True, ["loser", "cleanup"])


def test_settle_reports_work_that_outlives_the_limit():
    async def scenario():
        resident = asyncio.all_tasks()
        stuck = asyncio.create_task(asyncio.sleep(10.0))
        try:
            return await loadgen.settle(resident, limit_s=0.05)
        finally:
            stuck.cancel()

    assert asyncio.run(scenario()) is False


# ----------------------------------------------------------------------
# spans: self time and outside wrapping
# ----------------------------------------------------------------------
def test_self_time_subtracts_covered_child_time():
    recorder = layers.SpanRecorder()
    recorder.spans = [
        layers.Span("a.root", 0.0, 10.0),
        layers.Span("b.child", 1.0, 4.0, parent=0),
        layers.Span("b.child", 3.0, 6.0, parent=0),  # overlaps the first
        layers.Span("c.grandchild", 2.0, 3.0, parent=1),
    ]
    assert recorder.self_times() == pytest.approx([5.0, 2.0, 3.0, 1.0])
    shares = recorder.layer_self_time((0.0, 10.0))
    assert shares == pytest.approx({"a": 5.0, "b": 5.0, "c": 1.0})


def test_wrapping_spans_every_binding_and_unpatches():
    import repro.model.instances as instances
    import repro.topology.placement as placement

    original = placement.place_edge_servers
    recorder = layers.SpanRecorder()
    recorder.wrap_function("repro.topology.placement", "place_edge_servers",
                           "topology.place")
    try:
        assert instances.place_edge_servers is not original
        from repro import topology_instance

        topology_instance("random_geometric", n_routers=12, n_devices=10,
                          n_servers=2, seed=1)
    finally:
        recorder.unpatch()
    assert instances.place_edge_servers is original
    assert recorder.calls("topology.place", (0.0, float("inf"))) == 1
