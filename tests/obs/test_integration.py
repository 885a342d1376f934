"""End-to-end: instrumented layers emit the documented metric names."""

from __future__ import annotations

import math

import pytest

import repro
from repro import obs
from repro.cli.main import main as cli_main
from repro.obs import names
from repro.sim.trace_runner import replay_trace
from repro.workload.traces import generate_trace


class TestSolverTelemetry:
    def test_tacc_solve_emits_snapshot(self, small_problem):
        with obs.observed() as session:
            result = repro.TaccSolver(episodes=30, seed=0).solve(small_problem)
            snap = session.snapshot()
        assert result.feasible
        assert snap["counters"]["solver/solves{solver=tacc}"] == 1
        assert snap["counters"]["rl/episodes{solver=tacc}"] == 30
        assert snap["timers"]["solver/runtime_s{solver=tacc}"]["count"] == 1
        assert snap["counters"]["solver/iterations{solver=tacc}"] == 30
        # episode cost histogram collected something
        assert snap["histograms"]["rl/episode_cost{solver=tacc}"]["count"] > 0
        # span tree has the solve as a root
        spans = session.spans()
        assert any(span.name == "solve/tacc" for span in spans)

    @pytest.mark.parametrize("solver", ["sarsa", "double_q"])
    def test_td_variants_record_training(self, small_problem, solver):
        """SARSA and Double Q open a train phase and emit the episode
        telemetry Q-learning does, without changing their result."""
        plain = repro.get_solver(solver, episodes=25, seed=0).solve(small_problem)
        with obs.observed() as session:
            result = repro.get_solver(solver, episodes=25, seed=0).solve(small_problem)
            snap = session.snapshot()
        assert result.assignment == plain.assignment
        assert result.extra == plain.extra
        labels = f"{{solver={solver}}}"
        assert snap["counters"][f"rl/episodes{labels}"] == 25
        assert f"rl/mask_blocked_actions{labels}" in snap["counters"]
        assert f"rl/dead_ends{labels}" in snap["counters"]
        assert f"rl/epsilon{labels}" in snap["gauges"]
        assert snap["histograms"][f"rl/episode_cost{labels}"]["count"] > 0
        train = f"solver/phase_runtime_s{{phase=train,solver={solver}}}"
        assert snap["timers"][train]["count"] == 1
        spans = {span.name: span for span in session.spans()}
        root = spans[f"solve/{solver}"]
        assert spans[f"solve/{solver}/train"].parent_id == root.span_id

    def test_improvement_summary_attached_to_extra(self, small_problem):
        result = repro.TaccSolver(episodes=40, seed=0).solve(small_problem)
        summary = result.extra.get("objective_improvements")
        # 40 episodes on this instance always improve at least once
        assert summary is not None and summary["count"] >= 1

    def test_disabled_by_default_collects_nothing(self, small_problem):
        repro.TaccSolver(episodes=10, seed=0).solve(small_problem)
        assert not obs.is_enabled()
        assert obs.metrics().snapshot() == {}


class TestSimTelemetry:
    def test_short_des_run_emits_snapshot(self, topo_problem):
        solver = repro.get_solver("greedy")
        result = solver.solve(topo_problem)
        with obs.observed() as session:
            report = repro.simulate_assignment(
                result.assignment, duration_s=3.0, seed=1
            )
            snap = session.snapshot()
        assert report.tasks_completed > 0
        assert snap["counters"][names.SIM_EVENTS] > 0
        assert snap["counters"][names.SIM_TASKS_CREATED] == report.tasks_created
        assert snap["histograms"][names.SIM_EVENT_QUEUE_DEPTH]["count"] > 0
        waits = [
            key for key in snap["histograms"] if key.startswith(names.SIM_QUEUE_WAIT)
        ]
        assert waits, "per-server queue-wait histograms missing"
        total_waits = sum(snap["histograms"][k]["count"] for k in waits)
        # every completed task waited (possibly zero seconds) exactly once
        assert total_waits >= report.tasks_completed
        assert any(span.name == names.SPAN_SIM_RUN for span in session.spans())

    def test_link_and_server_utilization_recorded(self, topo_problem):
        result = repro.get_solver("greedy").solve(topo_problem)
        with obs.observed() as session:
            repro.simulate_assignment(result.assignment, duration_s=3.0, seed=1)
            snap = session.snapshot()
        assert snap["histograms"][names.SIM_LINK_UTILIZATION]["count"] > 0
        gauges = [
            key
            for key in snap["gauges"]
            if key.startswith(names.SIM_SERVER_UTILIZATION)
        ]
        assert len(gauges) == topo_problem.n_servers

    def test_trace_replay_emits_task_and_utilization_metrics(self, topo_problem):
        result = repro.get_solver("greedy").solve(topo_problem)
        trace = generate_trace(topo_problem.devices, horizon_s=3.0, seed=1)
        with obs.observed() as session:
            report = replay_trace(result.assignment, trace)
            snap = session.snapshot()
        assert snap["counters"][names.SIM_TASKS_CREATED] == trace.n_entries
        assert snap["counters"][names.SIM_TASKS_COMPLETED] == report.tasks_completed
        assert snap["histograms"][names.SIM_LINK_UTILIZATION]["count"] > 0
        gauges = [
            key
            for key in snap["gauges"]
            if key.startswith(names.SIM_SERVER_UTILIZATION)
        ]
        assert len(gauges) == topo_problem.n_servers


class TestClusterTelemetry:
    def test_online_assigner_counts(self, small_problem):
        from repro.cluster.online import OnlineAssigner

        with obs.observed() as session:
            assigner = OnlineAssigner(small_problem, rule="greedy_delay")
            assigner.assign_stream(range(small_problem.n_devices))
            snap = session.snapshot()
        key = "cluster/online_assignments{rule=greedy_delay}"
        assert snap["counters"][key] == small_problem.n_devices

    def test_controller_reconfig_telemetry(self, small_problem):
        from repro.cluster.controller import ReconfigurationController

        with obs.observed() as session:
            controller = ReconfigurationController(
                repro.get_solver("greedy"), strategy="always"
            )
            controller.initialize(small_problem)
            controller.observe(1, small_problem)
            snap = session.snapshot()
        assert snap["counters"]["cluster/reconfigurations{strategy=always}"] >= 1
        assert snap["counters"]["cluster/epochs{strategy=always}"] == 1
        assert snap["timers"]["cluster/reconfig_latency_s{strategy=always}"]["count"] >= 1


class TestHarnessTelemetry:
    def test_sweep_point_snapshot_attached(self, small_problem):
        from repro.experiments.harness import run_solver_field

        with obs.observed():
            results = run_solver_field(small_problem, ["greedy", "regret"], seed=0)
        for name, result in results.items():
            delta = result.extra.get("obs")
            assert delta is not None
            assert delta["counters"][f"solver/solves{{solver={name}}}"] == 1

    def test_no_snapshot_when_disabled(self, small_problem):
        from repro.experiments.harness import run_solver_field

        results = run_solver_field(small_problem, ["greedy"], seed=0)
        assert "obs" not in results["greedy"].extra


class TestCliFlow:
    def test_simulate_obs_then_dashboard(self, tmp_path, capsys):
        """The documented CLI flow renders solver spans, queue-wait
        quantiles and RL episode counters from one JSONL file."""
        out = tmp_path / "run.jsonl"
        code = cli_main(
            [
                "simulate",
                "--devices", "10", "--routers", "12", "--servers", "3",
                "--duration", "2", "--seed", "0",
                "--obs", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert not obs.is_enabled()  # CLI turned it back off
        capsys.readouterr()
        assert cli_main(["obs", str(out)]) == 0
        dashboard = capsys.readouterr().out
        assert "solve/tacc" in dashboard  # solver span
        assert "sim/queue_wait_s" in dashboard  # queue-wait histogram
        assert "rl/episodes{solver=tacc}" in dashboard  # RL episode counter

    def test_obs_command_rejects_missing_file(self, capsys):
        assert cli_main(["obs", "/nonexistent/file.jsonl"]) == 1

    def test_solve_obs_writes_file(self, tmp_path):
        instance = tmp_path / "instance.json"
        problem = repro.random_instance(8, 3, tightness=0.6, seed=0)
        instance.write_text(problem.to_json(), encoding="utf-8")
        out = tmp_path / "solve.jsonl"
        code = cli_main(
            ["solve", str(instance), "--solver", "greedy", "--obs", str(out)]
        )
        assert code == 0
        data = obs.load_jsonl(out)
        assert data["metrics"]["counters"]["solver/solves{solver=greedy}"] == 1


class TestOverheadContract:
    def test_null_instruments_do_not_accumulate(self, small_problem):
        """Instrumented code paths must not create state when disabled."""
        registry = obs.metrics()
        assert not registry.enabled
        repro.get_solver("greedy").solve(small_problem)
        assert registry.instruments() == {}
        assert math.isnan(registry.histogram("x").quantile(0.5))


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test in this module must leave observability disabled."""
    yield
    assert not obs.is_enabled()
    obs.disable()
