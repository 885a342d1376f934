"""Tests for the top-level public API surface."""

from __future__ import annotations

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        """The README quickstart must work verbatim."""
        problem = repro.topology_instance(
            family="random_geometric",
            n_routers=15,
            n_devices=10,
            n_servers=3,
            tightness=0.7,
            seed=42,
        )
        result = repro.get_solver("tacc", seed=1, episodes=40).solve(problem)
        assert result.feasible
        report = repro.simulate_assignment(result.assignment, duration_s=5.0, seed=2)
        assert report.tasks_completed > 0

    def test_available_solvers_nonempty(self):
        assert "tacc" in repro.available_solvers()

    def test_errors_module_exposed(self):
        assert issubclass(repro.errors.SolverError, repro.errors.ReproError)

    def test_make_topology_exposed(self):
        graph = repro.make_topology("grid", 9)
        assert graph.is_connected()

    def test_tacc_solver_class_exposed(self, small_problem):
        result = repro.TaccSolver(episodes=20, seed=0).solve(small_problem)
        assert result.feasible

    def test_obs_module_exposed(self):
        assert "obs" in repro.__all__
        for name in (
            "observed",
            "enable",
            "disable",
            "is_enabled",
            "metrics",
            "tracer",
            "MetricsRegistry",
            "Timer",
            "SpanRecord",
            "write_jsonl",
            "load_jsonl",
            "to_prometheus_text",
            "render_dashboard",
            "names",
        ):
            assert hasattr(repro.obs, name), name

    def test_obs_disabled_by_default(self):
        assert not repro.obs.is_enabled()

    def test_obs_observed_round_trip(self, small_problem):
        with repro.obs.observed() as session:
            repro.get_solver("greedy").solve(small_problem)
            snapshot = session.snapshot()
        assert snapshot["counters"]["solver/solves{solver=greedy}"] == 1
        assert not repro.obs.is_enabled()
