"""Tests for trace replay and paired comparison."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.model.instances import topology_instance
from repro.model.solution import Assignment
from repro.sim.trace_runner import paired_comparison, replay_trace
from repro.solvers.greedy import GreedyFeasibleSolver, RandomFeasibleSolver
from repro.workload.traces import generate_trace


@pytest.fixture(scope="module")
def setup():
    problem = topology_instance(
        n_routers=20, n_devices=12, n_servers=3, tightness=0.7, seed=21,
        deadline_s=0.05,
    )
    trace = generate_trace(problem.devices, horizon_s=15.0, seed=5)
    good = GreedyFeasibleSolver().solve(problem).assignment
    bad = RandomFeasibleSolver(seed=1).solve(problem).assignment
    return problem, trace, good, bad


class TestReplayTrace:
    def test_every_trace_entry_becomes_a_task(self, setup):
        _, trace, good, _ = setup
        report = replay_trace(good, trace, drain_s=30.0)
        assert report.tasks_created == trace.n_entries
        assert report.tasks_completed == trace.n_entries

    def test_replay_is_exactly_repeatable(self, setup):
        _, trace, good, _ = setup
        a = replay_trace(good, trace)
        b = replay_trace(good, trace)
        assert a.mean_network_latency_ms == b.mean_network_latency_ms
        assert a.p99_total_latency_ms == b.p99_total_latency_ms

    def test_partial_assignment_rejected(self, setup):
        problem, trace, _, _ = setup
        with pytest.raises(ValidationError, match="partial"):
            replay_trace(Assignment(problem), trace)

    def test_unknown_device_in_trace_rejected(self, setup):
        problem, _, good, _ = setup
        from repro.workload.traces import Trace, TraceEntry

        rogue = Trace(
            horizon_s=1.0,
            entries=[TraceEntry(time_s=0.5, device_id=999, size_bits=1e3,
                                compute_units=1.0)],
        )
        with pytest.raises(ValidationError, match="unknown device"):
            replay_trace(good, rogue)

    @pytest.mark.parametrize("time_s", [float("inf"), float("nan")])
    def test_non_finite_entry_time_rejected(self, setup, time_s):
        problem, _, good, _ = setup
        from repro.workload.traces import Trace, TraceEntry

        trace = Trace(
            horizon_s=1.0,
            entries=[TraceEntry(time_s=time_s, device_id=0, size_bits=1e3,
                                compute_units=1.0)],
        )
        with pytest.raises(ValidationError, match="finite"):
            replay_trace(good, trace)

    def test_matrix_problem_rejected(self, small_problem, setup):
        _, trace, _, _ = setup
        from repro.solvers.greedy import greedy_feasible_assignment

        assignment = greedy_feasible_assignment(small_problem)
        with pytest.raises(ValidationError, match="topology"):
            replay_trace(assignment, trace)

    def test_better_assignment_measures_faster_on_same_trace(self, setup):
        _, trace, good, bad = setup
        assert good.total_delay() < bad.total_delay()
        good_report = replay_trace(good, trace)
        bad_report = replay_trace(bad, trace)
        assert good_report.mean_network_latency_ms < bad_report.mean_network_latency_ms


class TestPairedComparison:
    def test_deltas_consistent(self, setup):
        _, trace, good, bad = setup
        outcome = paired_comparison(baseline=bad, candidate=good, trace=trace)
        assert outcome["delta_mean_network_ms"] == pytest.approx(
            outcome["candidate_mean_network_ms"] - outcome["baseline_mean_network_ms"]
        )
        # good is the candidate: delta must be negative (faster)
        assert outcome["delta_mean_network_ms"] < 0

    def test_identical_assignments_zero_delta(self, setup):
        _, trace, good, _ = setup
        outcome = paired_comparison(baseline=good, candidate=good, trace=trace)
        assert outcome["delta_mean_network_ms"] == 0.0
        assert outcome["delta_p99_total_ms"] == 0.0

    def test_cross_problem_comparison_rejected(self, setup):
        problem, trace, good, _ = setup
        other = topology_instance(
            n_routers=20, n_devices=12, n_servers=3, tightness=0.7, seed=22
        )
        foreign = GreedyFeasibleSolver().solve(other).assignment
        with pytest.raises(ValidationError, match="one problem"):
            paired_comparison(good, foreign, trace)
