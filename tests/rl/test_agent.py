"""Tests for TaccSolver — the headline algorithm."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.instances import gap_instance, random_instance, topology_instance
from repro.model.problem import AssignmentProblem
from repro.model.solution import UNASSIGNED
from repro.rl.agent import TaccSolver, polish_assignment
from repro.rl.qlearning import QLearningSolver
from repro.solvers.exact import BranchAndBoundSolver
from repro.solvers.greedy import GreedyFeasibleSolver, greedy_feasible_assignment


class TestTaccSolver:
    def test_feasible_output(self, small_problem):
        result = TaccSolver(episodes=60, seed=1).solve(small_problem)
        assert result.feasible

    def test_feasible_on_tight_correlated(self, tight_problem):
        result = TaccSolver(episodes=80, seed=2).solve(tight_problem)
        assert result.feasible
        assert result.assignment.overloaded_servers() == []

    def test_near_optimal_on_small_instances(self):
        """The paper's claim: near-optimal assignments.  Demand <= 5% mean
        gap to branch-and-bound across seeds."""
        gaps = []
        for seed in range(4):
            problem = random_instance(15, 4, tightness=0.8, seed=seed)
            optimum = BranchAndBoundSolver().solve(problem).objective_value
            tacc = TaccSolver(episodes=150, seed=seed).solve(problem).objective_value
            gaps.append(tacc / optimum - 1.0)
        assert np.mean(gaps) <= 0.05

    def test_outperforms_greedy_baseline(self):
        """The paper's other claim: beats the state-of-the-art heuristic."""
        tacc_total, greedy_total = 0.0, 0.0
        for seed in range(4):
            problem = gap_instance(30, 5, "c", seed=seed)
            tacc_total += TaccSolver(episodes=150, seed=seed).solve(problem).objective_value
            greedy_total += GreedyFeasibleSolver().solve(problem).objective_value
        assert tacc_total < greedy_total

    def test_at_least_matches_plain_qlearning(self):
        tacc_total, plain_total = 0.0, 0.0
        for seed in range(4):
            problem = random_instance(30, 5, tightness=0.85, seed=seed)
            tacc_total += TaccSolver(episodes=100, seed=seed).solve(problem).objective_value
            plain_total += QLearningSolver(episodes=100, seed=seed).solve(
                problem
            ).objective_value
        assert tacc_total <= plain_total + 1e-9

    def test_works_on_topology_instance(self, topo_problem):
        result = TaccSolver(episodes=80, seed=3).solve(topo_problem)
        assert result.feasible

    def test_polish_flag_changes_nothing_when_already_optimal(self):
        problem = random_instance(8, 3, tightness=0.6, seed=4)
        polished = TaccSolver(episodes=200, seed=4, polish=True).solve(problem)
        optimum = BranchAndBoundSolver().solve(problem).objective_value
        assert polished.objective_value <= optimum * 1.02

    def test_polish_never_hurts(self, small_problem):
        on = TaccSolver(episodes=50, seed=5, polish=True).solve(small_problem)
        off = TaccSolver(episodes=50, seed=5, polish=False).solve(small_problem)
        assert on.objective_value <= off.objective_value + 1e-12

    def test_deterministic_given_seed(self, small_problem):
        a = TaccSolver(episodes=40, seed=6).solve(small_problem)
        b = TaccSolver(episodes=40, seed=6).solve(small_problem)
        assert a.assignment == b.assignment

    def test_registry_name(self):
        assert TaccSolver.name == "tacc"


class TestPolishAssignment:
    def test_improves_or_preserves(self, small_problem):
        start = greedy_feasible_assignment(small_problem)
        before = start.total_delay()
        polished = polish_assignment(small_problem, start.vector)
        after = float(
            np.sum(
                small_problem.delay[np.arange(small_problem.n_devices), polished]
            )
        )
        assert after <= before + 1e-12

    def test_preserves_feasibility(self, tight_problem):
        from repro.model.solution import Assignment
        from repro.solvers.greedy import feasible_start

        start = feasible_start(tight_problem)
        polished = polish_assignment(tight_problem, start.vector)
        assert Assignment(tight_problem, polished).is_feasible()

    def test_does_not_mutate_input(self, small_problem):
        start = greedy_feasible_assignment(small_problem).vector
        original = start.copy()
        polish_assignment(small_problem, start)
        assert np.all(start == original)

    def test_zero_passes_is_identity(self, small_problem):
        start = greedy_feasible_assignment(small_problem).vector
        polished = polish_assignment(small_problem, start, max_passes=0)
        assert np.all(polished == start)

    def test_shed_devices_stay_shed_and_carry_no_load(self):
        problem = random_instance(20, 4, tightness=0.6, seed=3)
        start = greedy_feasible_assignment(problem).vector
        start[[0, 5, 9]] = UNASSIGNED
        polished = polish_assignment(problem, start, 30)
        assert np.all(polished[[0, 5, 9]] == UNASSIGNED)
        # the served devices descend exactly as if the shed ones were absent
        served = np.flatnonzero(start != UNASSIGNED)
        alone = AssignmentProblem(
            delay=problem.delay[served],
            demand=problem.demand[served],
            capacity=problem.capacity,
        )
        assert np.array_equal(polished[served], polish_assignment(alone, start[served], 30))
