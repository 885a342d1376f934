"""Graceful degradation: priority shedding and the controller's degraded path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.controller import ReconfigurationController
from repro.cluster.degradation import (
    DegradedSolution,
    shed_priority_by_demand,
    solve_degraded,
)
from repro.cluster.faults import degraded_problem, served_cost
from repro.errors import ValidationError
from repro.model.instances import random_instance
from repro.model.solution import UNASSIGNED, Assignment
from repro.solvers.registry import get_solver


class TestSolveDegraded:
    def test_feasible_problem_sheds_nobody(self, small_problem):
        solution = solve_degraded(small_problem, get_solver("greedy", seed=1))
        assert solution.feasible
        assert solution.shed == ()
        assert solution.n_served == small_problem.n_devices
        assert solution.rounds == 1
        Assignment(small_problem, solution.vector).validate()

    def test_infeasible_problem_sheds_and_serves_the_rest(self, small_problem):
        # fail 2 of 3 servers: the survivor cannot host everyone
        degraded = degraded_problem(small_problem, {1, 2})
        solution = solve_degraded(degraded, get_solver("greedy", seed=1))
        assert solution.feasible
        assert len(solution.shed) > 0
        assert 0 < solution.n_served < small_problem.n_devices
        # served devices sit on the one healthy server, within capacity
        served = solution.vector[solution.vector != UNASSIGNED]
        assert set(served.tolist()) == {0}
        Assignment(degraded, solution.vector)  # vector is well-formed
        assert solution.served_cost == pytest.approx(
            served_cost(degraded, solution.vector)
        )

    def test_default_priority_sheds_heaviest_first(self, small_problem):
        degraded = degraded_problem(small_problem, {1, 2})
        solution = solve_degraded(degraded, get_solver("greedy", seed=1))
        priority = shed_priority_by_demand(degraded)
        shed_priorities = priority[list(solution.shed)]
        kept = np.setdiff1d(
            np.arange(small_problem.n_devices), np.array(solution.shed)
        )
        # everyone shed has priority <= everyone kept (heaviest go first)
        assert shed_priorities.max() <= priority[kept].min() + 1e-12

    def test_explicit_priority_protects_vips(self, small_problem):
        degraded = degraded_problem(small_problem, {1, 2})
        priority = np.arange(small_problem.n_devices, dtype=float)
        solution = solve_degraded(
            degraded, get_solver("greedy", seed=1), priority=priority
        )
        assert solution.feasible
        # the highest-priority devices (largest values) are never shed
        # before lower ones: shed set is a prefix of the priority order
        assert sorted(solution.shed) == list(range(len(solution.shed)))

    def test_wrong_priority_length_rejected(self, small_problem):
        with pytest.raises(ValidationError):
            solve_degraded(
                small_problem, get_solver("greedy"), priority=np.ones(3)
            )

    def test_hopeless_problem_never_raises(self):
        problem = random_instance(8, 2, tightness=0.6, seed=9)
        crushed = degraded_problem(problem, {1})
        # shrink the survivor so even one device barely fits
        solution = solve_degraded(crushed, get_solver("greedy", seed=1))
        assert isinstance(solution, DegradedSolution)
        assert solution.n_served + len(solution.shed) == problem.n_devices


class TestControllerDegradedPath:
    def test_observe_with_failures_sheds_and_recovers(self, small_problem):
        controller = ReconfigurationController(
            get_solver("greedy", seed=1), strategy="always"
        )
        controller.initialize(small_problem)
        # two of three servers die: expect shedding, healthy targets only
        decision = controller.observe(1, small_problem, failed={1, 2})
        assert decision.reconfigured
        assert decision.shed > 0
        assert decision.feasible  # the served subset is valid
        served = decision.vector[decision.vector != UNASSIGNED]
        assert set(served.tolist()) == {0}
        # repair: the next healthy epoch restores full service
        after = controller.observe(2, small_problem)
        assert int(np.count_nonzero(after.vector == UNASSIGNED)) == 0

    def test_single_failure_routes_around_without_shedding(self):
        problem = random_instance(12, 3, tightness=0.4, seed=7)
        controller = ReconfigurationController(
            get_solver("greedy", seed=1), strategy="always"
        )
        controller.initialize(problem)
        decision = controller.observe(1, problem, failed={2})
        assert decision.shed == 0
        assert decision.feasible
        assert 2 not in set(decision.vector.tolist())

    def test_static_keeps_feasible_incumbent(self):
        problem = random_instance(12, 3, tightness=0.4, seed=7)
        controller = ReconfigurationController(
            get_solver("greedy", seed=1), strategy="static"
        )
        init = controller.initialize(problem)
        unused = sorted(
            set(range(problem.n_servers)) - set(init.vector.tolist())
        )
        if unused:  # failing an unused server must be a no-op
            decision = controller.observe(1, problem, failed={unused[0]})
            assert not decision.reconfigured
            assert np.array_equal(decision.vector, init.vector)

    def test_polish_epoch_after_shedding_keeps_shed_devices_out(self):
        problem = random_instance(20, 4, tightness=0.6, seed=3)
        controller = ReconfigurationController(
            get_solver("greedy", seed=1), strategy="polish"
        )
        controller.initialize(problem)
        degraded = controller.observe(1, problem, failed={1, 2})
        shed = degraded.vector == UNASSIGNED
        assert degraded.shed == int(np.count_nonzero(shed)) > 0
        # the next healthy epoch polishes the served devices only
        polished = controller.observe(2, problem)
        assert np.all(polished.vector[shed] == UNASSIGNED)
        loads = Assignment(problem, polished.vector).loads()
        assert np.all(loads <= problem.capacity + 1e-9)
        assert polished.cost <= Assignment(problem, degraded.vector).total_delay() + 1e-12
