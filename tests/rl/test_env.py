"""Tests for the sequential-assignment MDP environment."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.model.instances import random_instance
from repro.model.problem import AssignmentProblem
from repro.rl.env import AssignmentEnv
from tests.strategies import small_problems


@pytest.fixture
def env(small_problem):
    return AssignmentEnv(small_problem)


class TestLifecycle:
    def test_reset_state(self, env):
        env.reset()
        assert env.t == 0
        assert not env.done
        assert np.all(env.vector == -1)
        assert np.allclose(env.residual, env.problem.capacity)

    def test_episode_length_equals_devices(self, env):
        env.reset()
        steps = 0
        while not env.done:
            actions = env.feasible_actions()
            env.step(int(actions[0]))
            steps += 1
        assert steps <= env.n_steps
        result = env.rollout_result()
        assert result.steps == steps

    def test_device_order_is_permutation(self, env):
        assert sorted(env.order.tolist()) == list(range(env.problem.n_devices))

    def test_default_order_decreasing_demand(self, small_problem):
        env = AssignmentEnv(small_problem)
        demands = np.mean(small_problem.demand, axis=1)[env.order]
        assert np.all(np.diff(demands) <= 1e-12)

    def test_custom_order(self, small_problem):
        order = np.arange(small_problem.n_devices)[::-1]
        env = AssignmentEnv(small_problem, device_order=order)
        assert env.current_device == small_problem.n_devices - 1

    def test_invalid_order_rejected(self, small_problem):
        with pytest.raises(ValidationError):
            AssignmentEnv(small_problem, device_order=[0] * small_problem.n_devices)

    def test_step_after_done_rejected(self, env):
        env.reset()
        while not env.done:
            env.step(int(env.feasible_actions()[0]))
        with pytest.raises(ValidationError):
            env.step(0)

    def test_rollout_result_requires_done(self, env):
        env.reset()
        with pytest.raises(ValidationError):
            env.rollout_result()


class TestMasking:
    def test_mask_excludes_full_servers(self):
        problem = AssignmentProblem(
            delay=[[1.0, 2.0], [1.0, 2.0]],
            demand=[10.0, 10.0],
            capacity=[10.0, 10.0],
        )
        env = AssignmentEnv(problem)
        env.reset()
        env.step(0)  # first device fills server 0
        assert list(env.feasible_actions()) == [1]

    def test_masked_action_raises(self):
        problem = AssignmentProblem(
            delay=[[1.0, 2.0], [1.0, 2.0]],
            demand=[10.0, 10.0],
            capacity=[10.0, 10.0],
        )
        env = AssignmentEnv(problem)
        env.reset()
        env.step(0)
        with pytest.raises(ValidationError, match="masked"):
            env.step(0)

    def test_unmasked_env_allows_overload_with_penalty(self):
        problem = AssignmentProblem(
            delay=[[1e-3, 2e-3], [1e-3, 2e-3]],
            demand=[10.0, 10.0],
            capacity=[10.0, 10.0],
        )
        env = AssignmentEnv(problem, mask_infeasible=False, overload_penalty=10.0)
        env.reset()
        _, reward_ok, _, _ = env.step(0)
        _, reward_overload, _, _ = env.step(0)  # second device overloads server 0
        assert reward_overload < reward_ok - 1.0

    def test_dead_end_terminates_with_penalty(self):
        # first device fits on both; once it takes server 0's last slot,
        # the bigger second device fits nowhere -> dead end
        problem = AssignmentProblem(
            delay=[[1.0, 1.0], [1.0, 1.0]],
            demand=[[5.0, 5.0], [8.0, 8.0]],
            capacity=[8.0, 5.0],
        )
        env = AssignmentEnv(problem, device_order=[0, 1])
        env.reset()
        _, reward, done, info = env.step(0)
        assert done
        assert info.get("dead_end")
        assert reward <= AssignmentEnv.DEAD_END_REWARD
        result = env.rollout_result()
        assert result.dead_end
        assert not result.feasible

    def test_first_device_fitting_nowhere_dead_ends_at_reset(self):
        problem = AssignmentProblem(
            delay=[[1.0, 1.0], [1.0, 1.0]],
            demand=[[9.0, 9.0], [1.0, 1.0]],
            capacity=[8.0, 5.0],
        )
        env = AssignmentEnv(problem, device_order=[0, 1])
        assert env.reset() == (0, (3, 3))
        assert env.done and env.dead_end and env.allowed == ()
        result = env.rollout_result()
        assert result.dead_end and result.steps == 0 and not result.feasible


class TestRewards:
    def test_rewards_are_negative_normalized_delay(self, small_problem):
        env = AssignmentEnv(small_problem)
        env.reset()
        device = env.current_device
        actions = env.feasible_actions()
        action = int(actions[0])
        _, reward, _, _ = env.step(action)
        expected = -small_problem.normalized_delay()[device, action]
        assert reward == pytest.approx(expected)

    def test_episode_return_orders_like_total_delay(self, small_problem):
        """Lower total delay <-> higher return for complete episodes."""
        def roll(policy):
            env = AssignmentEnv(small_problem)
            env.reset()
            total_reward = 0.0
            while not env.done:
                actions = env.feasible_actions()
                total_reward += env.step(policy(env, actions))[1]
            return total_reward, env.rollout_result().total_delay

        greedy_return, greedy_delay = roll(
            lambda env, acts: int(acts[np.argmin(env.problem.delay[env.current_device, acts])])
        )
        worst_return, worst_delay = roll(
            lambda env, acts: int(acts[np.argmax(env.problem.delay[env.current_device, acts])])
        )
        assert greedy_delay < worst_delay
        assert greedy_return > worst_return


class TestStateKey:
    def test_key_is_hashable_and_stable(self, env):
        env.reset()
        key = env.state_key()
        assert hash(key) == hash(env.state_key())

    def test_key_changes_with_progress(self, env):
        env.reset()
        first = env.state_key()
        env.step(int(env.feasible_actions()[0]))
        assert env.state_key() != first

    def test_bucket_count_bounds_key_values(self, small_problem):
        env = AssignmentEnv(small_problem, load_buckets=3)
        env.reset()
        while not env.done:
            _, buckets = env.state_key()
            assert all(0 <= b <= 2 for b in buckets)
            env.step(int(env.feasible_actions()[0]))


@settings(max_examples=25, deadline=None)
@given(problem=small_problems(), seed=st.integers(0, 1000))
def test_property_masked_episodes_never_overload(problem, seed):
    """Any action sequence drawn from feasible_actions yields loads within
    capacity — the masking guarantee."""
    rng = np.random.default_rng(seed)
    env = AssignmentEnv(problem)
    env.reset()
    while not env.done:
        actions = env.feasible_actions()
        env.step(int(actions[rng.integers(actions.size)]))
    result = env.rollout_result()
    if not result.dead_end:
        assert result.feasible
    # even on dead ends, the partial loads respect capacity
    loads = np.zeros(problem.n_servers)
    placed = result.vector >= 0
    np.add.at(
        loads,
        result.vector[placed],
        problem.demand[np.flatnonzero(placed), result.vector[placed]],
    )
    assert np.all(loads <= problem.capacity + 1e-9)
