"""SARSA: the on-policy counterpart of the Q-learning heuristic.

Included for the RL-design ablation: Q-learning bootstraps off the
*greedy* next action (off-policy), SARSA off the action the behaviour
policy *actually takes* — under heavy exploration the two learn
measurably different value surfaces, and comparing them isolates how
much of TACC's performance comes from the off-policy max.

Interface, state abstraction and best-episode memory are identical to
:class:`~repro.rl.qlearning.QLearningSolver`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.rl.qlearning import QLearningSolver


class SarsaSolver(QLearningSolver):
    """On-policy TD(0) over the masked assignment MDP."""

    name = "sarsa"

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        env = self._make_env(problem)
        n_actions = env.n_actions
        q_table: dict[tuple, np.ndarray] = {}

        def q_row(state: tuple) -> np.ndarray:
            """Return q row."""
            row = q_table.get(state)
            if row is None:
                row = np.zeros(n_actions)
                q_table[state] = row
            return row

        def choose(state: tuple, actions: np.ndarray, eps: float) -> int:
            """Return choose."""
            if rng.random() < eps:
                return self._explore_action(env, actions, rng)
            return self._exploit_action(env, q_row(state), actions, rng)

        best_cost = math.inf
        best_vector: "np.ndarray | None" = None
        episode_costs: list[float] = []
        dead_ends = 0

        for episode in range(self.episodes):
            eps = float(self.epsilon(episode))
            state = env.reset()
            actions = env.feasible_actions()
            if actions.size == 0:  # pragma: no cover - degenerate instance
                break
            action = choose(state, actions, eps)
            while True:
                next_state, reward, done, _ = env.step(action)
                if done:
                    row = q_row(state)
                    row[action] += self.alpha * (reward - row[action])
                    break
                next_actions = env.feasible_actions()
                next_action = choose(next_state, next_actions, eps)
                # on-policy target: the action we will actually take
                target = reward + self.gamma * q_row(next_state)[next_action]
                row = q_row(state)
                row[action] += self.alpha * (target - row[action])
                state, action = next_state, next_action
            result = env.rollout_result()
            if result.dead_end:
                dead_ends += 1
            episode_costs.append(result.total_delay if result.feasible else math.nan)
            if result.feasible and result.total_delay < best_cost:
                best_cost = result.total_delay
                best_vector = result.vector

        return self._outcome(problem, rng, best_vector, episode_costs, dead_ends, len(q_table))
