"""Double Q-learning: the overestimation-bias ablation.

Standard Q-learning's ``max`` target systematically overestimates
action values under noise (Hasselt, 2010); Double Q-learning keeps two
tables, selects the argmax with one and evaluates it with the other.
In this finite-horizon, deterministic-reward MDP the bias is mild —
which is itself a useful finding the RL-design comparison can report —
but the variant completes the family: Q-learning (off-policy max),
SARSA (on-policy), Double Q (debiased off-policy).

Interface and defaults match :class:`~repro.rl.qlearning.QLearningSolver`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.rl.qlearning import QLearningSolver


class DoubleQLearningSolver(QLearningSolver):
    """Two-table debiased Q-learning over the masked assignment MDP."""

    name = "double_q"

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        env = self._make_env(problem)
        n_actions = env.n_actions
        table_a: dict[tuple, np.ndarray] = {}
        table_b: dict[tuple, np.ndarray] = {}

        def row(table: dict, state: tuple) -> np.ndarray:
            entry = table.get(state)
            if entry is None:
                entry = np.zeros(n_actions)
                table[state] = entry
            return entry

        best_cost = math.inf
        best_vector: "np.ndarray | None" = None
        episode_costs: list[float] = []
        dead_ends = 0

        for episode in range(self.episodes):
            eps = float(self.epsilon(episode))
            state = env.reset()
            while not env.done:
                actions = env.feasible_actions()
                if actions.size == 0:  # pragma: no cover - env ends episodes
                    break
                combined = row(table_a, state) + row(table_b, state)
                if rng.random() < eps:
                    action = self._explore_action(env, actions, rng)
                else:
                    action = self._exploit_action(env, combined, actions, rng)
                next_state, reward, done, _ = env.step(action)
                # flip a coin: update one table using the other's estimate
                update_a = rng.random() < 0.5
                learn = table_a if update_a else table_b
                evaluate = table_b if update_a else table_a
                if done:
                    target = reward
                else:
                    next_actions = env.feasible_actions()
                    learn_next = row(learn, next_state)
                    # select with the learning table, evaluate with the other
                    chosen = int(next_actions[int(np.argmax(learn_next[next_actions]))])
                    target = reward + self.gamma * float(row(evaluate, next_state)[chosen])
                learn_row = row(learn, state)
                learn_row[action] += self.alpha * (target - learn_row[action])
                state = next_state
            result = env.rollout_result()
            if result.dead_end:
                dead_ends += 1
            episode_costs.append(result.total_delay if result.feasible else math.nan)
            if result.feasible and result.total_delay < best_cost:
                best_cost = result.total_delay
                best_vector = result.vector

        q_states = len(table_a) + len(table_b)
        return self._outcome(problem, rng, best_vector, episode_costs, dead_ends, q_states)
