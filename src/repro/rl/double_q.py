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

from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.rl.qlearning import QLearningSolver, QTable, TrainingLog


class DoubleQLearningSolver(QLearningSolver):
    """Two-table debiased Q-learning over the masked assignment MDP."""

    name = "double_q"

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        env = self._make_env(problem)
        table_a, table_b = QTable(env.n_actions), QTable(env.n_actions)
        log = TrainingLog(self, env.n_actions)
        alpha, gamma = self.alpha, self.gamma
        random, step = rng.random, env.step
        explore, exploit = self._explore_action, self._exploit_action

        with self.phase("train"):
            for episode in range(self.episodes):
                eps = log.start(episode)
                state = env.reset()
                while not env.done:
                    actions = env.allowed
                    if not actions:  # pragma: no cover - env ends episodes
                        break
                    log.blocked(len(actions))
                    row_a, row_b = table_a.row(state), table_b.row(state)
                    if random() < eps:
                        action = explore(env, actions, rng)
                    else:
                        combined = [a + b for a, b in zip(row_a, row_b)]
                        action = exploit(env, combined, actions, rng)
                    next_state, reward, done, _ = step(action)
                    # flip a coin: update one table using the other's estimate
                    if random() < 0.5:
                        learn, evaluate = table_a, table_b
                    else:
                        learn, evaluate = table_b, table_a
                    if done:
                        target = reward
                    else:
                        learn_next = learn.row(next_state)
                        # select with the learning table, evaluate with the other
                        chosen = max(env.allowed, key=learn_next.__getitem__)
                        target = reward + gamma * evaluate.row(next_state)[chosen]
                    learn_row = learn.row(state)
                    learn_row[action] += alpha * (target - learn_row[action])
                    state = next_state
                if log.finish(env):
                    break

        return self._outcome(problem, rng, log, len(table_a) + len(table_b))
