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

from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.rl.qlearning import QLearningSolver, QTable, TrainingLog


class SarsaSolver(QLearningSolver):
    """On-policy TD(0) over the masked assignment MDP."""

    name = "sarsa"

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        env = self._make_env(problem)
        q_table = QTable(env.n_actions)
        log = TrainingLog(self, env.n_actions)
        alpha, gamma = self.alpha, self.gamma
        random, step, q_row = rng.random, env.step, q_table.row
        explore, exploit = self._explore_action, self._exploit_action

        def choose(state: tuple, actions: tuple, eps: float) -> int:
            """Epsilon-greedy action of ``state`` among ``actions``."""
            log.blocked(len(actions))
            if random() < eps:
                return explore(env, actions, rng)
            return exploit(env, q_row(state), actions, rng)

        with self.phase("train"):
            for episode in range(self.episodes):
                eps = log.start(episode)
                state = env.reset()
                if not env.done:  # done here: the first device fits nowhere
                    action = choose(state, env.allowed, eps)
                while not env.done:
                    next_state, reward, done, _ = step(action)
                    if done:
                        row = q_row(state)
                        row[action] += alpha * (reward - row[action])
                        break
                    next_action = choose(next_state, env.allowed, eps)
                    # on-policy target: the action we will actually take
                    target = reward + gamma * q_row(next_state)[next_action]
                    row = q_row(state)
                    row[action] += alpha * (target - row[action])
                    state, action = next_state, next_action
                if log.finish(env):
                    break

        return self._outcome(problem, rng, log, len(q_table))
