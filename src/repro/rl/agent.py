"""TACC: the topology-aware RL agent — the paper's headline algorithm.

:class:`TaccSolver` is Q-learning specialized with the three
ingredients the title and abstract call out:

1. **Topology awareness in exploration.**  Instead of exploring
   uniformly, exploratory moves sample servers from a Boltzmann
   distribution over *routed-path delays* — near servers (in network
   terms, not geometric terms) are tried more, so the agent spends its
   episode budget in the region of the solution space where good
   assignments live.

2. **Feasibility masking.**  Actions that would overload a server are
   excluded from the action set, so every completed episode satisfies
   "none of the edge devices are overloaded" by construction.

3. **Best-episode memory + local polish.**  The returned assignment is
   the best feasible episode ever rolled out, refined by a few passes
   of feasibility-preserving shift/swap local search.  The polish is
   cheap (the RL already landed near a minimum) and is ablated in T3.

Everything else (state abstraction, Q-update, schedules) is inherited
from :class:`~repro.rl.qlearning.QLearningSolver`.
"""

from __future__ import annotations

import numpy as np

from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.rl.env import AssignmentEnv
from repro.rl.qlearning import QLearningSolver
from repro.solvers.local_search import descend
from repro.utils.validation import check_positive


class TaccSolver(QLearningSolver):
    """Topology Aware Cluster Configuration solver."""

    name = "tacc"

    def __init__(
        self,
        episodes: int = 400,
        exploration_temperature: float = 0.25,
        polish: bool = True,
        polish_passes: int = 30,
        **kwargs,
    ) -> None:
        super().__init__(episodes=episodes, **kwargs)
        self.exploration_temperature = check_positive(
            exploration_temperature, "exploration_temperature"
        )
        self.polish = polish
        self.polish_passes = polish_passes
        self._delay_preference: "np.ndarray | None" = None

    def _make_env(self, problem: AssignmentProblem) -> AssignmentEnv:
        env = super()._make_env(problem)
        # Boltzmann preference over normalized routed delays, one row
        # per device: exp(-d / T) — the topology-aware exploration prior
        norm = problem.normalized_delay()
        logits = -norm / self.exploration_temperature
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        self._delay_preference = weights / weights.sum(axis=1, keepdims=True)
        return env

    def _explore_action(self, env: AssignmentEnv, actions: np.ndarray, rng) -> int:
        """Sample allowed servers proportionally to exp(-delay / T)."""
        assert self._delay_preference is not None
        weights = self._delay_preference[env.current_device, actions]
        total = float(weights.sum())
        if total <= 0:  # pragma: no cover - defensive
            return int(actions[rng.integers(actions.size)])
        return int(rng.choice(actions, p=weights / total))

    def _exploit_action(
        self, env: AssignmentEnv, q_row: np.ndarray, actions: np.ndarray, rng
    ) -> int:
        """Max-Q allowed action; ties broken by lowest routed delay."""
        values = q_row[actions]
        best = values.max()
        tied = actions[values >= best - 1e-12]
        if tied.size == 1:
            return int(tied[0])
        delays = env.problem.delay[env.current_device, tied]
        return int(tied[int(np.argmin(delays))])

    def _post_process(self, problem: AssignmentProblem, vector: np.ndarray) -> np.ndarray:
        if not self.polish:
            return vector
        return polish_assignment(problem, vector, max_passes=self.polish_passes)


def polish_assignment(
    problem: AssignmentProblem,
    vector: np.ndarray,
    max_passes: int = 30,
) -> np.ndarray:
    """Feasibility-preserving best-improvement shift/swap descent.

    Small helper shared by the TACC polish step and the dynamic
    reconfiguration controller (which polishes incumbent assignments
    after mobility shifts instead of re-solving from scratch).  Shed
    (unassigned, ``-1``) devices stay shed and carry no load.
    """
    vector = np.asarray(vector, dtype=np.int64).copy()
    descend(problem, vector, Assignment(problem, vector).loads(), max_passes)
    return vector
