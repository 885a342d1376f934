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

from bisect import bisect_right
from itertools import accumulate

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
        # per-step rows of the current solve, in the env's device order
        self._preference_rows: "list[list[float]]" = []
        self._delay_rows: "list[list[float]]" = []

    def _make_env(self, problem: AssignmentProblem) -> AssignmentEnv:
        env = super()._make_env(problem)
        # Boltzmann preference over normalized routed delays, one row
        # per device: exp(-d / T) — the topology-aware exploration prior
        norm = problem.normalized_delay()
        logits = -norm / self.exploration_temperature
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        preference = weights / weights.sum(axis=1, keepdims=True)
        self._preference_rows = preference[env.order].tolist()
        self._delay_rows = problem.delay[env.order].tolist()
        return env

    def _explore_action(self, env: AssignmentEnv, actions: tuple, rng) -> int:
        """Sample allowed servers proportionally to exp(-delay / T)."""
        row = self._preference_rows[env.t]
        return boltzmann_choice(actions, [row[a] for a in actions], rng)

    def _exploit_action(self, env: AssignmentEnv, q_row: list, actions: tuple, rng) -> int:
        """Max-Q allowed action; ties broken by lowest routed delay."""
        values = [q_row[a] for a in actions]
        floor = max(values) - 1e-12
        tied = [a for a, value in zip(actions, values) if value >= floor]
        if len(tied) == 1:
            return tied[0]
        return min(tied, key=self._delay_rows[env.t].__getitem__)

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


def boltzmann_choice(actions: "tuple[int, ...]", weights: "list[float]", rng) -> int:
    """Draw one of ``actions`` with probability proportional to ``weights``.

    Bit for bit what ``rng.choice(actions, p=w / w.sum())`` returns for
    ``w = np.array(weights)``, and the generator advances by the same
    single ``rng.random()`` draw, without building an array: numpy's
    sum, then ``Generator.choice``'s sequential cumulative sum of
    ``w / total`` divided by its last entry, then a right-bisection of
    the uniform draw.  When every weight underflowed to zero the draw
    is uniform (one ``rng.integers`` call).
    """
    total = numpy_sum(weights)
    if total <= 0:
        return actions[rng.integers(len(actions))]
    cdf = list(accumulate([weight / total for weight in weights]))
    last = cdf[-1]
    return actions[bisect_right([value / last for value in cdf], rng.random())]


def numpy_sum(values: "list[float]") -> float:
    """``np.sum`` of a float64 vector, reproduced with the same rounding.

    numpy adds fewer than eight elements left to right; from eight on it
    sums eight interleaved lanes and combines them pairwise, splitting
    blocks longer than 128 in halves (``pairwise_sum`` in numpy's
    ``loops_utils``).
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return numpy_sum(values[:half]) + numpy_sum(values[half:])
    lanes = values[:8]
    stop = n - n % 8
    for start in range(8, stop, 8):
        for lane in range(8):
            lanes[lane] += values[start + lane]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
        (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
    )
    for value in values[stop:]:
        total += value
    return total
