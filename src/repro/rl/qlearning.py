"""Tabular Q-learning over the sequential-assignment MDP.

The solver trains for a fixed episode budget and returns the **best
feasible episode** encountered — the standard way RL is used as a
combinatorial-optimization heuristic: the learned Q-table steers the
sampling distribution toward low-delay feasible assignments, and the
incumbent memory turns stochastic exploration into an anytime solver
whose output can only improve with budget.

``extra`` of the result carries the per-episode cost curve, which is
what the F6 convergence figure plots.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.rl.env import AssignmentEnv
from repro.rl.schedules import ExponentialDecay
from repro.solvers.base import Solver
from repro.solvers.greedy import feasible_start
from repro.utils.validation import check_in_range, check_positive, require


class QLearningSolver(Solver):
    """Epsilon-greedy tabular Q-learning (the plain variant).

    Parameters
    ----------
    episodes:
        Training episode budget; also the anytime knob.
    alpha:
        Learning rate of the Q-update.
    gamma:
        Discount; 1.0 (undiscounted) is correct for this finite-horizon
        objective and is the default.
    epsilon:
        Exploration schedule (callable episode -> probability); default
        decays exponentially from 1.0 to a 0.05 floor.
    load_buckets / mask_infeasible / overload_penalty:
        Forwarded to :class:`~repro.rl.env.AssignmentEnv`; masking on
        is the paper's overload guarantee, and the T3 ablation flips it.
    """

    name = "qlearning"

    def __init__(
        self,
        episodes: int = 400,
        alpha: float = 0.2,
        gamma: float = 1.0,
        epsilon=None,
        load_buckets: int = 4,
        mask_infeasible: bool = True,
        overload_penalty: float = 10.0,
        device_order: str = "demand",
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        require(episodes >= 1, "episodes must be >= 1")
        check_in_range(alpha, "alpha", 0.0, 1.0, low_inclusive=False)
        check_in_range(gamma, "gamma", 0.0, 1.0)
        require(
            device_order in ("demand", "index", "random"),
            f"device_order must be demand|index|random, got {device_order!r}",
        )
        self.episodes = episodes
        self.alpha = alpha
        self.gamma = gamma
        self.device_order = device_order
        if epsilon is None:
            # reach the floor about two thirds of the way through training
            epsilon = ExponentialDecay(1.0, 0.05, rate=5.0 / max(episodes, 1))
        self.epsilon = epsilon
        self.load_buckets = load_buckets
        self.mask_infeasible = mask_infeasible
        self.overload_penalty = check_positive(overload_penalty, "overload_penalty")

    # ------------------------------------------------------------------
    # hooks the topology-aware agent overrides
    # ------------------------------------------------------------------
    def _make_env(self, problem: AssignmentProblem) -> AssignmentEnv:
        if self.device_order == "index":
            order = np.arange(problem.n_devices)
        elif self.device_order == "random":
            # fixed shuffle derived from the solver seed: episodes share
            # one order, so the tabular state stays consistent
            from repro.utils.rng import derive_seed, make_rng

            shuffle_rng = make_rng(derive_seed(self.seed or 0, "device-order"))
            order = shuffle_rng.permutation(problem.n_devices)
        else:
            order = None  # env default: decreasing demand
        return AssignmentEnv(
            problem,
            mask_infeasible=self.mask_infeasible,
            overload_penalty=self.overload_penalty,
            load_buckets=self.load_buckets,
            device_order=order,
        )

    def _explore_action(self, env: AssignmentEnv, actions: np.ndarray, rng) -> int:
        """Exploration move: uniform among allowed actions."""
        return int(actions[rng.integers(actions.size)])

    def _exploit_action(
        self, env: AssignmentEnv, q_row: np.ndarray, actions: np.ndarray, rng
    ) -> int:
        """Greedy move: max-Q allowed action (first index on ties)."""
        return int(actions[int(np.argmax(q_row[actions]))])

    def _post_process(self, problem: AssignmentProblem, vector: np.ndarray) -> np.ndarray:
        """Optional polish of the incumbent (identity here)."""
        return vector

    # ------------------------------------------------------------------
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

        best_cost = math.inf
        best_vector: "np.ndarray | None" = None
        episode_costs: list[float] = []
        dead_ends = 0

        # episode telemetry: local instrument handles keep the training
        # loop at one no-op attribute call per sample when obs is off
        registry = obs_runtime.metrics()
        labels = {"solver": self.name}
        episodes_total = registry.counter(obs_names.RL_EPISODES, labels)
        episode_cost_hist = registry.histogram(obs_names.RL_EPISODE_COST, labels)
        epsilon_gauge = registry.gauge(obs_names.RL_EPSILON, labels)
        mask_blocked = registry.counter(obs_names.RL_MASK_BLOCKED, labels)
        dead_end_total = registry.counter(obs_names.RL_DEAD_ENDS, labels)

        with self.phase("train"):
            for episode in range(self.episodes):
                eps = float(self.epsilon(episode))
                epsilon_gauge.set(eps)
                state = env.reset()
                while not env.done:
                    actions = env.feasible_actions()
                    if actions.size == 0:  # pragma: no cover - env ends episodes itself
                        break
                    mask_blocked.inc(n_actions - actions.size)
                    row = q_row(state)
                    if rng.random() < eps:
                        action = self._explore_action(env, actions, rng)
                    else:
                        action = self._exploit_action(env, row, actions, rng)
                    next_state, reward, done, _ = env.step(action)
                    if done:
                        target = reward
                    else:
                        next_actions = env.feasible_actions()
                        next_row = q_row(next_state)
                        target = reward + self.gamma * float(
                            np.max(next_row[next_actions])
                        )
                    row[action] += self.alpha * (target - row[action])
                    state = next_state
                result = env.rollout_result()
                episodes_total.inc()
                if result.dead_end:
                    dead_ends += 1
                    dead_end_total.inc()
                episode_costs.append(
                    result.total_delay if result.feasible else math.nan
                )
                if result.feasible:
                    episode_cost_hist.observe(result.total_delay)
                    if result.total_delay < best_cost:
                        best_cost = result.total_delay
                        best_vector = result.vector

        registry.gauge(obs_names.RL_Q_STATES, labels).set(len(q_table))
        return self._outcome(problem, rng, best_vector, episode_costs, dead_ends, len(q_table))

    def _outcome(
        self, problem: AssignmentProblem, rng, best_vector, episode_costs, dead_ends, q_states
    ) -> tuple[Assignment, dict]:
        """The polished best episode, or the feasible start when no episode was feasible."""
        info = {"iterations": self.episodes, "episode_costs": episode_costs, "dead_ends": dead_ends}
        if best_vector is None:
            return feasible_start(problem, rng), {**info, "fallback": True}
        with self.phase("polish"):
            best_vector = self._post_process(problem, best_vector)
        return Assignment(problem, best_vector), {**info, "q_states": q_states}
