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

    def _explore_action(self, env: AssignmentEnv, actions: tuple, rng) -> int:
        """Exploration move: uniform among allowed actions."""
        return actions[rng.integers(len(actions))]

    def _exploit_action(self, env: AssignmentEnv, q_row: list, actions: tuple, rng) -> int:
        """Greedy move: max-Q allowed action (first index on ties)."""
        return max(actions, key=q_row.__getitem__)

    def _post_process(self, problem: AssignmentProblem, vector: np.ndarray) -> np.ndarray:
        """Optional polish of the incumbent (identity here)."""
        return vector

    # ------------------------------------------------------------------
    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        env = self._make_env(problem)
        q_table = QTable(env.n_actions)
        log = TrainingLog(self, env.n_actions)
        alpha, gamma = self.alpha, self.gamma
        random, step, q_row = rng.random, env.step, q_table.row
        explore, exploit = self._explore_action, self._exploit_action

        with self.phase("train"):
            for episode in range(self.episodes):
                eps = log.start(episode)
                row = q_row(env.reset())
                actions = env.allowed
                while actions:  # empty only when reset dead-ended the episode
                    log.blocked(len(actions))
                    if random() < eps:
                        action = explore(env, actions, rng)
                    else:
                        action = exploit(env, row, actions, rng)
                    next_state, reward, done, _ = step(action)
                    if done:
                        row[action] += alpha * (reward - row[action])
                        break
                    actions = env.allowed
                    next_row = q_row(next_state)
                    target = reward + gamma * max(map(next_row.__getitem__, actions))
                    row[action] += alpha * (target - row[action])
                    row = next_row
                if log.finish(env):
                    break
        return self._outcome(problem, rng, log, len(q_table))

    def _outcome(
        self, problem: AssignmentProblem, rng, log: "TrainingLog", q_states: int
    ) -> tuple[Assignment, dict]:
        """The polished best episode, or the feasible start when no episode was feasible."""
        log.q_states(q_states)
        info = {
            "iterations": self.episodes,
            "episode_costs": log.episode_costs,
            "dead_ends": log.dead_ends,
        }
        if log.best_vector is None:
            return feasible_start(problem, rng), {**info, "fallback": True}
        with self.phase("polish"):
            best_vector = self._post_process(problem, log.best_vector)
        return Assignment(problem, best_vector), {**info, "q_states": q_states}


class QTable(dict):
    """Tabular action values: state key -> list of per-server Q-values."""

    def __init__(self, n_actions: int) -> None:
        super().__init__()
        self._zeros = [0.0] * n_actions

    def row(self, state: tuple) -> list:
        """The Q-row of ``state``, created as zeros on first visit."""
        row = self.get(state)
        if row is None:
            row = self[state] = self._zeros.copy()
        return row


class TrainingLog:
    """Episode bookkeeping shared by the Q-learning family's training loops.

    Holds the best-episode memory, the per-episode cost curve (NaN for
    infeasible episodes), the dead-end count, and the RL telemetry
    handles.  The handles are fetched once per solve, so a training
    step costs one no-op attribute call per sample when obs is off.
    """

    def __init__(self, solver: QLearningSolver, n_actions: int) -> None:
        registry = obs_runtime.metrics()
        labels = {"solver": solver.name}
        self._schedule = solver.epsilon
        self._n_actions = n_actions
        self._episodes = registry.counter(obs_names.RL_EPISODES, labels)
        self._episode_cost = registry.histogram(obs_names.RL_EPISODE_COST, labels)
        self._epsilon = registry.gauge(obs_names.RL_EPSILON, labels)
        self._mask_blocked = registry.counter(obs_names.RL_MASK_BLOCKED, labels)
        self._dead_end_total = registry.counter(obs_names.RL_DEAD_ENDS, labels)
        self._q_states = registry.gauge(obs_names.RL_Q_STATES, labels)
        self.best_cost = math.inf
        self.best_vector: "np.ndarray | None" = None
        self.episode_costs: list[float] = []
        self.dead_ends = 0

    def start(self, episode: int) -> float:
        """Exploration probability of ``episode`` (also streamed to the gauge)."""
        eps = float(self._schedule(episode))
        self._epsilon.set(eps)
        return eps

    def blocked(self, n_allowed: int) -> None:
        """Count the servers the mask removed from one step's action set."""
        self._mask_blocked.inc(self._n_actions - n_allowed)

    def finish(self, env: AssignmentEnv) -> bool:
        """Record the finished episode; keep it when it is the best feasible one.

        Returns True when training should stop: the episode dead-ended
        at its first device, so every later episode would too.
        """
        result = env.rollout_result()
        self._episodes.inc()
        if result.dead_end:
            self.dead_ends += 1
            self._dead_end_total.inc()
        self.episode_costs.append(result.total_delay if result.feasible else math.nan)
        if result.feasible:
            self._episode_cost.observe(result.total_delay)
            if result.total_delay < self.best_cost:
                self.best_cost = result.total_delay
                self.best_vector = result.vector
        return result.steps == 0

    def q_states(self, count: int) -> None:
        """Stream the final Q-table size."""
        self._q_states.set(count)
