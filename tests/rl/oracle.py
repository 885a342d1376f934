"""The numpy Q-learning family, kept as the reference for the scalar-state loop.

:class:`OracleEnv` is the array-state sequential-assignment MDP (numpy
residuals, a boolean mask per step, ``rng.choice`` in TACC's Boltzmann
explore) and the ``Oracle*`` solvers run the original numpy training
loops of ``qlearning``, ``tacc``, ``sarsa`` and ``double_q`` over it.
The production solvers must reproduce these byte for byte: the same
final vector, episode costs, dead ends, Q-table size, and generator
state after the solve.  Only tests and the CI parity job import this
module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError
from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.rl.agent import TaccSolver
from repro.rl.double_q import DoubleQLearningSolver
from repro.rl.env import EpisodeResult
from repro.rl.qlearning import QLearningSolver
from repro.rl.sarsa import SarsaSolver
from repro.solvers.greedy import feasible_start
from repro.utils.rng import derive_seed, make_rng
from repro.utils.validation import check_nonnegative, require


class OracleEnv:
    """Sequential assignment environment with numpy episode state."""

    DEAD_END_REWARD = -10.0

    def __init__(
        self,
        problem: AssignmentProblem,
        mask_infeasible: bool = True,
        overload_penalty: float = 10.0,
        load_buckets: int = 4,
        device_order: "np.ndarray | None" = None,
    ) -> None:
        self.problem = problem
        self.mask_infeasible = mask_infeasible
        self.overload_penalty = check_nonnegative(overload_penalty, "overload_penalty")
        require(load_buckets >= 1, "load_buckets must be >= 1")
        self.load_buckets = load_buckets
        if device_order is None:
            device_order = np.argsort(-np.mean(problem.demand, axis=1))
        order = np.asarray(device_order, dtype=np.int64)
        require(
            sorted(order.tolist()) == list(range(problem.n_devices)),
            "device_order must be a permutation of all devices",
        )
        self.order = order
        self._norm_delay = problem.normalized_delay()
        self.reset()

    @property
    def n_steps(self) -> int:
        return self.problem.n_devices

    @property
    def n_actions(self) -> int:
        return self.problem.n_servers

    @property
    def current_device(self) -> int:
        require(not self.done, "episode is finished; call reset()")
        return int(self.order[self.t])

    def reset(self) -> tuple:
        self.t = 0
        self.residual = self.problem.capacity.copy()
        self.vector = np.full(self.problem.n_devices, -1, dtype=np.int64)
        self.done = False
        self.dead_end = False
        self._actions: "np.ndarray | None" = None
        self._buckets = [self._bucket(server) for server in range(self.n_actions)]
        return self.state_key()

    def action_mask(self) -> np.ndarray:
        device = self.current_device
        if not self.mask_infeasible:
            return np.ones(self.n_actions, dtype=bool)
        return self.problem.demand[device] <= self.residual + 1e-12

    def feasible_actions(self) -> np.ndarray:
        if self._actions is None:
            self._actions = self.action_mask().nonzero()[0]
            self._actions.setflags(write=False)
        return self._actions

    def state_key(self) -> tuple:
        return (self.t, tuple(self._buckets))

    def _bucket(self, server: int) -> int:
        capacity = self.problem.capacity[server]
        if capacity <= 0:
            return 0
        fraction = min(max(self.residual[server] / capacity, 0.0), 1.0)
        if fraction >= 1.0 - 1e-12:
            return self.load_buckets - 1
        return min(int(fraction * self.load_buckets), self.load_buckets - 1)

    def step(self, action: int) -> tuple[tuple, float, bool, dict]:
        require(not self.done, "episode is finished; call reset()")
        require(0 <= action < self.n_actions, f"action {action} out of range")
        device = self.current_device
        demand = self.problem.demand[device, action]
        overflow = max(0.0, demand - float(self.residual[action]))
        if self.mask_infeasible and overflow > 1e-12:
            raise ValidationError(
                f"action {action} is masked for device {device} "
                f"(demand {demand:.2f} > residual {self.residual[action]:.2f})"
            )
        reward = -float(self._norm_delay[device, action])
        if overflow > 1e-12:
            reward -= self.overload_penalty * overflow / float(np.mean(self.problem.demand))
        self.vector[device] = action
        self.residual[action] -= demand
        self._buckets[action] = self._bucket(action)
        self._actions = None
        self.t += 1
        info: dict = {}
        if self.t >= self.n_steps:
            self.done = True
        elif self.mask_infeasible and self.feasible_actions().size == 0:
            self.done = True
            self.dead_end = True
            reward += self.DEAD_END_REWARD
            info["dead_end"] = True
        return self.state_key(), reward, self.done, info

    def rollout_result(self) -> EpisodeResult:
        require(self.done, "episode is not finished")
        assignment = Assignment(self.problem, np.where(self.vector < 0, 0, self.vector))
        placed = self.vector >= 0
        total = float(
            np.sum(self.problem.delay[np.flatnonzero(placed), self.vector[placed]])
        )
        feasible = bool(placed.all()) and not self.dead_end and assignment.is_feasible()
        return EpisodeResult(
            vector=self.vector.copy(),
            total_delay=total,
            feasible=feasible,
            steps=self.t,
            dead_end=self.dead_end,
        )


def _oracle_env(solver: QLearningSolver, problem: AssignmentProblem) -> OracleEnv:
    if solver.device_order == "index":
        order = np.arange(problem.n_devices)
    elif solver.device_order == "random":
        shuffle_rng = make_rng(derive_seed(solver.seed or 0, "device-order"))
        order = shuffle_rng.permutation(problem.n_devices)
    else:
        order = None
    return OracleEnv(
        problem,
        mask_infeasible=solver.mask_infeasible,
        overload_penalty=solver.overload_penalty,
        load_buckets=solver.load_buckets,
        device_order=order,
    )


def _outcome(solver, problem, rng, best_vector, episode_costs, dead_ends, q_states):
    info = {"iterations": solver.episodes, "episode_costs": episode_costs, "dead_ends": dead_ends}
    if best_vector is None:
        return feasible_start(problem, rng), {**info, "fallback": True}
    best_vector = solver._post_process(problem, best_vector)
    return Assignment(problem, best_vector), {**info, "q_states": q_states}


def _uniform_explore(env, actions, rng) -> int:
    return int(actions[rng.integers(actions.size)])


def _argmax_exploit(env, q_row, actions, rng) -> int:
    return int(actions[int(np.argmax(q_row[actions]))])


class _OracleQFamily:
    """Numpy training loop of Q-learning, shared by the plain and TACC oracles."""

    def _make_env(self, problem):
        return _oracle_env(self, problem)

    def _solve(self, problem, rng):
        env = self._make_env(problem)
        n_actions = env.n_actions
        q_table: dict[tuple, np.ndarray] = {}

        def q_row(state):
            row = q_table.get(state)
            if row is None:
                row = np.zeros(n_actions)
                q_table[state] = row
            return row

        best_cost = math.inf
        best_vector = None
        episode_costs: list[float] = []
        dead_ends = 0
        for episode in range(self.episodes):
            eps = float(self.epsilon(episode))
            state = env.reset()
            while not env.done:
                actions = env.feasible_actions()
                if actions.size == 0:
                    break
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
                    target = reward + self.gamma * float(np.max(next_row[next_actions]))
                row[action] += self.alpha * (target - row[action])
                state = next_state
            result = env.rollout_result()
            if result.dead_end:
                dead_ends += 1
            episode_costs.append(result.total_delay if result.feasible else math.nan)
            if result.feasible and result.total_delay < best_cost:
                best_cost = result.total_delay
                best_vector = result.vector
        return _outcome(self, problem, rng, best_vector, episode_costs, dead_ends, len(q_table))


class OracleQLearning(_OracleQFamily, QLearningSolver):
    """Plain Q-learning with uniform explore and first-index argmax exploit."""

    def _explore_action(self, env, actions, rng) -> int:
        return _uniform_explore(env, actions, rng)

    def _exploit_action(self, env, q_row, actions, rng) -> int:
        return _argmax_exploit(env, q_row, actions, rng)


class OracleTacc(_OracleQFamily, TaccSolver):
    """TACC: ``rng.choice`` Boltzmann explore, delay tie-broken exploit."""

    def _make_env(self, problem):
        env = _oracle_env(self, problem)
        norm = problem.normalized_delay()
        logits = -norm / self.exploration_temperature
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        self._oracle_preference = weights / weights.sum(axis=1, keepdims=True)
        return env

    def _explore_action(self, env, actions, rng) -> int:
        weights = self._oracle_preference[env.current_device, actions]
        total = float(weights.sum())
        if total <= 0:
            return int(actions[rng.integers(actions.size)])
        return int(rng.choice(actions, p=weights / total))

    def _exploit_action(self, env, q_row, actions, rng) -> int:
        values = q_row[actions]
        best = values.max()
        tied = actions[values >= best - 1e-12]
        if tied.size == 1:
            return int(tied[0])
        delays = env.problem.delay[env.current_device, tied]
        return int(tied[int(np.argmin(delays))])


class OracleSarsa(SarsaSolver):
    """On-policy TD(0) over the numpy env."""

    def _solve(self, problem, rng):
        env = _oracle_env(self, problem)
        n_actions = env.n_actions
        q_table: dict[tuple, np.ndarray] = {}

        def q_row(state):
            row = q_table.get(state)
            if row is None:
                row = np.zeros(n_actions)
                q_table[state] = row
            return row

        def choose(state, actions, eps):
            if rng.random() < eps:
                return _uniform_explore(env, actions, rng)
            return _argmax_exploit(env, q_row(state), actions, rng)

        best_cost = math.inf
        best_vector = None
        episode_costs: list[float] = []
        dead_ends = 0
        for episode in range(self.episodes):
            eps = float(self.epsilon(episode))
            state = env.reset()
            actions = env.feasible_actions()
            if actions.size == 0:
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
        return _outcome(self, problem, rng, best_vector, episode_costs, dead_ends, len(q_table))


class OracleDoubleQ(DoubleQLearningSolver):
    """Two-table Double Q-learning over the numpy env."""

    def _solve(self, problem, rng):
        env = _oracle_env(self, problem)
        n_actions = env.n_actions
        table_a: dict[tuple, np.ndarray] = {}
        table_b: dict[tuple, np.ndarray] = {}

        def row(table, state):
            entry = table.get(state)
            if entry is None:
                entry = np.zeros(n_actions)
                table[state] = entry
            return entry

        best_cost = math.inf
        best_vector = None
        episode_costs: list[float] = []
        dead_ends = 0
        for episode in range(self.episodes):
            eps = float(self.epsilon(episode))
            state = env.reset()
            while not env.done:
                actions = env.feasible_actions()
                if actions.size == 0:
                    break
                combined = row(table_a, state) + row(table_b, state)
                if rng.random() < eps:
                    action = _uniform_explore(env, actions, rng)
                else:
                    action = _argmax_exploit(env, combined, actions, rng)
                next_state, reward, done, _ = env.step(action)
                update_a = rng.random() < 0.5
                learn = table_a if update_a else table_b
                evaluate = table_b if update_a else table_a
                if done:
                    target = reward
                else:
                    next_actions = env.feasible_actions()
                    learn_next = row(learn, next_state)
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
        return _outcome(self, problem, rng, best_vector, episode_costs, dead_ends, q_states)


#: production solver class -> its numpy oracle
ORACLES = {
    QLearningSolver: OracleQLearning,
    TaccSolver: OracleTacc,
    SarsaSolver: OracleSarsa,
    DoubleQLearningSolver: OracleDoubleQ,
}
