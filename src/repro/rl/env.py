"""The sequential-assignment MDP.

One *episode* builds one complete assignment: at step ``t`` the agent
places device ``order[t]`` on a server; the episode ends when every
device is placed (success) or the current device fits nowhere
(dead end — only possible with masking on a pathologically tight
instance, and heavily penalized).

Rewards are negative normalized delays, so maximizing return minimizes
total communication delay; with ``gamma = 1`` the return of a complete
episode is an affine function of the paper's objective.

Feasibility masking (:meth:`AssignmentEnv.feasible_actions`) restricts
the action set to servers with residual capacity, which is how the
"none of the edge devices are overloaded" guarantee is enforced *by
construction* rather than by penalty.  The T3 ablation turns masking
off (``mask_infeasible=False``), replacing it with an overload penalty
in the reward.

The tabular state (:meth:`AssignmentEnv.state_key`) abstracts residual
capacities into ``load_buckets`` quantization levels per server; the
bucket count trades table size against aliasing and is also ablated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.utils.validation import check_nonnegative, require


@dataclass
class EpisodeResult:
    """Outcome of one rolled-out episode."""

    vector: np.ndarray
    total_delay: float
    feasible: bool
    steps: int
    dead_end: bool


class AssignmentEnv:
    """Sequential assignment environment over one problem instance."""

    #: reward for hitting a dead end (episode cannot be completed)
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
            # decreasing demand: capacity-critical devices choose while
            # every server still has room (mirrors the exact solver)
            device_order = np.argsort(-np.mean(problem.demand, axis=1))
        order = np.asarray(device_order, dtype=np.int64)
        require(
            sorted(order.tolist()) == list(range(problem.n_devices)),
            "device_order must be a permutation of all devices",
        )
        self.order = order
        self._norm_delay = problem.normalized_delay()
        self.reset()

    # ------------------------------------------------------------------
    @property
    def n_steps(self) -> int:
        """Return n steps."""
        return self.problem.n_devices

    @property
    def n_actions(self) -> int:
        """Return n actions."""
        return self.problem.n_servers

    @property
    def current_device(self) -> int:
        """The device being placed at this step (episode must be live)."""
        require(not self.done, "episode is finished; call reset()")
        return int(self.order[self.t])

    def reset(self) -> tuple:
        """Start a new episode; returns the initial tabular state key."""
        self.t = 0
        self.residual = self.problem.capacity.copy()
        self.vector = np.full(self.problem.n_devices, -1, dtype=np.int64)
        self.done = False
        self.dead_end = False
        self._actions: "np.ndarray | None" = None
        self._buckets = [self._bucket(server) for server in range(self.n_actions)]
        return self.state_key()

    # ------------------------------------------------------------------
    def action_mask(self) -> np.ndarray:
        """Boolean mask of allowed servers for the current device."""
        device = self.current_device
        if not self.mask_infeasible:
            return np.ones(self.n_actions, dtype=bool)
        return self.problem.demand[device] <= self.residual + 1e-12

    def feasible_actions(self) -> np.ndarray:
        """Indices of allowed servers (empty = dead end); read-only, once per step."""
        if self._actions is None:
            self._actions = self.action_mask().nonzero()[0]
            self._actions.setflags(write=False)
        return self._actions

    def state_key(self) -> tuple:
        """Hashable abstract state: (step, quantized residual fractions).

        Residual capacity of each server is quantized to
        ``load_buckets`` levels; the exact value matters less than the
        coarse "how full is each server" picture, and quantization is
        what keeps the Q-table tractable.  :meth:`step` re-quantizes
        only the stepped server.
        """
        return (self.t, tuple(self._buckets))

    def _bucket(self, server: int) -> int:
        """Quantized residual fraction of one server."""
        capacity = self.problem.capacity[server]
        if capacity <= 0:
            return 0  # a failed (zero-capacity) server reads as permanently full
        fraction = min(max(self.residual[server] / capacity, 0.0), 1.0)
        # an untouched server (fraction 1.0) lands in the top bucket, which
        # it shares with every fraction >= 1 - 1/load_buckets
        if fraction >= 1.0 - 1e-12:
            return self.load_buckets - 1
        return min(int(fraction * self.load_buckets), self.load_buckets - 1)

    # ------------------------------------------------------------------
    def step(self, action: int) -> tuple[tuple, float, bool, dict]:
        """Place the current device on server ``action``.

        Returns ``(next_state_key, reward, done, info)``.  Raises
        :class:`~repro.errors.ValidationError` for a masked action when
        masking is on — agents must sample from
        :meth:`feasible_actions`.
        """
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
            # next device fits nowhere: fail the episode
            self.done = True
            self.dead_end = True
            reward += self.DEAD_END_REWARD
            info["dead_end"] = True
        return self.state_key(), reward, self.done, info

    # ------------------------------------------------------------------
    def rollout_result(self) -> EpisodeResult:
        """Package the finished (or dead-ended) episode."""
        require(self.done, "episode is not finished")
        assignment = Assignment(self.problem, np.where(self.vector < 0, 0, self.vector))
        # only meaningful when complete; compute from the raw vector
        placed = self.vector >= 0
        total = float(
            np.sum(
                self.problem.delay[np.flatnonzero(placed), self.vector[placed]]
            )
        )
        feasible = bool(placed.all()) and not self.dead_end and assignment.is_feasible()
        return EpisodeResult(
            vector=self.vector.copy(),
            total_delay=total,
            feasible=feasible,
            steps=self.t,
            dead_end=self.dead_end,
        )
