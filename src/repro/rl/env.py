"""The sequential-assignment MDP.

One *episode* builds one complete assignment: at step ``t`` the agent
places device ``order[t]`` on a server; the episode ends when every
device is placed (success) or the current device fits nowhere
(dead end — only possible with masking on a pathologically tight
instance, and heavily penalized).  If even the first device fits
nowhere, :meth:`AssignmentEnv.reset` returns an episode that is already
dead-ended.

Rewards are negative normalized delays, so maximizing return minimizes
total communication delay; with ``gamma = 1`` the return of a complete
episode is an affine function of the paper's objective.

Feasibility masking (:attr:`AssignmentEnv.allowed`) restricts
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
from itertools import compress
from operator import le

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
    """Sequential assignment environment over one problem instance.

    The episode state is plain Python: residual capacities and the
    quantized state key are lists of floats and ints, and
    :attr:`allowed` is the tuple of servers the current device may take
    (every server when masking is off, empty at a dead end or once the
    episode is done).  Per-step demand and normalized-delay rows are
    precomputed in device order, so :meth:`step` does scalar work only.
    The numpy views :attr:`residual`, :meth:`action_mask` and
    :meth:`feasible_actions` are derived on demand and cached until the
    next step; they are read-only.
    """

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
        # row t belongs to the device placed at step t
        self._devices: list[int] = order.tolist()
        self._demand_rows: list[list[float]] = problem.demand[order].tolist()
        self._norm_rows: list[list[float]] = problem.normalized_delay()[order].tolist()
        self._capacity: list[float] = problem.capacity.tolist()
        self._servers = tuple(range(problem.n_servers))
        # scale of the mask-off overload penalty
        self._mean_demand = float(np.mean(problem.demand))
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
        return self._devices[self.t]

    def reset(self) -> tuple:
        """Start a new episode; returns the initial tabular state key.

        When the first device fits on no server the episode is over
        before it starts: it comes back done and dead-ended, with no
        allowed action.
        """
        self.t = 0
        self._residual = list(self._capacity)
        # residual + 1e-12, the mask's admission limit, kept per server
        self._limits = [capacity + 1e-12 for capacity in self._capacity]
        self.vector = np.full(self.problem.n_devices, -1, dtype=np.int64)
        self._buckets = [self._bucket(server) for server in self._servers]
        self._allow(0)
        self.done = self.dead_end = not self.allowed
        return self.state_key()

    def _allow(self, t: int) -> None:
        """Set :attr:`allowed` for the device of step ``t``; drop cached views."""
        if self.mask_infeasible:
            self.allowed = tuple(
                compress(self._servers, map(le, self._demand_rows[t], self._limits))
            )
        else:
            self.allowed = self._servers
        self._views: dict = {}

    # ------------------------------------------------------------------
    @property
    def residual(self) -> np.ndarray:
        """Residual capacity per server (read-only array)."""
        view = self._views.get("residual")
        if view is None:
            view = self._views["residual"] = _frozen(np.array(self._residual))
        return view

    def action_mask(self) -> np.ndarray:
        """Boolean mask of allowed servers for the current device (read-only)."""
        require(not self.done, "episode is finished; call reset()")
        mask = self._views.get("mask")
        if mask is None:
            mask = np.zeros(self.n_actions, dtype=bool)
            mask[list(self.allowed)] = True
            mask = self._views["mask"] = _frozen(mask)
        return mask

    def feasible_actions(self) -> np.ndarray:
        """Indices of allowed servers (empty = dead end); read-only, once per step."""
        require(not self.done, "episode is finished; call reset()")
        actions = self._views.get("actions")
        if actions is None:
            actions = self._views["actions"] = _frozen(np.array(self.allowed, dtype=np.int64))
        return actions

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
        capacity = self._capacity[server]
        if capacity <= 0:
            return 0  # a failed (zero-capacity) server reads as permanently full
        fraction = min(max(self._residual[server] / capacity, 0.0), 1.0)
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
        masking is on — agents must sample from :attr:`allowed`.
        """
        if self.done:
            raise ValidationError("episode is finished; call reset()")
        if not 0 <= action < len(self._servers):
            raise ValidationError(f"action {action} out of range")
        t = self.t
        demand = self._demand_rows[t][action]
        residual = self._residual
        overflow = demand - residual[action]
        reward = -self._norm_rows[t][action]
        if overflow > 1e-12:
            if self.mask_infeasible:
                raise ValidationError(
                    f"action {action} is masked for device {self._devices[t]} "
                    f"(demand {demand:.2f} > residual {residual[action]:.2f})"
                )
            reward -= self.overload_penalty * overflow / self._mean_demand
        self.vector[self._devices[t]] = action
        residual[action] -= demand
        self._limits[action] = residual[action] + 1e-12
        self._buckets[action] = self._bucket(action)
        self.t = t = t + 1
        info: dict = {}
        if t >= len(self._devices):
            self.done = True
            self.allowed = ()
            self._views = {}
        else:
            self._allow(t)
            if not self.allowed:
                # next device fits nowhere: fail the episode
                self.done = True
                self.dead_end = True
                reward += self.DEAD_END_REWARD
                info["dead_end"] = True
        return (t, tuple(self._buckets)), reward, self.done, info

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


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only and return it."""
    array.setflags(write=False)
    return array
