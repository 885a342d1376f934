"""Task-lifecycle dispatch: timeouts, bounded retries, failover.

:class:`TaskDispatcher` sits between the traffic sources and the
network/server layer: every task is *dispatched* rather than thrown
straight at its assigned server, so the dispatcher can watch for
failures and give the task another chance per its
:class:`~repro.faults.policies.RetryPolicy` and dispatch mode.

Failure sources it handles uniformly:

* the server rejects the task (down at arrival, crashed while the task
  was queued or in service) — reported by
  :class:`~repro.sim.server.EdgeServerQueue` through ``on_failed``;
* the per-task timeout fires while the attempt is still in flight
  (covers tasks stuck behind a degraded link or a straggler server).

**Stale-copy discipline.**  A timed-out attempt may still have its task
object inside a link queue (links cannot be preempted).  Each re-send
therefore uses a *fresh clone* of the task, and the dispatcher tracks
the one live object per task id: the server-side ``admit`` guard drops
any object that is not the current live one, so a stale copy arriving
late can neither be served twice nor clobber the timestamps of the
attempt that succeeded.  Timeout events are cancelled on completion,
so a cancelled timeout can never fire (:class:`~repro.sim.engine.Event`
is the cancellable handle).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.faults.policies import DISPATCH_MODES, RetryPolicy
from repro.model.problem import AssignmentProblem
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.sim.engine import Event, Simulator
from repro.sim.metrics import MetricsRecorder
from repro.sim.network import NetworkFabric
from repro.sim.server import EdgeServerQueue
from repro.sim.task import Task
from repro.topology.delay import TransmissionDelayModel
from repro.topology.routing import Path, routing_paths
from repro.utils.validation import require


class TaskDispatcher:
    """Routes every task attempt and arbitrates its retries."""

    def __init__(
        self,
        sim: Simulator,
        problem: AssignmentProblem,
        queues: "list[EdgeServerQueue]",
        fabric: NetworkFabric,
        recorder: MetricsRecorder,
        policy: RetryPolicy,
        mode: str = "retry",
        rng: "np.random.Generator | None" = None,
        delay_model: "TransmissionDelayModel | None" = None,
        home_paths: "dict[tuple[int, int], Path] | None" = None,
    ) -> None:
        require(
            mode in DISPATCH_MODES,
            f"unknown dispatch mode {mode!r}; known: {DISPATCH_MODES}",
        )
        require(problem.graph is not None and problem.devices is not None,
                "dispatcher requires a topology-backed problem")
        self._sim = sim
        self._problem = problem
        self._queues = queues
        self._fabric = fabric
        self._recorder = recorder
        self.policy = policy
        self.mode = mode
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._delay_model = (
            delay_model if delay_model is not None else TransmissionDelayModel()
        )
        self._device_index = {
            device.device_id: index for index, device in enumerate(problem.devices)
        }
        #: the one live object per task id; anything else is a stale copy
        self._live: dict[int, Task] = {}
        #: server index the live attempt was sent to
        self._target: dict[int, int] = {}
        #: failures seen so far per task id (= retries already spent)
        self._attempts: dict[int, int] = {}
        #: last backoff drawn per task id (decorrelated jitter feeds on it)
        self._prev_backoff: dict[int, float] = {}
        self._timeout_events: dict[int, Event] = {}
        #: route cache by (device id, server index); starts with the home routes
        self._paths: dict[tuple[int, int], Path] = dict(home_paths or {})
        self.tasks_lost = 0
        self.tasks_done = 0
        metrics = obs_runtime.metrics()
        self._obs_timeouts = metrics.counter(obs_names.FAULTS_TASK_TIMEOUTS)
        self._obs_retries = metrics.counter(obs_names.FAULTS_TASK_RETRIES)
        self._obs_failovers = metrics.counter(obs_names.FAULTS_TASK_FAILOVERS)
        self._obs_lost = metrics.counter(obs_names.FAULTS_TASKS_LOST)
        self._ledger = obs_runtime.ledger()
        for queue in queues:
            queue.bind(
                on_complete=self._on_complete,
                on_failed=self._on_failed,
                admit=self._admit,
            )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _path(self, device_id: int, server_index: int) -> Path:
        key = (device_id, server_index)
        path = self._paths.get(key)
        if path is None:
            device = self._problem.devices[self._device_index[device_id]]
            server = self._queues[server_index].server
            routed = routing_paths(
                self._problem.graph,
                [device.node_id],
                server.node_id,
                self._delay_model.link_weight,
            )
            path = routed[device.node_id]
            self._paths[key] = path
        return path

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def dispatch(self, task: Task, server_index: int) -> None:
        """First attempt: send ``task`` toward its assigned server."""
        self._live[task.task_id] = task
        self._attempts[task.task_id] = 0
        self._send(task, server_index)

    def sink_for(self, server_index: int):
        """A per-source sink closure for :class:`IoTTrafficSource`."""
        def sink(task: Task) -> None:
            """Return sink."""
            self.dispatch(task, server_index)

        return sink

    def _send(self, task: Task, server_index: int) -> None:
        self._target[task.task_id] = server_index
        task.server_id = self._queues[server_index].server.server_id
        if self.policy.timeout_s is not None:
            self._timeout_events[task.task_id] = self._sim.schedule(
                self.policy.timeout_s, lambda: self._on_timeout(task)
            )
        path = self._path(task.device_id, server_index)
        self._fabric.forward(task, path, self._queues[server_index].submit)

    def _cancel_timeout(self, task_id: int) -> None:
        event = self._timeout_events.pop(task_id, None)
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    # lifecycle callbacks (wired into every queue via ``bind``)
    # ------------------------------------------------------------------
    def _admit(self, task: Task) -> bool:
        return self._live.get(task.task_id) is task

    def _on_complete(self, task: Task) -> None:
        if self._live.get(task.task_id) is not task:
            return  # stale copy; cannot happen past _admit, but be safe
        self._forget(task.task_id)
        self.tasks_done += 1
        self._recorder.on_completed(task)

    def _on_failed(self, task: Task, reason: str) -> None:
        if self._live.get(task.task_id) is not task:
            return
        self._cancel_timeout(task.task_id)
        self._handle_failure(task, reason)

    def _on_timeout(self, task: Task) -> None:
        if self._live.get(task.task_id) is not task:
            return  # completed/re-sent in the same instant; event raced
        self._timeout_events.pop(task.task_id, None)
        self._obs_timeouts.inc()
        self._ledger.emit(
            "task_timeout",
            task=task.task_id,
            server=task.server_id,
            sim_t=self._sim.now,
        )
        self._recorder.on_timeout(task)
        # the attempt may be queued or in service; pull it back
        self._queues[self._target[task.task_id]].withdraw(task)
        self._handle_failure(task, "timeout")

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def _handle_failure(self, task: Task, reason: str) -> None:
        retries_done = self._attempts[task.task_id]
        if self.mode == "none" or not self.policy.should_retry(retries_done):
            self._lose(task)
            return
        self._attempts[task.task_id] = retries_done + 1
        target = self._target[task.task_id]
        if self.mode == "failover":
            target = self._failover_target(task, avoid=target)
            self._obs_failovers.inc()
            self._ledger.emit(
                "task_failover",
                task=task.task_id,
                reason=reason,
                attempt=retries_done + 1,
                target=self._queues[target].server.server_id,
                sim_t=self._sim.now,
            )
            self._recorder.on_failover(task)
        else:
            self._obs_retries.inc()
            self._ledger.emit(
                "task_retry",
                task=task.task_id,
                reason=reason,
                attempt=retries_done + 1,
                sim_t=self._sim.now,
            )
            self._recorder.on_retry(task)
        backoff = self.policy.backoff_s(
            retries_done, self._rng,
            prev_delay_s=self._prev_backoff.get(task.task_id),
        )
        self._prev_backoff[task.task_id] = backoff
        # a fresh clone per attempt: the old object may survive in a link
        # queue, and identity is what _admit screens on
        clone = dataclasses.replace(task, arrived_at=None, completed_at=None)
        self._live[task.task_id] = clone

        def resend() -> None:
            """Return resend."""
            if self._live.get(task.task_id) is not clone:
                return  # lost/completed during backoff
            self._send(clone, target)

        self._sim.schedule(backoff, resend)

    def _failover_target(self, task: Task, avoid: int) -> int:
        """Cheapest *healthy* server by static delay; prefers alternates."""
        device_index = self._device_index[task.device_id]
        delays = self._problem.delay[device_index]
        candidates = [
            index for index, queue in enumerate(self._queues)
            if queue.is_up and index != avoid
        ]
        if not candidates:  # everyone else is down: retry in place
            return avoid
        return min(candidates, key=lambda index: float(delays[index]))

    def _lose(self, task: Task) -> None:
        self._forget(task.task_id)
        self.tasks_lost += 1
        self._obs_lost.inc()
        self._ledger.emit("task_lost", task=task.task_id, sim_t=self._sim.now)
        self._recorder.on_lost(task)

    def _forget(self, task_id: int) -> None:
        self._live.pop(task_id, None)
        self._target.pop(task_id, None)
        self._attempts.pop(task_id, None)
        self._prev_backoff.pop(task_id, None)
        self._cancel_timeout(task_id)

    # ------------------------------------------------------------------
    @property
    def tasks_in_flight(self) -> int:
        """Tasks dispatched but neither completed nor lost."""
        return len(self._live)
