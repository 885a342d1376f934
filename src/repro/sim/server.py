"""Edge-server processing queues.

A server is a single FIFO service station: tasks arrive from the
network, wait for the processor, and hold it for
``compute_units / service_rate`` seconds (optionally exponentially
distributed around that mean, giving M/M/1-like behaviour per server).
Server queueing is what turns an *overloaded* assignment into visibly
unbounded latency in the F5 experiment — the dynamic counterpart of
the paper's static capacity constraint.

For the fault-injection experiments the queue also models the server's
*lifecycle*: it can crash (:meth:`EdgeServerQueue.fail`) — cancelling
the in-service event and losing or parking queued work per the crash
policy — recover (:meth:`EdgeServerQueue.recover`), run as a straggler
(:meth:`EdgeServerQueue.set_speed_factor`), and withdraw individual
tasks (:meth:`EdgeServerQueue.withdraw`, the timeout path).  All of
this is inert in the fault-free simulation: a queue that is never
failed behaves exactly as before.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.model.entities import EdgeServer
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.sim.engine import Event, Simulator
from repro.sim.task import Task
from repro.utils.validation import check_positive, require

#: what happens to queued (not yet in service) tasks when the server crashes
CRASH_POLICIES = ("drop", "requeue")


class EdgeServerQueue:
    """FIFO single-processor queue for one edge server."""

    def __init__(
        self,
        sim: Simulator,
        server: EdgeServer,
        rng: np.random.Generator,
        service: str = "exponential",
        on_complete: "Callable[[Task], None] | None" = None,
        on_failed: "Callable[[Task, str], None] | None" = None,
        admit: "Callable[[Task], bool] | None" = None,
        crash_policy: str = "drop",
    ) -> None:
        require(service in ("exponential", "deterministic"), f"unknown service {service!r}")
        require(
            crash_policy in CRASH_POLICIES,
            f"unknown crash_policy {crash_policy!r}; known: {CRASH_POLICIES}",
        )
        self._sim = sim
        self.server = server
        self._rng = rng
        self._service = service
        self._on_complete = on_complete
        self._on_failed = on_failed
        self._admit = admit
        self._crash_policy = crash_policy
        self._queue: deque[Task] = deque()
        self._busy = False
        self._up = True
        self._speed_factor = 1.0
        self._in_service: "Task | None" = None
        self._service_event: "Event | None" = None
        self._service_ends_at = 0.0
        self.tasks_completed = 0
        self.tasks_rejected = 0
        self.busy_time = 0.0
        # bound once at construction; a no-op when observability is off
        self._wait_hist = obs_runtime.metrics().histogram(
            obs_names.SIM_QUEUE_WAIT, {"server": str(server.server_id)}
        )

    def bind(
        self,
        on_complete: "Callable[[Task], None] | None" = None,
        on_failed: "Callable[[Task, str], None] | None" = None,
        admit: "Callable[[Task], bool] | None" = None,
    ) -> None:
        """Rewire lifecycle callbacks after construction.

        The fault runner builds queues before the dispatcher that
        handles their failures exists; this closes the loop.
        """
        if on_complete is not None:
            self._on_complete = on_complete
        if on_failed is not None:
            self._on_failed = on_failed
        if admit is not None:
            self._admit = admit

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def is_up(self) -> bool:
        """Whether the server is currently accepting and serving tasks."""
        return self._up

    @property
    def speed_factor(self) -> float:
        """Service-rate multiplier (1.0 = nominal, <1 = straggler)."""
        return self._speed_factor

    def set_speed_factor(self, factor: float) -> None:
        """Scale the service rate; the in-service task is unaffected."""
        check_positive(factor, "speed_factor")
        self._speed_factor = factor

    def fail(self) -> None:
        """Crash: abort in-service work, lose or park queued tasks.

        The in-service task is always lost (its service event is
        cancelled).  Queued tasks are lost under the ``drop`` crash
        policy or kept for post-repair service under ``requeue``.
        Every lost task is reported through ``on_failed``.
        """
        if not self._up:
            return
        self._up = False
        victims: list[tuple[Task, str]] = []
        if self._in_service is not None:
            victims.append((self._in_service, "crashed_in_service"))
            self._abort_service()
        if self._crash_policy == "drop":
            while self._queue:
                victims.append((self._queue.popleft(), "crashed_queued"))
        self._busy = False
        for task, reason in victims:
            self._reject(task, reason)

    def recover(self) -> None:
        """Repair: resume serving whatever survived the crash."""
        if self._up:
            return
        self._up = True
        if not self._busy:
            self._serve_next()

    def withdraw(self, task: Task) -> bool:
        """Remove ``task`` from the station (the timeout/cancel path).

        Returns True when the task was queued (removed) or in service
        (its service event is cancelled and the processor moves on).
        """
        try:
            self._queue.remove(task)
            return True
        except ValueError:
            pass
        if task is self._in_service:
            self._abort_service()
            self._busy = False
            self._serve_next()
            return True
        return False

    def _abort_service(self) -> None:
        if self._service_event is not None:
            self._service_event.cancel()
            # the processor never ran the remainder; refund it
            self.busy_time -= max(0.0, self._service_ends_at - self._sim.now)
        self._service_event = None
        self._in_service = None

    def _reject(self, task: Task, reason: str) -> None:
        self.tasks_rejected += 1
        if self._on_failed is not None:
            self._on_failed(task, reason)

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Task arrived over the network; queue it for processing."""
        if self._admit is not None and not self._admit(task):
            return  # stale duplicate of a retried task: silently dropped
        task.arrived_at = self._sim.now
        if not self._up:
            self._reject(task, "server_down")
            return
        self._queue.append(task)
        if not self._busy:
            self._serve_next()

    def _service_time(self, task: Task) -> float:
        mean = task.compute_units / (self.server.service_rate * self._speed_factor)
        if self._service == "deterministic":
            return mean
        return float(self._rng.exponential(mean))

    def _serve_next(self) -> None:
        if not self._up or not self._queue:
            self._busy = False
            return
        self._busy = True
        task = self._queue.popleft()
        self._wait_hist.observe(self._sim.now - task.arrived_at)
        service_time = self._service_time(task)
        self.busy_time += service_time
        self._in_service = task
        self._service_ends_at = self._sim.now + service_time

        def finish() -> None:
            """Service done: stamp completion and pull the next task."""
            self._in_service = None
            self._service_event = None
            task.completed_at = self._sim.now
            self.tasks_completed += 1
            if self._on_complete is not None:
                self._on_complete(task)
            self._serve_next()

        self._service_event = self._sim.schedule(service_time, finish)

    @property
    def queue_length(self) -> int:
        """Return queue length."""
        return len(self._queue)

    def utilization(self, duration: float) -> float:
        """Fraction of ``duration`` the processor was busy."""
        return self.busy_time / duration if duration > 0 else 0.0
