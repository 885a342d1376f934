"""The discrete-event simulation core.

Minimal by design: a clock, a future-event heap, and a run loop.  All
domain behaviour (links, servers, sources) lives in components that
schedule callbacks on the shared :class:`Simulator`.

The heap holds ``(time, seq, event)`` tuples.  The sequence number is
unique and increasing, so ordering is total and deterministic: two
events scheduled for the same instant fire in scheduling order, which
is what keeps whole simulations reproducible from a seed.  Comparison
never reaches the :class:`Event` itself.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

from repro.errors import SimulationError, ValidationError
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.utils.validation import check_nonnegative, require


class Event:
    """Cancellable handle of a scheduled callback."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as dead; the engine skips it when popped."""
        self.cancelled = True


class Simulator:
    """Event loop with a virtual clock (seconds)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events fired by completed (or aborted) :meth:`run` calls."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Fire ``callback`` after ``delay`` seconds of virtual time."""
        if not 0.0 <= delay < math.inf:  # negative, NaN or infinite
            check_nonnegative(delay, "delay")
        return self._push(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Fire ``callback`` at absolute virtual ``time`` (finite, not in the past)."""
        if not self._now <= time < math.inf:
            require(math.isfinite(time), f"time must be finite, got {time!r}")
            raise ValidationError(f"cannot schedule at {time} before now={self._now}")
        return self._push(time, callback)

    def _push(self, time: float, callback: Callable[[], None]) -> Event:
        event = Event(time, callback)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def run(self, until: "float | None" = None, max_events: int = 50_000_000) -> None:
        """Process events in order until the heap drains or ``until``.

        Events scheduled exactly at ``until`` still fire.  The event
        budget guards against runaway feedback loops (a component that
        schedules itself at zero delay).
        """
        if until is not None:
            check_nonnegative(until, "until")
        registry = obs_runtime.metrics()
        events_total = registry.counter(obs_names.SIM_EVENTS)
        depth_hist = registry.histogram(obs_names.SIM_EVENT_QUEUE_DEPTH)
        observe_depth = depth_hist.observe if registry.enabled else None
        heap = self._heap
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        processed = 0
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
                if time > horizon:
                    break
                pop(heap)
                if time < self._now:  # pragma: no cover - defensive
                    raise SimulationError(
                        f"time went backwards: event at {time} < now {self._now}"
                    )
                self._now = time
                event.callback()
                processed += 1
                if observe_depth is not None:
                    # heap size including cancelled events, as telemetry
                    observe_depth(len(heap))
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a zero-delay loop"
                    )
        finally:
            self._events_processed += processed
            events_total.inc(processed)
        if until is not None and self._now < until:
            self._now = until
