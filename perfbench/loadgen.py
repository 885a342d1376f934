"""In-process load driver: a pre-generated trace, open or closed loop.

One sender coroutine submits the trace strictly in order, so the
service sees the trace order and the batched==serial pin holds.

* **open loop** — request ``i`` is due at ``start + due_s[i]``; the
  sender sleeps until then and never waits for answers, so a stall
  shows up as lateness of every later request.  Latency is timed from
  the *due* time, not from the (possibly late) send.
* **closed loop** — at most ``window`` requests are outstanding; the
  next one goes out as soon as one answers.  Latency is timed from the
  send.

In both modes a device's next op is held until its previous op is
answered (per-device causality, as ``repro.serve.loadtest`` keeps it):
without the hold a release can overtake its own assign through the
shard router.  The hold blocks the sender, so order is kept.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

#: a late open-loop sender yields to the loop once per this many sends
_YIELD_EVERY = 64


@dataclass
class Outcome:
    """One answered request."""

    index: int
    op: str
    device: int
    due: float  # perf-clock instant the latency is timed from
    sent: float
    done: float
    status: str
    queue_ms: "float | None"  # the service's own enqueue→apply latency

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        """How late the generator sent, past the due time."""
        return (self.sent - self.due) * 1e3


@dataclass
class DriveResult:
    """What one phase sent and got back, in completion order."""

    outcomes: "list[Outcome]" = field(default_factory=list)
    sent: int = 0
    holds: int = 0  # sends delayed by the causality hold
    started: float = 0.0
    finished: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.finished - self.started


async def drive(
    client,
    trace,
    due_s: "list[float] | None" = None,
    window: "int | None" = None,
    stop_after_s: "float | None" = None,
    offset: int = 0,
    before_send=None,
) -> DriveResult:
    """Send ``trace`` through ``client`` (``send(request) -> future``).

    Give ``due_s`` (offsets from the start, one per request) for an
    open loop or ``window`` for a closed loop.  ``stop_after_s`` stops
    sending once that much time has passed; every request sent is
    still awaited, so the result holds exactly ``sent`` outcomes.
    Outcome indices start at ``offset`` (the slice's place in the
    whole trace).  ``before_send()`` runs just before each send (the
    traced run starts a new request id there).
    """
    if (due_s is None) == (window is None):
        raise ValueError("give exactly one of due_s (open) or window (closed)")
    result = DriveResult(started=time.perf_counter())
    last_op: "dict[int, asyncio.Future]" = {}
    outstanding: "set[asyncio.Future]" = set()
    for index, request in enumerate(trace):
        now = time.perf_counter()
        if stop_after_s is not None and now - result.started >= stop_after_s:
            break
        if due_s is not None:
            due = result.started + due_s[index]
            if due > now:
                await asyncio.sleep(due - now)
            elif index % _YIELD_EVERY == 0:
                # a late sender sends its backlog back to back, as a
                # remote client would, yielding now and then so answers
                # keep flowing
                await asyncio.sleep(0)
        else:
            while len(outstanding) >= window:
                await asyncio.wait(outstanding,
                                   return_when=asyncio.FIRST_COMPLETED)
            due = None
        device = int(request.device)
        previous = last_op.get(device)
        if previous is not None and not previous.done():
            result.holds += 1
            await asyncio.wait([previous])
        if before_send is not None:
            before_send()
        sent = time.perf_counter()
        future = client.send(request)
        future.add_done_callback(_recorder(
            result, outstanding, offset + index, request,
            sent if due is None else due, sent
        ))
        outstanding.add(future)
        last_op[device] = future
        result.sent += 1
    if outstanding:
        await asyncio.wait(outstanding)
    await asyncio.sleep(0)  # let the last done-callbacks run
    result.finished = time.perf_counter()
    return result


def _recorder(result: DriveResult, outstanding: set, index: int, request,
              due: float, sent: float):
    def settle(future: "asyncio.Future") -> None:
        outstanding.discard(future)
        response = future.result()
        result.outcomes.append(Outcome(
            index=index, op=request.op, device=int(request.device),
            due=due, sent=sent, done=time.perf_counter(),
            status=response.status, queue_ms=response.latency_ms,
        ))
    return settle


async def settle(resident: set, limit_s: float) -> bool:
    """Wait until no task outside ``resident`` is pending.

    Returns False if some still are after ``limit_s``.  The loop must
    look empty twice, one pass apart, so that a task spawned by the
    last one's done-callback is seen too.
    """
    deadline = time.perf_counter() + limit_s
    quiet = 0
    while quiet < 2:
        pending = asyncio.all_tasks() - resident
        if not pending:
            quiet += 1
            await asyncio.sleep(0)
            continue
        quiet = 0
        left = deadline - time.perf_counter()
        if left <= 0:
            return False
        await asyncio.wait(pending, timeout=left)
    return True


async def loop_lag_probe(stop: asyncio.Event, lags_ms: "list[float]",
                         period_s: float = 0.001) -> None:
    """Record how far each ``period_s`` sleep overshoots, until ``stop``."""
    while not stop.is_set():
        before = time.perf_counter()
        await asyncio.sleep(period_s)
        lags_ms.append(max(0.0, (time.perf_counter() - before - period_s) * 1e3))


def poisson_offsets(rng, rate_hz: float, n: int) -> "list[float]":
    """``n`` Poisson arrival offsets (seconds from the start) at ``rate_hz``."""
    return rng.exponential(1.0 / rate_hz, size=n).cumsum().tolist()
