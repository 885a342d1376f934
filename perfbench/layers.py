"""Layer spans recorded from outside the program.

The traced run wraps public functions and methods of the ``repro``
packages (never editing them) so every call becomes a span: name,
start, end, parent span and the id of the plan or request it belongs
to.  Spans stay in memory and are written out once, when the run ends.

A wrapped *function* is replaced everywhere it is bound: in its home
module and in every ``repro`` module that imported it by name, so
``from repro.topology.routing import dijkstra`` callers are covered.
A wrapped *method* is replaced on its class.  A target that no longer
exists (a later refactor removed it) is skipped and reports zero.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

_parent: "contextvars.ContextVar[int | None]" = contextvars.ContextVar(
    "perfbench_parent", default=None
)
_group: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_group", default=0
)


@dataclass(slots=True)
class Span:
    """One wrapped call."""

    name: str
    start: float
    end: float = 0.0
    parent: "int | None" = None
    group: int = 0
    #: an async call: its wall time includes waiting on other tasks, so
    #: it is reported as busy time but left out of self-time shares
    waits: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    spans: "list[Span]" = field(default_factory=list)
    counts: "dict[str, int]" = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _undo: list = field(default_factory=list)
    _ids: "itertools.count" = field(default_factory=itertools.count)

    # -- recording ------------------------------------------------------
    def open(self, name: str, waits: bool = False
             ) -> "tuple[int, contextvars.Token]":
        """Start a span under the current parent; returns (index, token)."""
        span = Span(name, time.perf_counter(), parent=_parent.get(),
                    group=_group.get(), waits=waits)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        return index, _parent.set(index)

    def close(self, index: int, token: "contextvars.Token") -> None:
        self.spans[index].end = time.perf_counter()
        _parent.reset(token)

    @contextlib.contextmanager
    def span(self, name: str):
        """``with recorder.span(name):`` — a span around benchmark code."""
        index, token = self.open(name)
        try:
            yield
        finally:
            self.close(index, token)

    def new_group(self) -> int:
        """Start a fresh plan/request id for spans opened from here on."""
        group = next(self._ids) + 1
        _group.set(group)
        return group

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def start_window(self) -> None:
        """Drop counts taken so far: the timed window starts now."""
        with self._lock:
            self.counts.clear()

    # -- patching -------------------------------------------------------
    def wrap_function(self, module: str, attr: str, name: str) -> None:
        """Span every call of ``module.attr``, wherever it is bound."""
        home = sys.modules.get(module)
        original = getattr(home, attr, None) if home is not None else None
        if original is None:
            return
        wrapper = self._wrapper(original, name)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def wrap_method(self, cls, attr: str, name, on_result=None) -> None:
        """Wrap ``cls.attr`` (plain, class or async method).

        ``name`` is the span name, a callable ``(args) -> name``, or
        ``None`` for no span; ``on_result(args, result)`` sees every
        call's arguments and return value (counts taken where the work
        happens).
        """
        original = cls.__dict__.get(attr)
        if original is None:
            return
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrapper(original.__func__, name, on_result))
        else:
            wrapped = self._wrapper(original, name, on_result)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, original))

    def count_calls(self, module: str, attr: str, name: str) -> None:
        """Count (without timing) every call of ``module.attr``."""
        home = sys.modules.get(module)
        original = getattr(home, attr, None) if home is not None else None
        if original is None:
            return

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.count(name)
            return original(*args, **kwargs)

        setattr(home, attr, counted)
        self._undo.append((home, attr, original))

    def unpatch(self) -> None:
        """Restore every wrapped target (last patch first)."""
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _wrapper(self, original, name, on_result=None):
        def span_name(args) -> "str | None":
            return name(args) if callable(name) else name

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def traced_async(*args, **kwargs):
                label = span_name(args)
                if label is None:
                    result = await original(*args, **kwargs)
                else:
                    index, token = self.open(label, waits=True)
                    try:
                        result = await original(*args, **kwargs)
                    finally:
                        self.close(index, token)
                if on_result is not None:
                    on_result(args, result)
                return result
            return traced_async

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = span_name(args)
            if label is None:
                result = original(*args, **kwargs)
            else:
                index, token = self.open(label)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(index, token)
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    # -- reading --------------------------------------------------------
    # every reader takes the timed window ``(since, until)``: spans
    # opened outside it (set-up, post-run checks) are not counted
    def _within(self, span: Span, window) -> bool:
        return window[0] <= span.start <= window[1]

    def busy(self, name: str, window) -> float:
        """Summed wall time of the named spans opened in ``window``."""
        return sum(s.duration for s in self.spans
                   if s.name == name and self._within(s, window))

    def calls(self, name: str, window) -> int:
        return sum(1 for s in self.spans
                   if s.name == name and self._within(s, window))

    def self_times(self) -> "list[float]":
        """Per span: its duration minus the part its children cover."""
        children: "dict[int, list[int]]" = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                children.setdefault(span.parent, []).append(index)
        out = []
        for index, span in enumerate(self.spans):
            covered = _union_length(
                (max(self.spans[c].start, span.start),
                 min(self.spans[c].end, span.end))
                for c in children.get(index, ())
            )
            out.append(max(0.0, span.duration - covered))
        return out

    def layer_self_time(self, window) -> "dict[str, float]":
        """Self time summed per layer (the span name's first component)."""
        totals: "dict[str, float]" = {}
        for span, own in zip(self.spans, self.self_times()):
            if span.waits or not self._within(span, window):
                continue
            layer = span.name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def write_jsonl(self, path: Path) -> None:
        """Dump every span, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "group": span.group, "waits": span.waits,
                }) + "\n")


class NullRecorder:
    """The untraced run's recorder: every scope is free, nothing is kept."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def new_group(self) -> int:
        return 0

    def start_window(self) -> None:
        pass


def _union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        start = max(start, cursor)
        if end > start:
            total += end - start
        cursor = end
    return total


def instrument(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.cluster.online as online
    import repro.model.problem as problem
    import repro.rl.env as env
    import repro.serve.batcher as batcher
    import repro.serve.service as service
    import repro.serve.state as state
    import repro.shard.backend as backend
    import repro.sim.engine as engine
    import repro.solvers.base as base
    import repro.solvers.lp  # noqa: F401  (bound before patching)
    import repro.topology.generators  # noqa: F401
    import repro.topology.placement  # noqa: F401
    import repro.topology.routing  # noqa: F401

    count = recorder.count

    def on_solve(args, result) -> None:
        count(f"solvers.{result.solver}.iterations", int(result.iterations))

    def on_sim(args, result) -> None:
        count("sim.events", int(args[0].events_processed))

    def on_batch(args, result) -> None:
        if result is not None:
            count("serve.batches")
            count("serve.batch_items", len(result[0]))

    recorder.wrap_function("repro.topology.generators", "make_topology",
                           "topology.generate")
    recorder.wrap_function("repro.topology.placement", "place_edge_servers",
                           "topology.place")
    recorder.wrap_function("repro.topology.routing", "dijkstra",
                           "topology.dijkstra")
    recorder.wrap_method(problem.AssignmentProblem, "from_topology",
                         "model.delay_matrix")
    recorder.wrap_method(base.Solver, "solve",
                         lambda args: f"solvers.{args[0].name}.solve",
                         on_result=on_solve)
    recorder.wrap_function("repro.solvers.lp", "lp_lower_bound",
                           "solvers.lp_bound")
    recorder.wrap_method(env.AssignmentEnv, "step", "rl.env_step")
    recorder.wrap_method(env.AssignmentEnv, "state_key", "rl.state_key")
    recorder.wrap_method(env.AssignmentEnv, "action_mask", "rl.action_mask")
    recorder.wrap_method(engine.Simulator, "run", "sim.run", on_result=on_sim)
    recorder.wrap_method(online.OnlineAssigner, "assign", "cluster.online_assign")
    recorder.wrap_method(online.OnlineAssigner, "release", "cluster.online_assign")
    recorder.wrap_method(state.ServiceState, "assign", "serve.state")
    recorder.wrap_method(state.ServiceState, "release", "serve.state")
    recorder.wrap_method(service.AssignmentService, "submit_nowait",
                         "serve.submit")
    recorder.wrap_method(batcher.MicroBatcher, "next_batch", None,
                         on_result=on_batch)
    recorder.wrap_method(backend.InProcessBackend, "request", "shard.forward")
    recorder.count_calls("repro.obs.runtime", "metrics", "obs.lookups")
    recorder.count_calls("repro.obs.runtime", "spans", "obs.lookups")
