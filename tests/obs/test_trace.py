"""The span model: in-process scopes, cross-process contexts, sampling,
sinks, stitching, and the runtime switch."""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time

import pytest

import repro
from repro.errors import SerializationError, ValidationError
from repro.obs import runtime as obs_runtime
from repro.obs.trace import (
    NULL_SPAN_RECORDER,
    SPAN_FILE_PREFIX,
    MemorySink,
    NullSpanRecorder,
    SpanRecord,
    SpanRecorder,
    SpanSink,
    TraceContext,
    TraceSampler,
    build_trace,
    context_from_wire,
    critical_path,
    load_span_file,
    load_trace_dir,
    new_trace_id,
    render_critical_path,
    render_waterfall,
    trace_ids,
)


def make_recorder(tmp_path, process="test", **sampler_kwargs):
    sink = SpanSink(tmp_path / f"{SPAN_FILE_PREFIX}{process}.jsonl", process)
    return SpanRecorder(sink, process, TraceSampler(**sampler_kwargs))


def memory_recorder(process="local"):
    return SpanRecorder(MemorySink(), process)


def stitched(records):
    """Root trees of every trace in ``records``, in start order."""
    return [
        root
        for trace_id in trace_ids(records)
        for root in build_trace(records, trace_id)[0]
    ]


def parent_names(records):
    """``{span name: parent span name}`` (``None`` for roots)."""
    by_id = {record.span_id: record for record in records}
    return {
        record.name: (
            by_id[record.parent_id].name if record.parent_id else None
        )
        for record in records
    }


class TestInProcessSpans:
    def test_single_span_becomes_root(self):
        recorder = memory_recorder()
        with recorder.span("a"):
            pass
        (record,) = recorder.sink
        assert record.name == "a"
        assert record.parent_id == ""
        assert record.trace_id == record.span_id
        assert record.duration_ms >= 0.0
        assert record.status == "ok"

    def test_nesting_builds_a_tree(self):
        recorder = memory_recorder()
        with recorder.span("root"):
            with recorder.span("child1"):
                with recorder.span("grandchild"):
                    pass
            with recorder.span("child2"):
                pass
        (root,) = stitched(recorder.sink)
        assert root.record.name == "root"
        assert [c.record.name for c in root.children] == ["child1", "child2"]
        assert [c.record.name for c in root.children[0].children] == [
            "grandchild"
        ]

    def test_sequential_roots_accumulate(self):
        recorder = memory_recorder()
        with recorder.span("first"):
            pass
        with recorder.span("second"):
            pass
        roots = stitched(recorder.sink)
        assert [root.record.name for root in roots] == ["first", "second"]
        assert roots[0].record.trace_id != roots[1].record.trace_id

    def test_exception_closes_span_and_propagates(self):
        recorder = memory_recorder()
        with pytest.raises(ValueError):
            with recorder.span("outer"):
                with recorder.span("inner"):
                    raise ValueError("boom")
        assert recorder.current() is NULL_SPAN_RECORDER.current()
        (root,) = stitched(recorder.sink)
        (child,) = root.children
        assert root.record.status == "error:ValueError"
        assert child.record.status == "error:ValueError"
        assert root.record.duration_ms >= child.record.duration_ms >= 0.0

    def test_annotate_attaches_attributes(self):
        recorder = memory_recorder()
        with recorder.span("a", x=1) as scope:
            scope.annotate(y=2)
        assert recorder.sink[0].attributes == {"x": 1, "y": 2}

    def test_adopt_round_trips_worker_spans(self):
        worker = memory_recorder("worker")
        with worker.span("root", k="v"):
            with worker.span("child"):
                pass
        parent = memory_recorder("parent")
        with parent.span("own"):
            pass
        parent.adopt([record.to_dict() for record in worker.sink])
        roots = stitched(parent.sink)  # start order: the worker ran first
        assert [root.record.name for root in roots] == ["root", "own"]
        assert roots[0].record.attributes == {"k": "v"}
        assert [c.record.name for c in roots[0].children] == ["child"]

    def test_disabled_and_inert(self):
        assert not NULL_SPAN_RECORDER.enabled
        with NULL_SPAN_RECORDER.span("anything") as scope:
            scope.annotate(ignored=True)
            assert NULL_SPAN_RECORDER.current() is scope
        NULL_SPAN_RECORDER.adopt([{"trace_id": "t", "span_id": "s"}])
        assert scope.span_id == ""


class TestSpanParenting:
    def test_gathered_tasks_do_not_mis_nest(self):
        recorder = memory_recorder()

        async def reopt():
            with recorder.span("serve/reopt"):
                await asyncio.sleep(0.05)

        async def rebalance():
            await asyncio.sleep(0.01)
            with recorder.span("shard/rebalance"):
                await asyncio.sleep(0.1)

        async def both():
            await asyncio.gather(reopt(), rebalance())

        asyncio.run(both())
        by_name = {record.name: record for record in recorder.sink}
        assert by_name["serve/reopt"].parent_id == ""
        assert by_name["shard/rebalance"].parent_id == ""
        assert by_name["serve/reopt"].duration_ms >= 50.0
        assert by_name["shard/rebalance"].duration_ms >= 100.0

    def test_to_thread_solve_nests_under_reopt(self, small_problem):
        async def reopt():
            with obs_runtime.tracer().span("serve/reopt"):
                await asyncio.to_thread(
                    repro.get_solver("greedy").solve, small_problem
                )

        with obs_runtime.observed() as session:
            asyncio.run(reopt())
        assert parent_names(session.spans())["solve/greedy"] == "serve/reopt"

    def test_recorders_see_only_their_own_spans(self, tmp_path):
        hops = make_recorder(tmp_path)
        scopes = memory_recorder()
        context = hops.new_context("t1")
        with hops.start_span("serve/request", context) as hop:
            with scopes.span("solve/greedy") as solve:
                hops.event("dequeued")
                assert hops.current() is hop
                assert scopes.current() is solve
        hops.close()
        (scope,) = scopes.sink
        assert scope.parent_id == "" and scope.events == []
        (record,) = load_span_file(hops.sink.path)
        assert [event["name"] for event in record.events] == ["dequeued"]

    def test_threads_keep_separate_stacks_and_unique_ids(self):
        recorder = memory_recorder()
        spans_per_thread = 300
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(index):
                for _ in range(spans_per_thread):
                    with recorder.span(f"outer-{index}"):
                        with recorder.span(f"inner-{index}"):
                            pass

            threads = [
                threading.Thread(target=work, args=(index,)) for index in range(4)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30.0
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        records = list(recorder.sink)
        assert len(records) == 4 * 2 * spans_per_thread
        assert len({record.span_id for record in records}) == len(records)
        by_id = {record.span_id: record for record in records}
        for record in records:
            if record.name.startswith("inner-"):
                parent = by_id[record.parent_id]
                assert parent.name == "outer-" + record.name.split("-")[1]
            else:
                assert record.parent_id == ""


class TestRuntimeSwitch:
    def test_disabled_by_default(self):
        assert not obs_runtime.is_enabled()
        assert not obs_runtime.metrics().enabled
        assert obs_runtime.tracer() is NULL_SPAN_RECORDER

    def test_observed_scope_enables_then_restores(self):
        assert not obs_runtime.is_enabled()
        with obs_runtime.observed() as session:
            assert obs_runtime.is_enabled()
            assert obs_runtime.tracer() is session.tracer
            obs_runtime.metrics().counter("x").inc()
            with obs_runtime.tracer().span("a"):
                pass
            assert session.snapshot()["counters"]["x"] == 1
            assert [record.name for record in session.spans()] == ["a"]
        assert not obs_runtime.is_enabled()
        assert obs_runtime.tracer() is NULL_SPAN_RECORDER

    def test_observed_scopes_nest(self):
        with obs_runtime.observed() as outer:
            obs_runtime.metrics().counter("outer").inc()
            with obs_runtime.observed() as inner:
                obs_runtime.metrics().counter("inner").inc()
                assert "outer" not in inner.snapshot()["counters"]
            assert "inner" not in outer.snapshot()["counters"]
            assert obs_runtime.metrics() is outer.registry
            assert obs_runtime.tracer() is outer.tracer

    def test_enable_is_idempotent_and_disable_resets(self):
        try:
            first = obs_runtime.enable()
            second = obs_runtime.enable()
            assert first is second
            assert obs_runtime.is_enabled()
            assert obs_runtime.tracer() is first.tracer
        finally:
            obs_runtime.disable()
        assert not obs_runtime.is_enabled()
        assert obs_runtime.tracer() is NULL_SPAN_RECORDER

    def test_observed_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs_runtime.observed():
                raise RuntimeError("boom")
        assert not obs_runtime.is_enabled()

    def test_session_spans_count_no_exported_metric(self):
        with obs_runtime.observed() as session:
            with obs_runtime.tracer().span("a"):
                pass
            assert not session.snapshot().get("counters")


class TestTraceContext:
    def test_round_trip(self):
        context = TraceContext(trace_id="t1", span_id="p:3", sampled=False)
        assert TraceContext.from_dict(context.to_dict()) == context

    def test_wire_form_omits_defaults(self):
        assert TraceContext(trace_id="t1").to_dict() == {"trace_id": "t1"}
        assert TraceContext(trace_id="t1", sampled=False).to_dict() == {
            "trace_id": "t1", "sampled": False,
        }

    def test_from_dict_rejects_junk(self):
        with pytest.raises(SerializationError):
            TraceContext.from_dict({"span_id": "p:1"})

    def test_context_from_wire_is_lenient(self):
        assert context_from_wire(None) is None
        assert context_from_wire({}) is None
        assert context_from_wire({"span_id": "p:1"}) is None
        parsed = context_from_wire({"trace_id": "t1", "span_id": "p:2"})
        assert parsed == TraceContext(trace_id="t1", span_id="p:2")


class TestSampling:
    def test_trace_ids_are_deterministic(self):
        assert new_trace_id(7, 3) == new_trace_id(7, 3)
        assert new_trace_id(7, 3) != new_trace_id(7, 4)
        assert new_trace_id(8, 3) != new_trace_id(7, 3)
        assert len(new_trace_id(0, 0)) == 16

    def test_sampler_is_a_pure_function_of_the_id(self):
        a = TraceSampler(rate=0.5, seed=3)
        b = TraceSampler(rate=0.5, seed=3)
        ids = [new_trace_id(0, n) for n in range(200)]
        assert [a.sampled(t) for t in ids] == [b.sampled(t) for t in ids]

    def test_rate_extremes(self):
        always = TraceSampler(rate=1.0)
        never = TraceSampler(rate=0.0)
        for n in range(20):
            trace_id = new_trace_id(0, n)
            assert always.sampled(trace_id)
            assert not never.sampled(trace_id)

    def test_partial_rate_hits_roughly_the_target(self):
        sampler = TraceSampler(rate=0.3, seed=1)
        hits = sum(sampler.sampled(new_trace_id(0, n)) for n in range(1000))
        assert 200 < hits < 400

    def test_rate_is_validated(self):
        with pytest.raises(ValidationError):
            TraceSampler(rate=1.5)


class TestSpanSink:
    def test_emit_and_load_round_trip(self, tmp_path):
        path = tmp_path / "spans-a.jsonl"
        sink = SpanSink(path, "a")
        record = SpanRecord(
            trace_id="t1", span_id="a:1", parent_id="c:9",
            name="serve/request", process="a", start_ms=100.0,
            duration_ms=2.5, events=[{"name": "dequeued", "t_ms": 1.0}],
            attributes={"op": "assign"},
        )
        sink.emit(record)
        sink.close()
        (loaded,) = load_span_file(path)
        assert loaded == record

    def test_header_line_is_stamped_once_and_skipped(self, tmp_path):
        path = tmp_path / "spans-a.jsonl"
        for _ in range(2):
            sink = SpanSink(path, "a")
            sink.emit(SpanRecord(
                trace_id="t1", span_id="a:1", parent_id="",
                name="x", process="a", start_ms=0.0,
            ))
            sink.close()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["format"] == "repro-trace"
        assert len(lines) == 3  # one header + two spans
        assert len(load_span_file(path)) == 2

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "spans-a.jsonl"
        sink = SpanSink(path, "a")
        sink.emit(SpanRecord(
            trace_id="t1", span_id="a:1", parent_id="",
            name="x", process="a", start_ms=0.0,
        ))
        sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"trace_id": "t1", "span')  # SIGKILL mid-append
        assert len(load_span_file(path)) == 1

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = tmp_path / "spans-a.jsonl"
        path.write_text('not json\n{"trace_id": "t"}\n')
        with pytest.raises(SerializationError, match="line 1"):
            load_span_file(path)

    def test_load_trace_dir_merges_per_process_files(self, tmp_path):
        for process in ("a", "b"):
            sink = SpanSink(
                tmp_path / f"{SPAN_FILE_PREFIX}{process}.jsonl", process
            )
            sink.emit(SpanRecord(
                trace_id="t1", span_id=f"{process}:1", parent_id="",
                name="x", process=process, start_ms=0.0,
            ))
            sink.close()
        records = load_trace_dir(tmp_path)
        assert {r.process for r in records} == {"a", "b"}

    def test_load_trace_dir_rejects_non_directories(self, tmp_path):
        with pytest.raises(ValidationError):
            load_trace_dir(tmp_path / "missing")


class TestSpanRecorder:
    def test_with_bound_span_exports_on_exit(self, tmp_path):
        recorder = make_recorder(tmp_path)
        context = recorder.new_context("t1")
        with recorder.start_span("serve/request", context, op="assign") as span:
            span.event("dequeued", batch=3)
            span.annotate(device=7)
        recorder.close()
        (record,) = load_span_file(recorder.sink.path)
        assert record.name == "serve/request"
        assert record.span_id == "test:1"
        assert record.parent_id == ""
        assert record.status == "ok"
        assert record.attributes == {"op": "assign", "device": 7}
        assert record.events[0]["name"] == "dequeued"
        assert record.events[0]["batch"] == 3
        assert recorder.spans_exported == 1

    def test_child_span_links_to_parent(self, tmp_path):
        recorder = make_recorder(tmp_path)
        context = recorder.new_context("t1")
        with recorder.start_span("router/route", context) as parent:
            with recorder.start_span("router/forward", parent.context) as child:
                assert child.span_id == "test:2"
        recorder.close()
        records = load_span_file(recorder.sink.path)
        by_name = {r.name: r for r in records}
        assert by_name["router/forward"].parent_id == by_name["router/route"].span_id

    def test_exception_sets_error_status(self, tmp_path):
        recorder = make_recorder(tmp_path)
        context = recorder.new_context("t1")
        with pytest.raises(RuntimeError):
            with recorder.start_span("serve/request", context):
                raise RuntimeError("boom")
        recorder.close()
        (record,) = load_span_file(recorder.sink.path)
        assert record.status == "error:RuntimeError"

    def test_unsampled_context_gets_the_null_span(self, tmp_path):
        recorder = make_recorder(tmp_path, rate=0.0)
        context = recorder.new_context("t1")
        assert not context.sampled
        with recorder.start_span("serve/request", context) as span:
            span.event("never recorded")
        assert recorder.spans_exported == 0
        assert recorder.traces_started == 0

    def test_current_span_follows_nesting(self, tmp_path):
        recorder = make_recorder(tmp_path)
        context = recorder.new_context("t1")
        assert recorder.current().span_id == ""
        with recorder.start_span("outer", context) as outer:
            assert recorder.current() is outer
            with recorder.start_span("inner", outer.context) as inner:
                assert recorder.current() is inner
                recorder.event("hit", rule="drop")
            assert recorder.current() is outer
        assert recorder.current().span_id == ""
        recorder.close()
        by_name = {r.name: r for r in load_span_file(recorder.sink.path)}
        assert by_name["inner"].events[0]["rule"] == "drop"

    def test_manual_span_finish_is_idempotent(self, tmp_path):
        recorder = make_recorder(tmp_path)
        context = recorder.new_context("t1")
        span = recorder.start_manual("client/request", context, op="assign")
        span.annotate(status="ok")
        span.finish()
        span.finish("error")  # second call must not re-export or restamp
        recorder.close()
        (record,) = load_span_file(recorder.sink.path)
        assert record.status == "ok"
        assert recorder.spans_exported == 1

    def test_null_recorder_is_inert(self):
        recorder = NullSpanRecorder()
        assert not recorder.enabled
        assert recorder.new_context("t1") is None
        with recorder.start_span("x", None) as span:
            span.event("nothing")
        recorder.start_manual("x", None).finish()
        recorder.close()

    def test_runtime_traced_scopes_the_global(self, tmp_path):
        assert not obs_runtime.is_tracing()
        with obs_runtime.traced(tmp_path, "client") as recorder:
            assert obs_runtime.is_tracing()
            assert obs_runtime.spans() is recorder
            context = recorder.new_context("t1")
            with recorder.start_span("client/request", context):
                pass
        assert not obs_runtime.is_tracing()
        (record,) = load_trace_dir(tmp_path)
        assert record.process == "client"


def span(trace_id, span_id, parent_id, name, start_ms, duration_ms,
         process="p", status="ok"):
    return SpanRecord(
        trace_id=trace_id, span_id=span_id, parent_id=parent_id,
        name=name, process=process, start_ms=start_ms,
        duration_ms=duration_ms, status=status,
    )


class TestStitching:
    def chain(self):
        return [
            span("t1", "c:1", "", "client/request", 0.0, 100.0, "client"),
            span("t1", "r:1", "c:1", "router/route", 10.0, 80.0, "router"),
            span("t1", "s:1", "r:1", "serve/request", 20.0, 40.0, "shard-0"),
        ]

    def test_build_trace_stitches_across_processes(self):
        roots, orphans = build_trace(self.chain(), "t1")
        assert orphans == []
        (root,) = roots
        assert root.record.name == "client/request"
        (child,) = root.children
        assert child.record.name == "router/route"
        (grandchild,) = child.children
        assert grandchild.record.name == "serve/request"

    def test_unresolved_parent_becomes_root_and_orphan(self):
        records = self.chain()[::2]  # drop the router span file
        roots, orphans = build_trace(records, "t1")
        assert [r.record.name for r in roots] == [
            "client/request", "serve/request",
        ]
        assert [o.name for o in orphans] == ["serve/request"]

    def test_build_trace_filters_by_trace_id(self):
        records = self.chain() + [
            span("t2", "c:9", "", "client/request", 5.0, 1.0)
        ]
        roots, _ = build_trace(records, "t2")
        assert len(roots) == 1 and roots[0].record.span_id == "c:9"

    def test_trace_ids_ordered_by_first_span_start(self):
        records = [
            span("late", "a:1", "", "x", 50.0, 1.0),
            span("early", "a:2", "", "x", 1.0, 1.0),
            span("late", "a:3", "", "x", 0.5, 1.0),  # re-dates "late"
        ]
        assert trace_ids(records) == ["late", "early"]

    def test_render_waterfall_shows_every_span(self):
        roots, _ = build_trace(self.chain(), "t1")
        text = render_waterfall(roots)
        assert "3 spans" in text
        for name in ("client/request", "router/route", "serve/request"):
            assert name in text
        assert render_waterfall([]) == "(no spans)"

    def test_critical_path_telescopes_to_the_root_duration(self):
        roots, _ = build_trace(self.chain(), "t1")
        segments, attributed = critical_path(roots[0])
        assert [s.name for s in segments] == [
            "client/request", "router/route", "serve/request",
        ]
        assert [s.self_ms for s in segments] == [20.0, 40.0, 40.0]
        assert attributed == pytest.approx(100.0)
        text = render_critical_path(roots[0])
        assert text.endswith(
            "attributed 100.0% of end-to-end latency to 3 named spans"
        )

    def test_critical_path_follows_the_latest_finishing_child(self):
        records = [
            span("t1", "r:1", "", "router/route", 0.0, 100.0),
            span("t1", "h:1", "r:1", "hedge-a", 10.0, 20.0),
            span("t1", "h:2", "r:1", "hedge-b", 15.0, 80.0),
        ]
        roots, _ = build_trace(records, "t1")
        segments, _ = critical_path(roots[0])
        assert [s.name for s in segments] == ["router/route", "hedge-b"]

    def test_skewed_child_is_clipped_to_the_parent_interval(self):
        records = [
            span("t1", "r:1", "", "router/route", 0.0, 50.0),
            # clock skew: the child claims to end after its parent
            span("t1", "s:1", "r:1", "serve/request", 40.0, 60.0),
        ]
        roots, _ = build_trace(records, "t1")
        segments, attributed = critical_path(roots[0])
        # child contributes only its overlap (10ms), never more than elapsed
        assert segments[0].self_ms == pytest.approx(40.0)
        assert attributed <= 50.0 + 60.0
