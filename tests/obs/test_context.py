"""Tests for cross-process span context, worker buffering and merging."""

import pickle
import time

from repro.obs import (
    BufferingTracer,
    NullTracer,
    SpanContext,
    Tracer,
    WorkerTrace,
    get_tracer,
    merge_worker_trace,
    set_thread_tracer,
    use_tracer,
    worker_track,
)
from repro.parallel.executor import run_workload
from repro.parallel.usage import ResourceUsage


def simple_work():
    tracer = get_tracer()
    with tracer.span("inner", category="workload"):
        tracer.event("tick", category="workload")
        tracer.count("work_done")
        tracer.gauge("last_k", 31)
        tracer.observe("chunk_bytes", 128.0)
    return "ok", ResourceUsage()


class TestSpanContext:
    def test_capture_disabled_tracer_returns_none(self):
        assert SpanContext.capture(NullTracer()) is None

    def test_capture_records_handshake(self):
        before_wall, before_perf = time.time(), time.perf_counter()
        ctx = SpanContext.capture(
            Tracer(), parent_span_id=7, process="P", thread="u1"
        )
        assert ctx.parent_span_id == 7
        assert ctx.process == "P" and ctx.thread == "u1"
        assert ctx.parent_wall >= before_wall
        assert ctx.parent_perf >= before_perf

    def test_picklable(self):
        ctx = SpanContext.capture(Tracer(), parent_span_id=3)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx


class TestBufferingTracer:
    def test_top_level_spans_carry_resource_endpoint_attrs(self):
        buf = BufferingTracer()
        with buf.span("work", category="workload"):
            pass
        buf.close()
        (span,) = buf.spans
        assert span.attrs["rss_bytes"] > 0
        assert span.attrs["cpu_seconds"] >= 0
        assert "rss_delta_bytes" in span.attrs

    def test_nested_spans_skip_endpoint_sampling(self):
        buf = BufferingTracer()
        with buf.span("work", category="workload"):
            with buf.span("inner"):
                pass
        buf.close()
        inner = next(s for s in buf.spans if s.name == "inner")
        outer = next(s for s in buf.spans if s.name == "work")
        assert "rss_bytes" not in inner.attrs
        assert "rss_bytes" in outer.attrs

    def test_endpoint_samples_always_present(self):
        buf = BufferingTracer(cadence=0.0)
        buf.close()
        samples = [e for e in buf.events if e.category == "resource"]
        assert len(samples) == 2  # open + close, even with no cadence
        assert all(e.attrs["rss_bytes"] > 0 for e in samples)

    def test_cadence_thread_samples_and_stops(self):
        buf = BufferingTracer(cadence=0.005)
        time.sleep(0.05)
        buf.close()
        samples = [e for e in buf.events if e.category == "resource"]
        assert len(samples) > 2
        n = len(buf.events)
        time.sleep(0.02)
        assert len(buf.events) == n  # sampler really stopped

    def test_worker_trace_roundtrips_through_pickle(self):
        buf = BufferingTracer()
        with buf.span("work"):
            buf.count("c")
        buf.close()
        trace = pickle.loads(pickle.dumps(buf.to_worker_trace()))
        assert isinstance(trace, WorkerTrace)
        assert [s.name for s in trace.spans] == ["work"]
        assert trace.metrics.counters["c"].value == 1.0
        assert trace.pid == buf.pid


class TestThreadLocalOverride:
    def test_override_scopes_to_installer(self):
        buf = BufferingTracer()
        previous = set_thread_tracer(buf)
        try:
            assert get_tracer() is buf
        finally:
            set_thread_tracer(previous)
        assert get_tracer() is not buf

    def test_set_returns_previous(self):
        a, b = BufferingTracer(), BufferingTracer()
        assert set_thread_tracer(a) is None
        assert set_thread_tracer(b) is a
        assert set_thread_tracer(None) is b


class TestRunWorkloadWithContext:
    def test_buffers_and_ships_worker_trace(self):
        parent = Tracer()
        ctx = SpanContext.capture(parent, parent_span_id=1, thread="u1")
        outcome = run_workload(simple_work, ctx)
        trace = outcome.worker_trace
        assert outcome.result == "ok"
        assert trace is not None
        names = [s.name for s in trace.spans]
        assert "workload" in names and "inner" in names
        assert trace.metrics.counters["work_done"].value == 1.0
        # nothing leaked into the parent: everything was buffered
        assert parent.spans == [] and parent.events == []
        assert get_tracer().enabled is False  # override removed

    def test_no_context_means_no_buffering(self):
        assert run_workload(simple_work).worker_trace is None


class TestMerge:
    def run_and_merge(self, parent=None, **capture_kwargs):
        parent = parent or Tracer()
        with parent.span("dispatch", category="agent", process="P_B",
                         thread="u1") as dispatch:
            ctx = SpanContext.capture(
                parent,
                parent_span_id=dispatch.span_id,
                process="P_B",
                thread="u1",
                **capture_kwargs,
            )
        trace = run_workload(simple_work, ctx).worker_trace
        merged = merge_worker_trace(parent, trace, ctx)
        return parent, trace, merged

    def test_records_land_on_per_pid_track(self):
        parent, trace, merged = self.run_and_merge()
        track = worker_track(trace.pid)
        worker_spans = [s for s in parent.spans if s.process == track]
        worker_events = [e for e in parent.events if e.process == track]
        assert {s.name for s in worker_spans} == {"workload", "inner"}
        assert any(e.name == "tick" for e in worker_events)
        assert merged == len(worker_spans) + len(worker_events)

    def test_reparenting_under_dispatch_span(self):
        parent, trace, _ = self.run_and_merge()
        dispatch = next(s for s in parent.spans if s.name == "dispatch")
        root = next(s for s in parent.spans if s.name == "workload")
        inner = next(s for s in parent.spans if s.name == "inner")
        assert root.parent_id == dispatch.span_id
        assert inner.parent_id == root.span_id

    def test_span_ids_reissued_without_collision(self):
        parent, _, _ = self.run_and_merge()
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))

    def test_real_timestamps_aligned_into_parent_domain(self):
        parent = Tracer()
        r_before = time.perf_counter()
        parent_, _, _ = self.run_and_merge(parent)
        r_after = time.perf_counter()
        for s in parent.spans:
            assert r_before - 0.05 <= s.r_start <= s.r_end <= r_after + 0.05

    def test_worker_thread_track_takes_unit_id(self):
        parent, trace, _ = self.run_and_merge()
        worker_spans = [
            s for s in parent.spans if s.process == worker_track(trace.pid)
        ]
        assert {s.thread for s in worker_spans} == {"u1"}

    def test_metric_deltas_folded(self):
        parent = Tracer()
        parent.count("work_done", 2)  # pre-existing parent count
        parent, _, _ = self.run_and_merge(parent)
        assert parent.metrics.counters["work_done"].value == 3.0
        assert parent.metrics.gauges["last_k"].value == 31
        assert parent.metrics.histograms["chunk_bytes"].values == [128.0]

    def test_merge_is_noop_for_missing_pieces(self):
        parent = Tracer()
        ctx = SpanContext.capture(parent)
        assert merge_worker_trace(parent, None, ctx) == 0
        buf = BufferingTracer()
        buf.close()
        assert merge_worker_trace(parent, buf.to_worker_trace(), None) == 0
        assert merge_worker_trace(NullTracer(), buf.to_worker_trace(), ctx) == 0

    def test_virtual_times_stay_unbound(self):
        parent, trace, _ = self.run_and_merge()
        for s in parent.spans:
            if s.process == worker_track(trace.pid):
                assert s.v_start is None and s.v_end is None



class TestInlineTrace:
    """What a workload run inline records straight into the tracer, kept
    as a trace that only a replay merges (``pid`` None)."""

    def record_inline(self):
        tracer = Tracer()
        with tracer.span("dispatch", category="agent", process="P_B",
                         thread="u1") as dispatch:
            ctx = SpanContext.capture(tracer, dispatch.span_id, "P_B", "u1")
            since = (len(tracer.spans), len(tracer.events))
            with use_tracer(tracer):
                simple_work()
                tracer.event("beat", category="heartbeat", thread="monitor")
            trace = WorkerTrace.inline(tracer, since, ctx)
        return tracer, trace

    def test_keeps_the_records_on_the_dispatch_track(self):
        _, trace = self.record_inline()
        assert trace.pid is None
        assert [s.name for s in trace.spans] == ["inner"]
        assert [e.name for e in trace.events] == ["tick"]  # not the beat

    def test_a_replay_merges_it_onto_the_replays_track(self):
        _, trace = self.record_inline()
        parent = Tracer()
        with parent.span("dispatch", category="agent", process="P_C",
                         thread="u7") as dispatch:
            ctx = SpanContext.capture(parent, dispatch.span_id, "P_C", "u7")
        assert merge_worker_trace(parent, trace.replayed(ctx), ctx) == 2
        (inner,) = [s for s in parent.spans if s.name == "inner"]
        (tick,) = [e for e in parent.events if e.name == "tick"]
        assert (inner.process, inner.thread) == ("P_C", "u7")
        assert (tick.process, tick.thread) == ("P_C", "u7")
        assert inner.parent_id == dispatch.span_id
        assert inner.attrs["replayed"] is True
        assert inner.r_start >= ctx.parent_perf


class TestOffsetMath:
    def test_offset_compensates_different_perf_epochs(self):
        # Simulate a worker whose perf_counter epoch differs by +1000 s.
        ctx = SpanContext(
            parent_span_id=None, parent_wall=100.0, parent_perf=50.0
        )
        trace = WorkerTrace(
            pid=1, worker_wall=100.0, worker_perf=1050.0
        )
        # worker perf 1051.0 == wall 101.0 == parent perf 51.0
        assert trace.r_offset(ctx) == -1000.0
