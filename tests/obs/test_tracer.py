"""Tests for the dual-clock tracer core."""

import pytest

from repro.cloud.clock import SimClock
from repro.obs import NullTracer, Tracer, get_tracer, set_tracer, use_tracer


class TestSpans:
    def test_span_records_both_clocks(self):
        clock = SimClock(100.0)
        tr = Tracer(clock)
        with tr.span("work"):
            clock.advance(50.0)
        (s,) = tr.spans
        assert s.name == "work"
        assert s.v_start == 100.0
        assert s.v_end == 150.0
        assert s.v_duration == 50.0
        assert s.r_end >= s.r_start
        assert s.r_duration >= 0.0

    def test_unbound_clock_yields_none_virtual(self):
        tr = Tracer()
        with tr.span("x"):
            pass
        (s,) = tr.spans
        assert s.v_start is None and s.v_end is None
        assert s.v_duration == 0.0

    def test_bind_clock_late(self):
        tr = Tracer()
        tr.bind_clock(SimClock(7.0))
        with tr.span("x"):
            pass
        assert tr.spans[0].v_start == 7.0

    def test_nesting_parent_ids(self):
        tr = Tracer(SimClock())
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                pass
        inner_rec, outer_rec = tr.spans  # inner closes first
        assert inner_rec.name == "inner"
        assert inner_rec.parent_id == outer.span_id
        assert outer_rec.parent_id is None
        assert inner.span_id != outer.span_id

    def test_track_inheritance(self):
        tr = Tracer(SimClock())
        with tr.span("outer", process="pilot.0", thread="unit.1"):
            with tr.span("inner"):
                pass
            with tr.span("other", thread="unit.2"):
                pass
        inner, other, outer = tr.spans
        assert (inner.process, inner.thread) == ("pilot.0", "unit.1")
        assert (other.process, other.thread) == ("pilot.0", "unit.2")
        assert (outer.process, outer.thread) == ("pilot.0", "unit.1")

    def test_handle_set_merges_attrs(self):
        tr = Tracer(SimClock())
        with tr.span("x", a=1) as sp:
            sp.set(b=2)
        assert tr.spans[0].attrs == {"a": 1, "b": 2}

    def test_span_survives_exception(self):
        tr = Tracer(SimClock())
        with pytest.raises(RuntimeError):
            with tr.span("x"):
                raise RuntimeError("boom")
        assert len(tr.spans) == 1

    def test_add_span_retroactive(self):
        tr = Tracer(SimClock(999.0))
        tr.add_span("vm", v_start=10.0, v_end=30.0, category="cloud", vm="i-1")
        (s,) = tr.spans
        assert s.v_start == 10.0 and s.v_end == 30.0
        assert s.v_duration == 20.0
        assert s.attrs == {"vm": "i-1"}

    def test_add_span_explicit_real_interval(self):
        tr = Tracer()
        tr.add_span("x", v_start=0.0, v_end=1.0, r_start=5.0, r_end=9.0)
        assert tr.spans[0].r_duration == 4.0


class TestEvents:
    def test_event_stamped_from_clock(self):
        clock = SimClock(42.0)
        tr = Tracer(clock)
        tr.event("fire", category="events", tag="t")
        (e,) = tr.events
        assert e.v_time == 42.0
        assert e.attrs == {"tag": "t"}

    def test_event_v_override(self):
        tr = Tracer(SimClock(42.0))
        tr.event("fire", v=7.0)
        assert tr.events[0].v_time == 7.0

    def test_event_inherits_enclosing_span_track(self):
        tr = Tracer(SimClock())
        with tr.span("outer", process="p", thread="t"):
            tr.event("inside")
        assert (tr.events[0].process, tr.events[0].thread) == ("p", "t")


class TestRecords:
    def test_records_are_dicts_sorted_by_real_time(self):
        tr = Tracer(SimClock())
        with tr.span("a"):
            pass
        tr.event("b")
        recs = tr.records()
        assert [r["type"] for r in recs] == ["span", "event"]
        assert recs[0]["name"] == "a"
        assert recs[1]["name"] == "b"

    def test_metric_conveniences(self):
        tr = Tracer()
        tr.count("jobs")
        tr.count("jobs", 2)
        tr.gauge("vms", 4)
        tr.observe("wait", 1.5)
        snap = tr.metrics.snapshot()
        assert snap["counters"]["jobs"] == 3
        assert snap["gauges"]["vms"] == 4
        assert snap["histograms"]["wait"]["count"] == 1


class TestInstallation:
    def test_default_is_null_tracer(self):
        assert isinstance(get_tracer(), NullTracer)
        assert get_tracer().enabled is False

    def test_set_and_restore(self):
        tr = Tracer()
        prev = set_tracer(tr)
        try:
            assert get_tracer() is tr
        finally:
            set_tracer(prev)
        assert isinstance(get_tracer(), NullTracer)

    def test_use_tracer_scoped(self):
        tr = Tracer()
        with use_tracer(tr) as active:
            assert active is tr
            assert get_tracer() is tr
        assert isinstance(get_tracer(), NullTracer)

    def test_use_tracer_none_restores_default(self):
        tr = Tracer()
        with use_tracer(tr):
            with use_tracer(None):
                assert isinstance(get_tracer(), NullTracer)
            assert get_tracer() is tr


class TestNullTracer:
    def test_everything_is_a_noop(self):
        nt = NullTracer()
        with nt.span("x", a=1) as sp:
            sp.set(b=2)
        nt.add_span("y", v_start=0, v_end=1)
        nt.event("z")
        nt.count("c")
        nt.gauge("g", 1)
        nt.observe("h", 1)
        nt.bind_clock(SimClock())
        assert nt.spans == []
        assert nt.events == []
        assert nt.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        assert nt.clock is None  # bind_clock ignored

    def test_span_context_is_reusable_singleton(self):
        nt = NullTracer()
        assert nt.span("a") is nt.span("b")
