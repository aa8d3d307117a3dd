"""Tests for the virtual clock and event queue."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.clock import ClockError, EventQueue, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(100.0).now == 100.0

    def test_advance(self):
        c = SimClock()
        c.advance(5.0)
        c.advance(2.5)
        assert c.now == 7.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ClockError):
            SimClock().advance(-1)

    def test_advance_to(self):
        c = SimClock()
        c.advance_to(10.0)
        assert c.now == 10.0

    def test_advance_to_past_rejected(self):
        c = SimClock(10.0)
        with pytest.raises(ClockError):
            c.advance_to(5.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    def test_monotonic(self, steps):
        c = SimClock()
        last = 0.0
        for dt in steps:
            c.advance(dt)
            assert c.now >= last
            last = c.now


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule_at(5.0, lambda: fired.append("b"))
        q.schedule_at(1.0, lambda: fired.append("a"))
        q.schedule_at(9.0, lambda: fired.append("c"))
        q.run()
        assert fired == ["a", "b", "c"]
        assert q.clock.now == 9.0

    def test_ties_fire_in_submission_order(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.schedule_at(1.0, lambda i=i: fired.append(i))
        q.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_in(self):
        q = EventQueue()
        q.clock.advance(10.0)
        fired = []
        q.schedule_in(5.0, lambda: fired.append(q.clock.now))
        q.run()
        assert fired == [15.0]

    def test_schedule_in_past_rejected(self):
        q = EventQueue()
        q.clock.advance(10.0)
        with pytest.raises(ClockError):
            q.schedule_at(5.0, lambda: None)
        with pytest.raises(ClockError):
            q.schedule_in(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        q = EventQueue()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                q.schedule_in(1.0, lambda: chain(n + 1))

        q.schedule_at(0.0, lambda: chain(0))
        q.run()
        assert fired == [0, 1, 2, 3]
        assert q.clock.now == 3.0

    def test_run_until(self):
        q = EventQueue()
        fired = []
        q.schedule_at(1.0, lambda: fired.append(1))
        q.schedule_at(10.0, lambda: fired.append(10))
        q.run(until=5.0)
        assert fired == [1]
        assert q.clock.now == 5.0
        assert len(q) == 1

    def test_step_empty(self):
        assert EventQueue().step() is None


class TestEventTags:
    def test_step_returns_explicit_tag(self):
        q = EventQueue()
        q.schedule_at(1.0, lambda: None, tag="vm.boot")
        assert q.step() == "vm.boot"
        assert q.last_tag == "vm.boot"

    def test_untagged_events_get_derived_tag(self):
        q = EventQueue()

        def provision():
            pass

        q.schedule_in(2.0, provision)
        tag = q.step()
        assert "provision" in tag

    def test_run_returns_fired_tags_in_order(self):
        q = EventQueue()
        q.schedule_at(2.0, lambda: None, tag="b")
        q.schedule_at(1.0, lambda: None, tag="a")
        q.schedule_at(9.0, lambda: None, tag="c")
        assert q.run(until=5.0) == ["a", "b"]
        assert q.run() == ["c"]

    def test_fired_events_reach_the_tracer(self):
        from repro.obs import Tracer, use_tracer

        q = EventQueue()
        q.schedule_at(4.0, lambda: None, tag="traced")
        with use_tracer(Tracer()) as tracer:
            q.run()
        fires = [e for e in tracer.events if e.name == "eq.fire"]
        assert [e.attrs["tag"] for e in fires] == ["traced"]
        assert fires[0].v_time == 4.0
