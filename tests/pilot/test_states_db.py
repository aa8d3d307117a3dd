"""Tests for the state machines and their record, the trace."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.clock import SimClock
from repro.obs import CollectorSink, Tracer, use_tracer
from repro.pilot.description import UnitDescription
from repro.pilot.states import (
    PILOT_FINAL,
    PILOT_TRANSITIONS,
    UNIT_FINAL,
    UNIT_TRANSITIONS,
    PilotState,
    StateError,
    UnitState,
    check_pilot_transition,
    check_unit_transition,
)
from repro.pilot.unit import ComputeUnit


class TestPilotStates:
    def test_happy_path(self):
        path = [
            PilotState.NEW,
            PilotState.PENDING_LAUNCH,
            PilotState.LAUNCHING,
            PilotState.ACTIVE,
            PilotState.DONE,
        ]
        for a, b in zip(path, path[1:]):
            check_pilot_transition(a, b)

    def test_skip_rejected(self):
        with pytest.raises(StateError):
            check_pilot_transition(PilotState.NEW, PilotState.ACTIVE)

    def test_final_states_absorbing(self):
        for s in PILOT_FINAL:
            assert PILOT_TRANSITIONS[s] == frozenset()

    def test_cancel_from_anywhere_live(self):
        for s in (
            PilotState.NEW,
            PilotState.PENDING_LAUNCH,
            PilotState.LAUNCHING,
            PilotState.ACTIVE,
        ):
            check_pilot_transition(s, PilotState.CANCELED)

    @given(st.sampled_from(list(PilotState)), st.sampled_from(list(PilotState)))
    def test_table_is_authoritative(self, a, b):
        legal = b in PILOT_TRANSITIONS[a]
        if legal:
            check_pilot_transition(a, b)
        else:
            with pytest.raises(StateError):
                check_pilot_transition(a, b)


class TestUnitStates:
    def test_happy_path(self):
        path = [
            UnitState.NEW,
            UnitState.UNSCHEDULED,
            UnitState.SCHEDULING,
            UnitState.PENDING_EXECUTION,
            UnitState.EXECUTING,
            UnitState.DONE,
        ]
        for a, b in zip(path, path[1:]):
            check_unit_transition(a, b)

    def test_failed_can_restart(self):
        check_unit_transition(UnitState.FAILED, UnitState.UNSCHEDULED)

    def test_done_absorbing(self):
        assert UNIT_TRANSITIONS[UnitState.DONE] == frozenset()
        assert UNIT_TRANSITIONS[UnitState.CANCELED] == frozenset()

    def test_skip_rejected(self):
        with pytest.raises(StateError):
            check_unit_transition(UnitState.NEW, UnitState.EXECUTING)

    @given(st.sampled_from(list(UnitState)), st.sampled_from(list(UnitState)))
    def test_table_is_authoritative(self, a, b):
        legal = b in UNIT_TRANSITIONS[a]
        if legal:
            check_unit_transition(a, b)
        else:
            with pytest.raises(StateError):
                check_unit_transition(a, b)


class TestStateStore:
    """The trace is the pilot layer's state store: one ``unit.state`` /
    ``pilot.state`` event per transition, stamped with virtual time, and
    the tracer's sinks are its watchers."""

    def make(self, clock=None):
        return Tracer(clock or SimClock())

    def unit(self):
        return ComputeUnit(UnitDescription(name="u", work=lambda: (None, None)))

    def test_history_with_timestamps(self):
        clock = SimClock()
        with use_tracer(self.make(clock)) as tracer:
            unit = self.unit()
            unit.advance(UnitState.UNSCHEDULED)
            clock.advance(10)
            unit.advance(UnitState.SCHEDULING)
        assert [(e.attrs["new"], e.v_time) for e in tracer.events] == [
            ("UNSCHEDULED", 0.0),
            ("SCHEDULING", 10.0),
        ]

    def test_watchers_fire(self):
        with use_tracer(self.make()) as tracer:
            watcher = tracer.add_sink(CollectorSink())
            unit = self.unit()
            unit.advance(UnitState.UNSCHEDULED)
            unit.advance(UnitState.SCHEDULING)
        assert [(r["thread"], r["attrs"]["new"]) for r in watcher.records] == [
            (unit.unit_id, "UNSCHEDULED"),
            (unit.unit_id, "SCHEDULING"),
        ]

    def test_unsubscribe(self):
        with use_tracer(self.make()) as tracer:
            watcher = tracer.add_sink(CollectorSink())
            unit = self.unit()
            unit.advance(UnitState.UNSCHEDULED)
            tracer.remove_sink(watcher)
            unit.advance(UnitState.SCHEDULING)
        assert [r["attrs"]["new"] for r in watcher.records] == ["UNSCHEDULED"]

    def test_timeline(self):
        with use_tracer(self.make()) as tracer:
            a, b = self.unit(), self.unit()
            a.advance(UnitState.UNSCHEDULED)
            b.advance(UnitState.UNSCHEDULED)
            a.advance(UnitState.SCHEDULING)
        assert [(e.thread, e.attrs["new"]) for e in tracer.events] == [
            (a.unit_id, "UNSCHEDULED"),
            (b.unit_id, "UNSCHEDULED"),
            (a.unit_id, "SCHEDULING"),
        ]
