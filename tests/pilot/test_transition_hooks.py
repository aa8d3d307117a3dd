"""Exhaustive state-machine coverage, observed through the trace.

Complements the hypothesis-sampled tests in test_states_db.py with a
deterministic sweep over *every* (from, to) state pair, exercised
through the live entities (``Pilot.advance`` / ``ComputeUnit.advance``)
rather than the bare check functions.  A transition's only record is
its ``pilot.state`` / ``unit.state`` trace event, and the tracer's sinks
are the hooks that observe it live.
"""

import itertools

import pytest

from repro.obs import CollectorSink, Tracer, TraceSink, use_tracer
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.pilot import Pilot
from repro.pilot.states import (
    PILOT_TRANSITIONS,
    UNIT_TRANSITIONS,
    PilotState,
    StateError,
    UnitState,
)
from repro.pilot.unit import ComputeUnit


def make_pilot() -> Pilot:
    return Pilot(PilotDescription("P", "c3.2xlarge", 1))


def make_unit() -> ComputeUnit:
    return ComputeUnit(UnitDescription(name="u", work=lambda: (None, None)))


def moves(tracer: Tracer, name: str) -> list[tuple[str, str]]:
    """``(old, new)`` of every ``name`` event, in order."""
    return [
        (e.attrs["old"], e.attrs["new"]) for e in tracer.events if e.name == name
    ]


class Hook(TraceSink):
    """A sink that calls ``fn(record)`` for every streamed record."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def emit(self, record: dict) -> None:
        self.fn(record)


@pytest.fixture
def tracer():
    with use_tracer(Tracer()) as t:
        yield t


PILOT_PAIRS = list(itertools.product(PilotState, PilotState))
UNIT_PAIRS = list(itertools.product(UnitState, UnitState))


class TestExhaustivePilotPairs:
    @pytest.mark.parametrize(
        "a,b", PILOT_PAIRS, ids=[f"{a.value}->{b.value}" for a, b in PILOT_PAIRS]
    )
    def test_every_pair(self, a, b, tracer):
        pilot = make_pilot()
        pilot.state = a
        if b in PILOT_TRANSITIONS[a]:
            pilot.advance(b)
            assert pilot.state is b
            assert moves(tracer, "pilot.state") == [(a.value, b.value)]
        else:
            with pytest.raises(StateError):
                pilot.advance(b)
            # a rejected transition changes nothing and emits nothing
            assert pilot.state is a
            assert tracer.events == []


class TestExhaustiveUnitPairs:
    @pytest.mark.parametrize(
        "a,b", UNIT_PAIRS, ids=[f"{a.value}->{b.value}" for a, b in UNIT_PAIRS]
    )
    def test_every_pair(self, a, b, tracer):
        unit = make_unit()
        unit.state = a
        if b in UNIT_TRANSITIONS[a]:
            unit.advance(b)
            assert unit.state is b
            assert moves(tracer, "unit.state") == [(a.value, b.value)]
        else:
            with pytest.raises(StateError):
                unit.advance(b)
            assert unit.state is a
            assert tracer.events == []


class TestHookSemantics:
    def test_pilot_hooks_fire_once_per_transition_over_lifecycle(self, tracer):
        pilot = make_pilot()
        path = [
            PilotState.PENDING_LAUNCH,
            PilotState.LAUNCHING,
            PilotState.ACTIVE,
            PilotState.DONE,
        ]
        for state in path:
            pilot.advance(state)
        assert moves(tracer, "pilot.state") == [
            ("NEW", "PENDING_LAUNCH"),
            ("PENDING_LAUNCH", "LAUNCHING"),
            ("LAUNCHING", "ACTIVE"),
            ("ACTIVE", "DONE"),
        ]

    def test_unit_hooks_fire_once_per_transition_over_lifecycle(self, tracer):
        unit = make_unit()
        path = [
            UnitState.UNSCHEDULED,
            UnitState.SCHEDULING,
            UnitState.PENDING_EXECUTION,
            UnitState.EXECUTING,
            UnitState.DONE,
        ]
        for state in path:
            unit.advance(state)
        fired = moves(tracer, "unit.state")
        assert len(fired) == 5
        assert fired[0] == ("NEW", "UNSCHEDULED")
        assert fired[-1] == ("EXECUTING", "DONE")

    def test_multiple_hooks_all_fire_in_order(self, tracer):
        pilot = make_pilot()
        order = []
        tracer.add_sink(Hook(lambda r: order.append("first")))
        tracer.add_sink(Hook(lambda r: order.append("second")))
        pilot.advance(PilotState.PENDING_LAUNCH)
        assert order == ["first", "second"]

    def test_hook_receives_entity(self, tracer):
        unit = make_unit()
        hook = tracer.add_sink(CollectorSink())
        unit.advance(UnitState.UNSCHEDULED)
        assert [r["thread"] for r in hook.records] == [unit.unit_id]

    def test_hooks_fire_after_db_update(self, tracer):
        # the hook must observe the *published* state, not the stale one
        pilot = make_pilot()
        published = []
        tracer.add_sink(Hook(lambda r: published.append(pilot.state)))
        pilot.advance(PilotState.PENDING_LAUNCH)
        assert published == [PilotState.PENDING_LAUNCH]
