"""Read a pilot-layer lifecycle back from the trace, its only record:
the state path of one pilot or unit (its ``pilot.state`` /
``unit.state`` events) and the pilots a unit was placed on (its
``schedule.place`` events)."""


def _path(moves: list[dict]) -> list[str]:
    """The first state left, then every state entered, in order."""
    return [moves[0]["old"], *(m["new"] for m in moves)] if moves else []


def pilot_states(tracer, pilot) -> list[str]:
    return _path([
        e.attrs for e in tracer.events
        if e.name == "pilot.state" and e.process == pilot.pilot_id
    ])


def unit_states(tracer, unit) -> list[str]:
    return _path([
        e.attrs for e in tracer.events
        if e.name == "unit.state" and e.thread == unit.unit_id
    ])


def placements(tracer, unit) -> list[str]:
    """Pilot ids the scheduler placed ``unit`` on, one per attempt."""
    return [
        e.process for e in tracer.events
        if e.name == "schedule.place" and e.thread == unit.unit_id
    ]
