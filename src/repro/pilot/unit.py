"""The ComputeUnit entity: one schedulable task."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.obs import get_tracer
from repro.parallel.usage import ResourceUsage
from repro.pilot.description import UnitDescription
from repro.pilot.states import UnitState, check_unit_transition

_ids = itertools.count()


@dataclass
class ComputeUnit:
    """A compute unit: description + state + execution record."""

    description: UnitDescription
    unit_id: str = field(default_factory=lambda: f"unit.{next(_ids):06d}")
    state: UnitState = UnitState.NEW
    pilot_id: str | None = None
    result: Any = None
    usage: ResourceUsage | None = None
    error: str | None = None
    restarts: int = 0
    started_at: float | None = None
    finished_at: float | None = None
    #: Real host seconds spent in the workload (not virtual time).
    real_seconds: float | None = None
    #: True when the last failure was no fault of the unit's (its node
    #: was preempted): the restart loop may then retry the same pilot
    #: instead of excluding it.
    failure_transient: bool = False

    def advance(self, new: UnitState) -> None:
        """Move to ``new``, enforcing the transition table; the
        ``unit.state`` trace event is the lifecycle's only record."""
        check_unit_transition(self.state, new)
        old = self.state
        self.state = new
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "unit.state",
                category="state",
                process=self.pilot_id or "unassigned",
                thread=self.unit_id,
                old=old.value,
                new=new.value,
                unit=self.description.name,
                stage=self.description.stage,
            )

    @property
    def ttc(self) -> float:
        """Virtual execution time (0 until finished)."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def assign(self, pilot_id: str) -> None:
        self.pilot_id = pilot_id

    def fail(self, error: str, transient: bool = False) -> None:
        self.error = error
        self.failure_transient = transient
        self.advance(UnitState.FAILED)

    def reset_for_restart(self) -> None:
        """FAILED -> UNSCHEDULED (the restart path of §III.C).

        Clears the whole execution record: a restarted unit must not
        report the dead attempt's usage, result or timestamps — e.g. a
        retry that fails the static capacity check (and so never
        executes) would otherwise surface the failed attempt's usage
        and a bogus ``ttc``.
        """
        self.advance(UnitState.UNSCHEDULED)
        self.restarts += 1
        self.pilot_id = None
        self.error = None
        self.failure_transient = False
        self.result = None
        self.usage = None
        self.started_at = None
        self.finished_at = None
        self.real_seconds = None
