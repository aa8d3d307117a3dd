"""Unit -> pilot schedulers.

RADICAL-Pilot's UnitManager supports pluggable scheduling policies; the
pipeline uses two:

* round-robin — the distributed-static workflow pattern, and
* memory-aware — refuse to bind a unit whose (paper-scale) footprint
  cannot fit the pilot's nodes, preferring pilots with headroom; this is
  what saves large inputs from landing on c3.2xlarge (Table IV).

Every policy takes an optional ``exclude`` map (``{unit_id: {pilot_id}}``)
naming pilots a unit must not be placed on again — the §III.C restart
path uses it to re-place a failed unit *elsewhere* instead of looping on
the pilot it already failed on.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from typing import Mapping

from repro.cloud.instances import get_instance_type
from repro.obs import get_tracer
from repro.pilot.pilot import Pilot
from repro.pilot.states import PilotState
from repro.pilot.unit import ComputeUnit

#: Pilots each unit must not be scheduled on: ``{unit_id: {pilot_id}}``.
ExcludeMap = Mapping[str, "set[str] | frozenset[str]"]

_log = logging.getLogger(__name__)


def record_placements(
    scheduler: "UnitScheduler",
    assignment: dict[str, str],
    units: list[ComputeUnit],
    exclude: ExcludeMap | None,
) -> None:
    """Emit one trace event per placement decision (no-op untraced)."""
    tracer = get_tracer()
    if not tracer.enabled:
        return
    names = {u.unit_id: u.description.name for u in units}
    for unit_id, pilot_id in assignment.items():
        tracer.event(
            "schedule.place",
            category="scheduler",
            process=pilot_id,
            thread=unit_id,
            unit=names.get(unit_id, unit_id),
            policy=type(scheduler).__name__,
            excluded=sorted((exclude or {}).get(unit_id, ())),
        )
    tracer.count("units_scheduled", len(assignment))


class SchedulingError(RuntimeError):
    """No pilot can host the unit."""


def _usable(pilots: list[Pilot]) -> list[Pilot]:
    return [
        p
        for p in pilots
        if p.state in (PilotState.ACTIVE, PilotState.LAUNCHING, PilotState.PENDING_LAUNCH, PilotState.NEW)
    ]


def unit_fits_pilot(unit: ComputeUnit, pilot: Pilot) -> bool:
    """Static capacity check: cores and declared memory vs the pilot fleet."""
    itype = get_instance_type(pilot.description.instance_type)
    total_cores = itype.vcpus * pilot.n_nodes
    if unit.description.cores > total_cores:
        return False
    mem = unit.description.memory_bytes
    if mem:
        # Per-node share: a unit spreading over n nodes needs mem/n per node.
        nodes_used = max(
            1, min(pilot.n_nodes, -(-unit.description.cores // itype.vcpus))
        )
        if mem / nodes_used > itype.memory_bytes:
            return False
    return True


def _candidates(
    unit: ComputeUnit, usable: list[Pilot], exclude: ExcludeMap | None
) -> list[Pilot]:
    """Usable pilots the unit fits on and is not excluded from."""
    banned = (exclude or {}).get(unit.unit_id, frozenset())
    return [
        p
        for p in usable
        if p.pilot_id not in banned and unit_fits_pilot(unit, p)
    ]


def _no_fit_error(
    unit: ComputeUnit, exclude: ExcludeMap | None
) -> SchedulingError:
    banned = (exclude or {}).get(unit.unit_id, frozenset())
    if banned:
        _log.warning(
            "unit %s fits no untried pilot (already failed on %s)",
            unit.description.name,
            sorted(banned),
        )
        return SchedulingError(
            f"unit {unit.description.name!r} fits no untried pilot "
            f"(already failed on {sorted(banned)})"
        )
    _log.warning("unit %s fits no pilot", unit.description.name)
    return SchedulingError(f"unit {unit.description.name!r} fits no pilot")


class UnitScheduler(ABC):
    """Assigns each unit to one pilot."""

    def schedule(
        self,
        units: list[ComputeUnit],
        pilots: list[Pilot],
        exclude: ExcludeMap | None = None,
    ) -> dict[str, str]:
        """Returns ``{unit_id: pilot_id}``; raises SchedulingError when a
        unit fits nowhere (or nowhere it has not already failed).  Every
        placement decision is published to the tracer."""
        assignment = self._schedule(units, pilots, exclude)
        record_placements(self, assignment, units, exclude)
        return assignment

    @abstractmethod
    def _schedule(
        self,
        units: list[ComputeUnit],
        pilots: list[Pilot],
        exclude: ExcludeMap | None = None,
    ) -> dict[str, str]:
        """Policy implementation; see :meth:`schedule`."""


class RoundRobinScheduler(UnitScheduler):
    """Cycle through the usable pilots, skipping those the unit cannot fit."""

    def _schedule(self, units, pilots, exclude=None):
        usable = _usable(pilots)
        if not usable:
            raise SchedulingError("no usable pilots")
        out: dict[str, str] = {}
        i = 0
        for unit in units:
            banned = (exclude or {}).get(unit.unit_id, frozenset())
            placed = False
            for probe in range(len(usable)):
                pilot = usable[(i + probe) % len(usable)]
                if pilot.pilot_id in banned:
                    continue
                if unit_fits_pilot(unit, pilot):
                    out[unit.unit_id] = pilot.pilot_id
                    i = (i + probe + 1) % len(usable)
                    placed = True
                    break
            if not placed:
                raise _no_fit_error(unit, exclude)
        return out


class MemoryAwareScheduler(UnitScheduler):
    """Prefer the cheapest pilot whose nodes can hold the unit's footprint."""

    def _schedule(self, units, pilots, exclude=None):
        usable = _usable(pilots)
        if not usable:
            raise SchedulingError("no usable pilots")
        out: dict[str, str] = {}
        for unit in units:
            candidates = _candidates(unit, usable, exclude)
            if not candidates:
                raise _no_fit_error(unit, exclude)
            best = min(
                candidates,
                key=lambda p: (
                    get_instance_type(p.description.instance_type).price_per_hour,
                    -p.n_nodes,
                ),
            )
            out[unit.unit_id] = best.pilot_id
        return out
