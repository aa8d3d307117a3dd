"""Unit -> pilot placement.

RADICAL-Pilot's UnitManager supports pluggable scheduling policies; the
pipeline needs one, memory-aware: refuse to bind a unit whose
(paper-scale) footprint cannot fit the pilot's nodes, preferring the
cheapest pilot with headroom — what saves large inputs from landing on
c3.2xlarge (Table IV; ``tests/pilot/test_managers.py::TestSchedulers``).

The ``exclude`` map (``{unit_id: {pilot_id}}``) names pilots a unit must
not be placed on again — the §III.C restart path uses it to re-place a
failed unit *elsewhere* instead of looping on the pilot it already
failed on.
"""

from __future__ import annotations

import logging
from typing import Mapping

from repro.cloud.instances import InstanceType, get_instance_type
from repro.obs import get_tracer
from repro.pilot.pilot import Pilot
from repro.pilot.states import PilotState
from repro.pilot.unit import ComputeUnit

#: Pilots each unit must not be scheduled on: ``{unit_id: {pilot_id}}``.
ExcludeMap = Mapping[str, "set[str] | frozenset[str]"]

_log = logging.getLogger(__name__)


class SchedulingError(RuntimeError):
    """No pilot can host ``unit`` (``None``: no pilot is usable at all)."""

    def __init__(self, message: str, unit: ComputeUnit | None = None):
        super().__init__(message)
        self.unit = unit


#: States in which a pilot can take units.
_USABLE = (
    PilotState.ACTIVE,
    PilotState.LAUNCHING,
    PilotState.PENDING_LAUNCH,
    PilotState.NEW,
)


def memory_per_node(unit: ComputeUnit, itype: InstanceType, n_nodes: int) -> float:
    """The unit's declared (paper-scale) memory on each node it spans: a
    unit spreading over n of ``n_nodes`` nodes needs mem/n per node."""
    spans = -(-unit.description.cores // itype.vcpus)
    return unit.description.memory_bytes / max(1, min(n_nodes, spans))


def unit_fits_pilot(unit: ComputeUnit, pilot: Pilot) -> bool:
    """Static capacity check: cores and declared memory vs the pilot fleet."""
    itype = get_instance_type(pilot.description.instance_type)
    return (
        unit.description.cores <= itype.vcpus * pilot.n_nodes
        and memory_per_node(unit, itype, pilot.n_nodes) <= itype.memory_bytes
    )


def _no_fit_error(unit: ComputeUnit, banned, pilots: list[Pilot]) -> SchedulingError:
    if banned:
        _log.warning(
            "unit %s fits no untried pilot (already failed on %s)",
            unit.description.name,
            sorted(banned),
        )
        return SchedulingError(
            f"unit {unit.description.name!r} fits no untried pilot "
            f"(already failed on {sorted(banned)})",
            unit,
        )
    _log.warning("unit %s fits no pilot", unit.description.name)
    needs = ", ".join(
        f"{memory_per_node(unit, it, p.n_nodes) / 1024**3:.1f} GiB/node on "
        f"{it.name} ({it.memory_gb:.0f} GiB)"
        for p in pilots
        for it in [get_instance_type(p.description.instance_type)]
    )
    return SchedulingError(
        f"unit {unit.description.name!r} fits no pilot: needs {needs}", unit
    )


class MemoryAwareScheduler:
    """Prefer the cheapest pilot whose nodes can hold the unit's footprint
    (on a price tie, the one with more nodes)."""

    def schedule(
        self,
        units: list[ComputeUnit],
        pilots: list[Pilot],
        exclude: ExcludeMap | None = None,
    ) -> dict[str, str]:
        """Returns ``{unit_id: pilot_id}``; raises SchedulingError when a
        unit fits nowhere (or nowhere it has not already failed).  Every
        placement decision is one ``schedule.place`` trace event."""
        usable = [p for p in pilots if p.state in _USABLE]
        if not usable:
            raise SchedulingError("no usable pilots")
        exclude = exclude or {}
        out: dict[str, str] = {}
        for unit in units:
            banned = exclude.get(unit.unit_id, frozenset())
            candidates = [
                p
                for p in usable
                if p.pilot_id not in banned and unit_fits_pilot(unit, p)
            ]
            if not candidates:
                raise _no_fit_error(unit, banned, usable)
            best = min(
                candidates,
                key=lambda p: (
                    get_instance_type(p.description.instance_type).price_per_hour,
                    -p.n_nodes,
                ),
            )
            out[unit.unit_id] = best.pilot_id
        tracer = get_tracer()
        if tracer.enabled:
            names = {u.unit_id: u.description.name for u in units}
            for unit_id, pilot_id in out.items():
                tracer.event(
                    "schedule.place",
                    category="scheduler",
                    process=pilot_id,
                    thread=unit_id,
                    unit=names[unit_id],
                    policy=type(self).__name__,
                    excluded=sorted(exclude.get(unit_id, ())),
                )
            tracer.count("units_scheduled", len(out))
        return out
