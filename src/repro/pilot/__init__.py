"""RADICAL-Pilot analog.

The pilot abstraction decouples *resource acquisition* (a pilot holds a
slice of machines) from *work execution* (compute units are bound to
pilots and executed by the pilot's agent).  This subpackage reproduces the
RP architecture the paper builds on (§III.C):

* pilot and unit **state machines** with legal-transition enforcement
  (:mod:`states`); every transition is one ``pilot.state`` /
  ``unit.state`` trace event with a virtual timestamp, so the tracer (and
  its sinks) is the "database system that updates run-time information
  on the fly",
* **descriptions** separating what is wanted from what runs
  (:mod:`description`),
* memory-aware **placement** of units onto pilots (:mod:`scheduler`),
* **PilotManager / UnitManager** front-ends (:mod:`manager`), and
* the per-pilot **agent** that runs units on the pilot's cluster through
  SGE, enforcing memory capacity (:mod:`agent`).
"""

from repro.pilot.agent import PilotAgent
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.manager import PilotManager, UnitFailureError, UnitManager
from repro.pilot.pilot import Pilot
from repro.pilot.scheduler import MemoryAwareScheduler
from repro.pilot.states import PilotState, StateError, UnitState
from repro.pilot.unit import ComputeUnit

__all__ = [
    "PilotState",
    "UnitState",
    "StateError",
    "PilotDescription",
    "UnitDescription",
    "Pilot",
    "ComputeUnit",
    "MemoryAwareScheduler",
    "PilotManager",
    "UnitManager",
    "UnitFailureError",
    "PilotAgent",
]
