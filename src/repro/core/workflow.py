"""Workflow patterns (paper Fig. 2).

Three execution patterns, distinguished by task-resource mapping and by
when that mapping is decided:

* **conventional** — every pilot runs on one fixed system, stages execute
  back-to-back (the original Rnnotator/HPC mode);
* **distributed static** — multiple pilots over distributed resources,
  but pilot sizing and task binding are fixed before the run starts;
* **distributed dynamic** — pilot configuration for each stage is decided
  just before that stage starts, using runtime information the earlier
  stages produced (the number of k-mer jobs, memory estimates, current
  VM pool).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class WorkflowPattern(enum.Enum):
    CONVENTIONAL = "conventional"
    DISTRIBUTED_STATIC = "static"
    DISTRIBUTED_DYNAMIC = "dynamic"

    @property
    def decides_at_runtime(self) -> bool:
        return self is WorkflowPattern.DISTRIBUTED_DYNAMIC

    @classmethod
    def parse(cls, value: "WorkflowPattern | str") -> "WorkflowPattern":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value or member.name == value.upper():
                return member
        raise ValueError(f"unknown workflow pattern {value!r}")


@dataclass(frozen=True)
class StageReport:
    """Timing/placement record of one pipeline stage.

    ``started_at``/``finished_at`` are virtual-clock times;
    ``real_seconds`` is the host wall-clock the stage's workloads
    actually took — the figure a parallel executor backend shrinks while
    the virtual TTC stays identical.
    """

    name: str
    pilot: str
    started_at: float
    finished_at: float
    n_nodes: int
    instance_type: str
    notes: str = ""
    real_seconds: float = 0.0

    @property
    def ttc(self) -> float:
        return self.finished_at - self.started_at


#: The Rnnotator stage sequence (Fig. 1) and the pilot that runs each.
STAGES = (
    ("pre-processing", "P_A"),
    ("transcript-assembly", "P_B"),
    ("post-processing", "P_C"),
    ("quantification", "P_C"),
)

