"""Descriptions: declarative requests for pilots and compute units."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.parallel.usage import ResourceUsage

#: A unit's workload: a callable returning (result, measured usage).
Workload = Callable[[], tuple[Any, ResourceUsage]]


@dataclass(frozen=True)
class PilotDescription:
    """A request for a slice of resources.

    ``instance_type``/``n_nodes`` describe the EC2 fleet the pilot should
    hold (the paper's pilots P_A, P_B, P_C differ exactly in these).
    ``runtime_limit`` is the walltime lease in seconds (0 = unlimited).
    """

    name: str
    instance_type: str
    n_nodes: int = 1
    runtime_limit: float = 0.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("pilot needs at least one node")
        if self.runtime_limit < 0:
            raise ValueError("runtime_limit must be >= 0")


@dataclass(frozen=True)
class UnitDescription:
    """A request for one task execution.

    ``work`` runs the *real* computation and returns ``(result, usage)``;
    the agent extrapolates the usage by ``1/scale`` before pricing it on
    the virtual clock.  ``memory_bytes`` (paper scale) lets the scheduler
    and the capacity check reason about footprints without running first;
    when 0, the post-hoc measured usage is the only check.

    ``checkpoint_key`` is the unit's content address (``None`` = never
    stored): the pilot agent answers it from the durable checkpoint
    store, else from the run cache, and identical keys mean the stored
    outcome replays bit-identically, so the key must cover everything
    the outcome depends on — for assembly units that is ``(ReadStore
    digest, assembler, params, n_ranks)``.
    """

    name: str
    work: Workload
    cores: int = 1
    memory_bytes: int = 0
    scale: float = 1.0
    stage: str = ""
    input_bytes: int = 0
    output_bytes: int = 0
    max_restarts: int = 0
    checkpoint_key: Any = None
    tags: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("unit needs at least one core")
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        if self.memory_bytes < 0 or self.input_bytes < 0 or self.output_bytes < 0:
            raise ValueError("byte sizes must be >= 0")
