"""Resource-usage records.

Every distributed task in this code base executes *real* computation on
simulation-scale data while recording what it did: work units on the
critical path, bytes moved through collectives, latency-bound message
counts, serial (single-rank) work, and MapReduce job/round structure.
The cost model (:mod:`repro.parallel.costmodel`) later converts a usage
record into virtual seconds for a given machine configuration; scaling a
record by ``1/scale`` extrapolates simulation-scale measurements to the
paper-scale data volumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from repro.obs import get_tracer


def nbytes(obj) -> int:
    """Approximate serialized size of a message payload in bytes."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        # Serialized size is the UTF-8 encoding, not the code-point count
        # (len(str) under-charges any non-ASCII payload).
        return len(obj.encode("utf-8"))
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, dict):
        return sum(nbytes(k) + nbytes(v) for k, v in obj.items()) + 16
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(nbytes(x) for x in obj) + 16
    # dataclasses / misc objects: shallow dict walk
    if hasattr(obj, "__dict__"):
        return nbytes(vars(obj)) + 16
    return 64


@dataclass(frozen=True)
class PhaseUsage:
    """Measured usage of one phase of a distributed computation.

    ``kind`` selects the compute-rate constant in the cost model (e.g.
    ``"kmer"``, ``"graph"``, ``"mr_map"``).  ``critical_compute`` is the
    maximum per-rank work; ``total_compute`` the sum over ranks;
    ``serial_compute`` is work done on a single rank while others idle.
    """

    name: str
    kind: str = "generic"
    critical_compute: float = 0.0
    total_compute: float = 0.0
    serial_compute: float = 0.0
    comm_bytes: int = 0
    n_collectives: int = 0
    n_messages: int = 0
    n_jobs: int = 0  # MapReduce jobs launched in this phase

    def scaled(self, factor: float) -> "PhaseUsage":
        """Scale data-proportional quantities by ``factor``.

        Collective/job *counts* are structural (round counts do not grow
        with data volume for these algorithms) and are left unscaled.
        """
        return replace(
            self,
            critical_compute=self.critical_compute * factor,
            total_compute=self.total_compute * factor,
            serial_compute=self.serial_compute * factor,
            comm_bytes=int(self.comm_bytes * factor),
            n_messages=int(self.n_messages * factor),
        )


@dataclass
class ResourceUsage:
    """Aggregate usage of a task: phases plus peak memory.

    ``peak_rank_memory_bytes`` is the peak memory of the most loaded rank
    at the *measured* scale; ``scaled`` extrapolates it together with the
    phase quantities.
    """

    phases: list[PhaseUsage] = field(default_factory=list)
    peak_rank_memory_bytes: int = 0
    n_ranks: int = 1

    def add_phase(self, phase: PhaseUsage) -> None:
        """Append one measured phase (the seam every assembler, MR engine
        and collective reports through — the tracer taps it here)."""
        self.phases.append(phase)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "phase",
                category="phase",
                phase=phase.name,
                kind=phase.kind,
                critical_compute=phase.critical_compute,
                total_compute=phase.total_compute,
                serial_compute=phase.serial_compute,
                comm_bytes=phase.comm_bytes,
                n_messages=phase.n_messages,
                n_jobs=phase.n_jobs,
            )

    def merge(self, other: "ResourceUsage") -> "ResourceUsage":
        """Sequential composition: phases concatenate, memory takes the max."""
        return ResourceUsage(
            phases=self.phases + other.phases,
            peak_rank_memory_bytes=max(
                self.peak_rank_memory_bytes, other.peak_rank_memory_bytes
            ),
            n_ranks=max(self.n_ranks, other.n_ranks),
        )

    def scaled(self, factor: float) -> "ResourceUsage":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ResourceUsage(
            phases=[p.scaled(factor) for p in self.phases],
            peak_rank_memory_bytes=int(self.peak_rank_memory_bytes * factor),
            n_ranks=self.n_ranks,
        )

    def scaled_by(
        self,
        phase_factor,
        memory_factor: float | None = None,
    ) -> "ResourceUsage":
        """Scale each phase by ``phase_factor(phase)`` — used when
        different phases extrapolate differently (read-bound vs
        graph-bound work).  ``memory_factor`` defaults to the maximum
        phase factor (memory holds the largest structure)."""
        factors = [(p, float(phase_factor(p))) for p in self.phases]
        if any(f <= 0 for _, f in factors):
            raise ValueError("scale factors must be positive")
        if memory_factor is None:
            memory_factor = max((f for _, f in factors), default=1.0)
        return ResourceUsage(
            phases=[p.scaled(f) for p, f in factors],
            peak_rank_memory_bytes=int(
                self.peak_rank_memory_bytes * memory_factor
            ),
            n_ranks=self.n_ranks,
        )

    # -- aggregate views ----------------------------------------------------

    @property
    def total_compute(self) -> float:
        return sum(p.total_compute for p in self.phases)

    @property
    def critical_compute(self) -> float:
        return sum(p.critical_compute for p in self.phases)

    @property
    def serial_compute(self) -> float:
        return sum(p.serial_compute for p in self.phases)

    @property
    def comm_bytes(self) -> int:
        return sum(p.comm_bytes for p in self.phases)

    @property
    def n_collectives(self) -> int:
        return sum(p.n_collectives for p in self.phases)

    @property
    def n_messages(self) -> int:
        return sum(p.n_messages for p in self.phases)

    @property
    def n_jobs(self) -> int:
        return sum(p.n_jobs for p in self.phases)

    def by_kind(self) -> dict[str, float]:
        """Critical-path compute grouped by work kind."""
        out: dict[str, float] = {}
        for p in self.phases:
            out[p.kind] = out.get(p.kind, 0.0) + p.critical_compute
        return out


def merge_all(usages: Iterable[ResourceUsage]) -> ResourceUsage:
    """Sequentially compose many usage records."""
    result = ResourceUsage()
    for u in usages:
        result = result.merge(u)
    return result
