"""An MPI-like SPMD world that books what a distributed run would do.

The MPI assemblers (Ray, ABySS) are written in the loosely-synchronous
style they actually use: phases over ranks, each charging its ranks'
work.  Nothing moves between ranks here: a collective is booked with one
:meth:`SimWorld.collective` call carrying its off-node bytes, which the
assembler counts in closed form from its own arrays.  The world records
per-rank work, serial work, collectives and their bytes, latency-bound
message counts and peak rank memory into
:class:`~repro.parallel.usage.ResourceUsage` phases, which the cost model
later turns into virtual seconds.

Example::

    world = SimWorld(4)
    with world.phase("count", kind="kmer"):
        for r in world.ranks():
            world.charge(r, float(matrix[r].sum()))
        world.collective(int(matrix.sum() - matrix.trace()) * k)
    usage = world.usage

The executing collectives the closed forms are held equal to are the
test oracle ``tests/parallel/exec_reference.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.parallel.usage import PhaseUsage, ResourceUsage


class CommError(RuntimeError):
    """Misuse of the communicator (no active phase, bad rank, ...)."""


@dataclass
class _PhaseAccumulator:
    name: str
    kind: str
    charges: dict[int, float] = field(default_factory=dict)
    serial: float = 0.0
    comm_bytes: int = 0
    n_collectives: int = 0
    n_messages: int = 0

    def to_usage(self) -> PhaseUsage:
        return PhaseUsage(
            name=self.name,
            kind=self.kind,
            critical_compute=max(self.charges.values(), default=0.0),
            total_compute=sum(self.charges.values()),
            serial_compute=self.serial,
            comm_bytes=self.comm_bytes,
            n_collectives=self.n_collectives,
            n_messages=self.n_messages,
        )


class SimWorld:
    """A fixed-size SPMD communicator with usage accounting."""

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.size = n_ranks
        self._phase: _PhaseAccumulator | None = None
        self._usage = ResourceUsage(n_ranks=n_ranks)
        self._peak_memory = 0

    # -- structure -----------------------------------------------------------

    def ranks(self) -> range:
        """Iterate rank ids (SPMD outer loop)."""
        return range(self.size)

    @contextmanager
    def phase(self, name: str, kind: str = "generic") -> Iterator[None]:
        """Delimit a named computation phase; phases may not nest."""
        if self._phase is not None:
            raise CommError(f"phase {self._phase.name!r} already active")
        self._phase = _PhaseAccumulator(name=name, kind=kind)
        try:
            yield
        finally:
            self._usage.add_phase(self._phase.to_usage())
            self._phase = None

    @property
    def usage(self) -> ResourceUsage:
        """Usage so far (phases closed to this point)."""
        self._usage.peak_rank_memory_bytes = self._peak_memory
        return self._usage

    # -- accounting -----------------------------------------------------------

    def _acc(self) -> _PhaseAccumulator:
        if self._phase is None:
            raise CommError("no active phase; wrap work in world.phase(...)")
        return self._phase

    def charge(self, rank: int, units: float) -> None:
        """Charge ``units`` of work to ``rank`` in the current phase."""
        self._check_rank(rank)
        acc = self._acc()
        acc.charges[rank] = acc.charges.get(rank, 0.0) + units

    def charge_serial(self, units: float) -> None:
        """Charge single-rank (Amdahl) work: others idle while it runs."""
        self._acc().serial += units

    def count_messages(self, n: int) -> None:
        """Record ``n`` latency-bound point-to-point messages."""
        self._acc().n_messages += n

    def record_memory(self, rank: int, n_bytes: int) -> None:
        """Record the current memory footprint of ``rank``."""
        self._check_rank(rank)
        self._peak_memory = max(self._peak_memory, int(n_bytes))

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommError(f"rank {rank} out of range [0, {self.size})")

    def collective(self, off_node_bytes: int = 0) -> None:
        """Book one collective moving ``off_node_bytes`` between ranks
        (0: a synchronization-only barrier)."""
        acc = self._acc()
        acc.n_collectives += 1
        acc.comm_bytes += off_node_bytes
