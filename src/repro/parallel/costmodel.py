"""Convert measured resource usage into virtual seconds.

Tasks execute for real at simulation scale and hand back a
:class:`~repro.parallel.usage.ResourceUsage`; the pipeline extrapolates it
to paper-scale data volumes and prices it here against a machine
configuration.  The model is deliberately simple and physical:

``T = Σ_phase [ critical/(rate·f) + serial/(rate·f) + comm·x/(B·n) +
C·λ·log2(p) + m·λ_msg ] + jobs·overhead``

where ``rate`` is the work-kind throughput of one core, ``f`` the
instance's per-core speed factor, ``x`` the off-node traffic fraction,
``B`` per-node network bandwidth, ``λ`` collective latency, ``λ_msg``
point-to-point message latency, and ``overhead`` the fixed MapReduce job
cost.  The throughput constants are *calibrated once* against the paper's
Table III anchors (see :mod:`repro.bench.calibration`); every other
number in the reproduction is then a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.parallel.usage import ResourceUsage

#: Default work-kind throughputs, units/second for one reference core.
#: Values are set by the calibration pass in ``repro.bench.calibration``
#: and anchored on Table III; see EXPERIMENTS.md.
DEFAULT_RATES: dict[str, float] = {
    "generic": 2.0e6,
    "kmer": 1.2e6,       # k-mer extraction/counting (units: k-mer records)
    "graph": 8.0e5,      # DBG node/edge operations
    "walk": 5.0e5,       # contig walking / extension steps
    "mr_job": 1.0e5,     # MapReduce record processing (JVM-handicapped)
    "preprocess": 3.0e6, # read QC operations (units: bases)
    "merge": 1.0e6,      # overlap merge operations
    "quantify": 2.0e6,   # pseudoalignment operations
    "io": 2.0e8,         # local/disk streaming, bytes/s
}


@dataclass(frozen=True)
class MachineConfig:
    """The resources a task runs on (one SGE job / pilot slice)."""

    n_nodes: int
    cores_per_node: int = 8
    compute_factor: float = 1.0       # per-core speed vs the reference core
    network_bandwidth: float = 125e6  # bytes/s per node (1 Gb/s-class)
    io_bandwidth: float = 2e8         # bytes/s aggregate streaming

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.cores_per_node < 1:
            raise ValueError("nodes and cores must be >= 1")
        if self.compute_factor <= 0 or self.network_bandwidth <= 0:
            raise ValueError("speed factors must be positive")

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.cores_per_node


@dataclass(frozen=True)
class CostModel:
    """Prices usage records on machines; see module docstring."""

    rates: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_RATES))
    mr_job_overhead: float = 65.0     # seconds per MapReduce job (Hadoop startup)
    collective_latency: float = 2e-3  # seconds per collective hop
    message_latency: float = 2e-6     # seconds per point-to-point MPI message

    def with_rates(self, **overrides: float) -> "CostModel":
        merged = dict(self.rates)
        merged.update(overrides)
        return replace(self, rates=merged)

    def rate(self, kind: str) -> float:
        try:
            return self.rates[kind]
        except KeyError:
            return self.rates["generic"]

    def task_seconds(self, usage: ResourceUsage, machine: MachineConfig) -> float:
        """Virtual execution time of ``usage`` on ``machine``.

        The usage record was measured with ``usage.n_ranks`` ranks; those
        ranks are assumed spread evenly over the machine's nodes, one per
        core when possible.
        """
        p = max(usage.n_ranks, 1)
        n = machine.n_nodes
        off_node_fraction = (n - 1) / n if n > 1 else 0.0

        total = 0.0
        for phase in usage.phases:
            core_rate = self.rate(phase.kind) * machine.compute_factor
            # If more ranks than cores, ranks time-share cores.
            oversub = max(1.0, p / machine.total_cores)
            total += phase.critical_compute * oversub / core_rate
            total += phase.serial_compute / core_rate
            if phase.comm_bytes:
                total += (
                    phase.comm_bytes * off_node_fraction
                    / (machine.network_bandwidth * n)
                )
            if phase.n_collectives:
                total += (
                    phase.n_collectives
                    * self.collective_latency
                    * max(1.0, math.log2(p))
                )
            if phase.n_messages:
                total += phase.n_messages * self.message_latency
            if phase.n_jobs:
                total += phase.n_jobs * self.mr_job_overhead
        return total

    def io_seconds(self, n_bytes: int, machine: MachineConfig) -> float:
        """Streaming time for reading/writing ``n_bytes``."""
        return n_bytes / (machine.io_bandwidth * machine.n_nodes)


def fits_in_memory(
    usage: ResourceUsage,
    node_memory_bytes: int,
    cores_per_node: int,
) -> bool:
    """Whether the most loaded rank's peers fit on one node.

    Ranks are packed one per core; a node therefore hosts up to
    ``cores_per_node`` ranks, and in the worst case each needs the peak
    rank footprint.
    """
    ranks_per_node = min(max(usage.n_ranks, 1), cores_per_node)
    return usage.peak_rank_memory_bytes * ranks_per_node <= node_memory_bytes
