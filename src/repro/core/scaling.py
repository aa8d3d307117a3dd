"""Paper-scale extrapolation of measured usage.

Work measured at simulation scale extrapolates differently by phase:

* **read-bound** phases (k-mer extraction/counting, QC, quantification,
  the MapReduce ``kmer_count`` job) grow linearly with the number of
  reads — scaled by ``1 / dataset.read_scale``;
* **graph-bound** phases (unitig walking, graph simplification,
  Contrail's pair/merge compression rounds, master merges) grow with the
  de Bruijn graph, which saturates toward the transcriptome's k-mer
  content — scaled by ``1 / dataset.scale`` (the genome scale factor).

Naive read-linear scaling would overstate walk/probe work by the
coverage ratio; this split keeps both Table III calibration and the
P. crispa predictions in the physical regime.  Memory extrapolates with
the graph factor when a graph-bound phase exists (the k-mer table is the
largest resident structure) and the read factor otherwise.
"""

from __future__ import annotations

from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.seq.datasets import Dataset

READ_BOUND_KINDS = frozenset({"kmer", "preprocess", "quantify", "io", "generic"})
GRAPH_BOUND_KINDS = frozenset({"graph", "walk", "merge"})


def phase_is_graph_bound(phase: PhaseUsage) -> bool:
    if phase.kind in GRAPH_BOUND_KINDS:
        return True
    if phase.kind == "mr_job":
        # Contrail: the initial counting job is read-bound; the
        # compression rounds operate on graph-node records.
        return not phase.name.startswith("kmer")
    return False


def paper_usage_from_scales(
    usage: ResourceUsage, read_scale: float, graph_scale: float
) -> ResourceUsage:
    """Extrapolate a usage record given the two scale ratios directly.

    ``read_scale`` and ``graph_scale`` are the simulated/paper ratios
    (``Dataset.read_scale`` and ``Dataset.scale``).  Split out from
    :func:`paper_usage` so picklable workloads can carry two floats to a
    process-pool worker instead of the whole data set.
    """
    read_factor = 1.0 / read_scale
    graph_factor = 1.0 / graph_scale
    graph_bound = [phase_is_graph_bound(p) for p in usage.phases]
    return usage.scaled_by(
        [graph_factor if g else read_factor for g in graph_bound],
        memory_factor=graph_factor if any(graph_bound) else read_factor,
    )


def paper_usage(usage: ResourceUsage, dataset: Dataset) -> ResourceUsage:
    """Extrapolate a simulation-scale usage record to paper scale."""
    return paper_usage_from_scales(usage, dataset.read_scale, dataset.scale)
