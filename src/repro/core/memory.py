"""Paper-scale task memory model — the arithmetic behind Table IV.

Estimates the single-node resident footprint of each pipeline task on the
*unscaled* (paper-size) data, using the paper's own anchors:

* pre-processing: ~1.5x the FASTQ volume (Table II: 3.8 GB -> "<= 15 GB";
  26.2 GB -> "~40 GB"), dominated by the deduplication hash;
* transcript assembly: ~1.2x the raw input volume for the k-mer table on
  one node (this is what makes "the P. crispa data set ... already too
  large to use c3.2xlarge" — §III.E);
* post-processing / quantification: proportional to the (much smaller)
  assembled contig volume.

Distributed assemblers divide the assembly footprint across nodes, which
is precisely the paper's motivation for them.
"""

from __future__ import annotations

from repro.seq.datasets import DatasetSpec

PREPROCESS_FACTOR = 1.5
ASSEMBLY_FACTOR = 1.2
POSTPROCESS_FACTOR = 0.3

TASKS = ("preprocess", "assembly", "postprocess")


def task_memory_bytes(
    spec: DatasetSpec, task: str, n_nodes: int = 1
) -> int:
    """Estimated per-node memory a task needs at paper scale."""
    if task == "preprocess":
        # Not distributed in the current pipeline (future work, §V).
        return int(spec.fastq_bytes * PREPROCESS_FACTOR)
    if task == "assembly":
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        return int(spec.fastq_bytes * ASSEMBLY_FACTOR / n_nodes)
    if task == "postprocess":
        return int(spec.preprocessed_bytes * POSTPROCESS_FACTOR)
    raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
