"""Shared machinery for the paper-reproduction benchmarks.

Data sets, assemblies and calibrations are expensive relative to a bench
iteration, so everything here is memoized per process: the benchmarks in
``benchmarks/`` call :func:`bench_dataset` and :func:`run_assembly` and
get cached objects after the first use.
"""

from __future__ import annotations

import functools

from repro.assembly.base import AssemblyParams
from repro.assembly.contigs import AssemblyResult
from repro.assembly.registry import ASSEMBLERS, run_assembler
from repro.cloud.instances import get_instance_type
from repro.core.preprocess import PreprocessResult, preprocess
from repro.core.scaling import paper_usage
from repro.parallel.costmodel import CostModel, MachineConfig
from repro.seq.datasets import B_GLUMAE, P_CRISPA, Dataset, generate_dataset
from repro.seq.readstore import ReadStore

#: Simulation parameters (scale, coverage_boost) per data set — chosen so
#: each bench assembly runs in seconds while transcriptome size and
#: coverage stay in a sane regime; the exact ``Dataset.read_scale`` makes
#: paper-scale extrapolation independent of these knobs.  Documented in
#: EXPERIMENTS.md.
BENCH_PARAMS = {"B_glumae": (0.004, 1.0), "P_crispa": (0.0015, 0.1)}

#: Central share of each transcript kept as :func:`annotation_reference`.
CDS_FRACTION = 0.75


def bench_dataset(name: str, fraction: float = 1.0) -> Dataset:
    """The benchmark-scale analog data set, optionally with only a
    fraction of the reads (Fig. 4's 'partial data set'): generated once
    per (name, fraction), however a caller spells the fraction."""
    return _bench_dataset(name, float(fraction))


@functools.lru_cache(maxsize=None)
def _bench_dataset(name: str, fraction: float) -> Dataset:
    spec = {"B_glumae": B_GLUMAE, "P_crispa": P_CRISPA}[name]
    scale, boost = BENCH_PARAMS[name]
    return generate_dataset(
        spec, scale=scale, seed=7, coverage_boost=boost * fraction
    )


@functools.lru_cache(maxsize=None)
def bench_preprocessed(name: str) -> PreprocessResult:
    ds = bench_dataset(name)
    return preprocess(ds.run.all_reads())


@functools.lru_cache(maxsize=None)
def run_assembly(
    dataset_name: str,
    assembler: str,
    k: int,
    n_ranks: int,
    preprocessed: bool = False,
    fraction: float = 1.0,
) -> AssemblyResult:
    """Execute one real assembly at bench scale (memoized)."""
    if preprocessed:
        store = bench_preprocessed(dataset_name).store
    else:
        reads = bench_dataset(dataset_name, fraction).run.all_reads()
        if ASSEMBLERS[assembler].rejects_n:
            # The paper had to feed Contrail pre-processed data to avoid
            # the N-failure; mirror that but keep raw sizing semantics.
            reads = [r for r in reads if "N" not in r.seq]
        store = ReadStore.from_reads(reads)
    params = AssemblyParams(k=k, min_contig_length=max(100, k))
    return run_assembler(assembler, store, params, n_ranks)


@functools.lru_cache(maxsize=None)
def annotation_reference(name: str):
    """CDS-like ground truth, mirroring the paper's Table V caveat.

    The paper scores against predicted *protein gene* sequences, "not the
    entire mRNA transcripts" — so true UTR sequence assembled by any tool
    counts against precision.  The analog keeps the central
    ``CDS_FRACTION`` of every expressed transcript as the reference.
    """
    from repro.seq.transcriptome import Transcript, Transcriptome

    ds = bench_dataset(name)
    trimmed = []
    for t in ds.transcriptome.transcripts:
        margin = int(len(t) * (1 - CDS_FRACTION) / 2)
        codes = t.codes[margin : len(t) - margin]
        if codes.shape[0] >= 60:
            trimmed.append(
                Transcript(
                    transcript_id=t.transcript_id + "_cds",
                    codes=codes,
                    abundance=t.abundance,
                )
            )
    return Transcriptome(name=f"{name}_annotation", transcripts=trimmed)


def machine_for(instance_type: str, n_nodes: int) -> MachineConfig:
    itype = get_instance_type(instance_type)
    return MachineConfig(
        n_nodes=n_nodes,
        cores_per_node=itype.vcpus,
        compute_factor=itype.compute_factor,
        network_bandwidth=itype.network_bandwidth,
    )


def price_assembly(
    cost_model: CostModel,
    result: AssemblyResult,
    dataset: Dataset,
    instance_type: str,
    n_nodes: int,
) -> float:
    """Paper-scale TTC of a measured assembly on the given fleet."""
    usage = paper_usage(result.usage, dataset)
    return cost_model.task_seconds(usage, machine_for(instance_type, n_nodes))

