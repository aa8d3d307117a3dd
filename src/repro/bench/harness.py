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
from repro.assembly.registry import get_assembler
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


@functools.lru_cache(maxsize=None)
def bench_dataset(name: str, fraction: float = 1.0) -> Dataset:
    """The benchmark-scale analog data set, optionally with only a
    fraction of the reads (Fig. 4's 'partial data set')."""
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
        if assembler == "contrail":
            # The paper had to feed Contrail pre-processed data to avoid
            # the N-failure; mirror that but keep raw sizing semantics.
            reads = [r for r in reads if "N" not in r.seq]
        store = ReadStore.from_reads(reads)
    params = AssemblyParams(k=k, min_contig_length=max(100, k))
    kwargs = {}
    if assembler in ("ray", "abyss", "contrail"):
        kwargs = {"n_ranks": n_ranks}
    return get_assembler(assembler).assemble(store, params, **kwargs)


@functools.lru_cache(maxsize=None)
def annotation_reference(name: str, cds_fraction: float = 0.75):
    """CDS-like ground truth, mirroring the paper's Table V caveat.

    The paper scores against predicted *protein gene* sequences, "not the
    entire mRNA transcripts" — so true UTR sequence assembled by any tool
    counts against precision.  The analog keeps the central
    ``cds_fraction`` of every expressed transcript as the reference.
    """
    from repro.seq.transcriptome import Transcript, Transcriptome

    ds = bench_dataset(name)
    trimmed = []
    for t in ds.transcriptome.transcripts:
        margin = int(len(t) * (1 - cds_fraction) / 2)
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


# -- output formatting ---------------------------------------------------------


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    """Fixed-width table matching the style of the paper's tables."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [f"== {title} =="]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_figure(
    title: str,
    x_label: str,
    series: dict[str, list[tuple[float, float]]],
) -> str:
    """Numeric rendering of a figure: one row per x, one column per series."""
    xs = sorted({x for pts in series.values() for x, _ in pts})
    headers = [x_label] + list(series.keys())
    rows = []
    lookup = {
        name: {x: y for x, y in pts} for name, pts in series.items()
    }
    for x in xs:
        row = [x]
        for name in series:
            y = lookup[name].get(x)
            row.append("-" if y is None else f"{y:.0f}")
        rows.append(row)
    return format_table(title, headers, rows)
