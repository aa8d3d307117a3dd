"""Shared assembler plumbing: parameters, the single-node bookings and
the one finishing path every assembler ends on."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from operator import itemgetter

import numpy as np

from repro.assembly.cleanup import CleanupStats, clean_unitigs
from repro.assembly.contigs import AssemblyResult, Contig, assembly_stats
from repro.assembly.dbg import KmerTable, Unitig, extract_unitigs
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.seq.alphabet import decode, reverse_complement

#: Threads a single-node assembler (Velvet, Trinity) counts k-mers on.
N_THREADS = 8


@dataclass(frozen=True)
class AssemblyParams:
    """Parameters common to every assembler."""

    k: int
    min_count: int = 2          # coverage threshold for solid k-mers
    min_contig_length: int = 100

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.min_contig_length < self.k:
            raise ValueError("min_contig_length must be >= k")


#: Cleaned unitigs as ``(sequence, coverage)``, in :func:`contig_order`.
Ordered = tuple[tuple[str, float], ...]


def contig_order(unitigs: list[Unitig], min_length: int = 0) -> Ordered:
    """The unitigs at least ``min_length`` long, longest first, ties by
    sequence, each on its canonical strand (the lesser of the two), so the
    order ignores the walk's seed order and any longer minimum is a prefix."""
    unitigs = [u for u in unitigs if len(u.codes) >= min_length]
    if not unitigs:
        return ()
    # Unitig i is fwd[a:b] and its other strand rev[n - b:n - a]; codes
    # are N-free, so letters order exactly like codes.
    fwd = decode(np.concatenate([u.codes for u in unitigs]))
    rev, n = reverse_complement(fwd), len(fwd)
    ends = np.cumsum([len(u.codes) for u in unitigs]).tolist()
    seqs = [min(fwd[a:b], rev[n - b : n - a]) for a, b in zip([0] + ends, ends)]
    pairs = sorted(zip(seqs, [u.coverage for u in unitigs]), key=itemgetter(0))
    pairs.sort(key=lambda pair: len(pair[0]), reverse=True)  # stable
    return tuple(pairs)


def unitigs_to_contigs(
    ordered: Ordered, params: AssemblyParams, assembler: str
) -> list[Contig]:
    """The ``ordered`` prefix at least ``min_contig_length`` long as
    ``assembler``'s Contig records, numbered in that order."""
    kept = takewhile(lambda c: len(c[0]) >= params.min_contig_length, ordered)
    return [
        Contig(f"{assembler}_k{params.k}_c{i:06d}", seq, cov, params.k, assembler)
        for i, (seq, cov) in enumerate(kept)
    ]


def finish_assembly(
    assembler: str,
    params: AssemblyParams,
    ordered: Ordered,
    cleanup: CleanupStats,
    usage: ResourceUsage,
    distinct_kmers: int,
    **extra,
) -> AssemblyResult:
    """The cleaned unitigs as ``assembler``'s result: the contigs and
    the stats every assembler reports, after its own ``extra`` ones."""
    contigs = unitigs_to_contigs(ordered, params, assembler)
    return AssemblyResult(
        assembler=assembler,
        k=params.k,
        contigs=contigs,
        usage=usage,
        stats={
            **extra,
            "distinct_kmers": distinct_kmers,
            "tips_removed": cleanup.tips_removed,
            "bubbles_popped": cleanup.bubbles_popped,
            **assembly_stats(contigs),
        },
    )


def assemble_on_one_node(
    table: KmerTable, n_kmer_stream: int, walk_phase: str, min_length: int
) -> tuple[Ordered, CleanupStats, ResourceUsage]:
    """A single-node assembler's graph half, booked on one rank: the
    k-mer stream counted on ``N_THREADS`` threads, the graph built from
    ``table`` (the node's peak memory), then its unitigs walked and
    cleaned in the phase named ``walk_phase``; the cleaned unitigs at
    least ``min_length`` long come back in :func:`contig_order`."""
    usage = ResourceUsage(n_ranks=1)
    usage.add_phase(
        PhaseUsage(
            name="kmer_count",
            kind="kmer",
            critical_compute=n_kmer_stream / N_THREADS,
            total_compute=float(n_kmer_stream),
        )
    )
    usage.peak_rank_memory_bytes = table.memory_bytes()
    usage.add_phase(
        PhaseUsage(
            name="graph_build",
            kind="graph",
            critical_compute=float(len(table)),
            total_compute=float(len(table)),
        )
    )
    unitigs, steps = extract_unitigs(table)
    unitigs, cstats = clean_unitigs(unitigs, table.k)
    usage.add_phase(
        PhaseUsage(
            name=walk_phase,
            kind="walk",
            critical_compute=float(steps + cstats.work),
            total_compute=float(steps + cstats.work),
        )
    )
    return contig_order(unitigs, min_length), cstats, usage
