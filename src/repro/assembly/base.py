"""Shared assembler plumbing: parameters, the single-node bookings and
the one finishing path every assembler ends on."""

from __future__ import annotations

from dataclasses import dataclass

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


def unitigs_to_contigs(
    unitigs: list[Unitig],
    params: AssemblyParams,
    assembler: str,
) -> list[Contig]:
    """Filter unitigs by length and materialize Contig records.

    Sequences are emitted in canonical strand orientation (lexicographic
    minimum of the two strands) so output is independent of the seed
    order the walk happened to use — serial and distributed assemblies of
    the same spectrum produce byte-identical contigs.
    """
    # Unitig codes are N-free, so code bytes order exactly like letters.
    oriented = [
        (min(u.codes.tobytes(), reverse_complement(u.codes).tobytes()), u)
        for u in unitigs
        if len(u) >= params.min_contig_length
    ]
    oriented.sort(key=lambda pair: (-len(pair[0]), pair[0]))
    return [
        Contig(
            contig_id=f"{assembler}_k{params.k}_c{i:06d}",
            seq=decode(np.frombuffer(codes, dtype=np.uint8)),
            coverage=u.coverage,
            k=params.k,
            assembler=assembler,
        )
        for i, (codes, u) in enumerate(oriented)
    ]


def finish_assembly(
    assembler: str,
    params: AssemblyParams,
    unitigs: list[Unitig],
    cleanup: CleanupStats,
    usage: ResourceUsage,
    distinct_kmers: int,
    **extra,
) -> AssemblyResult:
    """The cleaned ``unitigs`` as ``assembler``'s result: the contigs and
    the stats every assembler reports, after its own ``extra`` ones."""
    contigs = unitigs_to_contigs(unitigs, params, assembler)
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
    table: KmerTable, n_kmer_stream: int, walk_phase: str
) -> tuple[list[Unitig], CleanupStats, ResourceUsage]:
    """A single-node assembler's graph half, booked on one rank: the
    k-mer stream counted on ``N_THREADS`` threads, the graph built from
    ``table`` (the node's peak memory), then its unitigs walked and
    cleaned in the phase named ``walk_phase``."""
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
    return unitigs, cstats, usage
