"""Serial de Bruijn graph assembler (Velvet analog).

Velvet is the canonical single-node DBG assembler Rnnotator uses for small
data sets; in the paper it is exactly the class of tool that *fails* once
the data outgrows a single node's memory — the motivation for the MPI and
MapReduce assemblers.  This implementation is also the functional reference
the distributed assemblers are tested against.
"""

from __future__ import annotations

from repro.assembly.base import AssemblyParams, unitigs_to_contigs
from repro.assembly.cleanup import clean_unitigs
from repro.assembly.contigs import AssemblyResult, assembly_stats
from repro.assembly.dbg import extract_unitigs
from repro.assembly.sweep import resolve_spectrum
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.seq.readstore import ReadStore


class VelvetAssembler:
    """Single-node multi-threaded DBG assembler."""

    name = "velvet"

    def assemble(
        self,
        store: ReadStore,
        params: AssemblyParams,
        n_threads: int = 8,
        spectrum=None,
    ) -> AssemblyResult:
        # The spectrum already holds the stream length and the solid
        # k-mer table (shared with the fan-out's other jobs at this k).
        spectrum = resolve_spectrum(store, params.k, spectrum)
        n_kmer_stream = spectrum.n_occurrences
        table = spectrum.table(params.min_count)

        usage = ResourceUsage(n_ranks=1)
        usage.add_phase(
            PhaseUsage(
                name="kmer_count",
                kind="kmer",
                # k-mer counting multi-threads well on one node.
                critical_compute=n_kmer_stream / max(n_threads, 1),
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
        unitigs, cstats = clean_unitigs(
            unitigs, params.k, clip=params.clip_tips, pop=params.pop_bubbles
        )
        usage.add_phase(
            PhaseUsage(
                name="unitig_walk",
                kind="walk",
                critical_compute=float(steps + cstats.work),
                total_compute=float(steps + cstats.work),
            )
        )

        contigs = unitigs_to_contigs(unitigs, params, self.name)
        return AssemblyResult(
            assembler=self.name,
            k=params.k,
            contigs=contigs,
            usage=usage,
            stats={
                "distinct_kmers": len(table),
                "tips_removed": cstats.tips_removed,
                "bubbles_popped": cstats.bubbles_popped,
                **assembly_stats(contigs),
            },
        )
