"""Serial de Bruijn graph assembler (Velvet analog).

Velvet is the canonical single-node DBG assembler Rnnotator uses for small
data sets; in the paper it is exactly the class of tool that *fails* once
the data outgrows a single node's memory — the motivation for the MPI and
MapReduce assemblers.  This implementation is also the functional reference
the distributed assemblers are tested against.
"""

from __future__ import annotations

from repro.assembly.base import AssemblyParams, assemble_on_one_node, finish_assembly
from repro.assembly.contigs import AssemblyResult
from repro.assembly.sweep import resolve_spectrum
from repro.seq.readstore import ReadStore


class VelvetAssembler:
    """Single-node multi-threaded DBG assembler."""

    name = "velvet"

    def assemble(
        self, store: ReadStore, params: AssemblyParams, spectrum=None
    ) -> AssemblyResult:
        # The spectrum already holds the stream length and the solid
        # k-mer table (shared with the fan-out's other jobs at this k).
        spectrum = resolve_spectrum(store, params.k, spectrum)
        table = spectrum.table(params.min_count)
        ordered, cstats, usage = assemble_on_one_node(
            table, spectrum.n_occurrences, "unitig_walk", params.min_contig_length
        )
        return finish_assembly(
            self.name, params, ordered, cstats, usage, distinct_kmers=len(table)
        )
