"""Distributed MPI-style assembler (ABySS analog).

ABySS (Simpson et al. 2009) distributes the k-mer hash table like Ray but
extends unitigs with bulk synchronized rounds instead of per-step probe
messages, then ships every unitig to the master for the final
overlap/merge and output stage.  Consequences the paper measures:

* lower constant factors than Ray — fewer, larger messages (Table III:
  882 s vs Ray's 1,721 s at two nodes), but
* the serial master stage is a fixed Amdahl term, so adding nodes shows
  "no significant gain" (Fig. 3).

The implementation mirrors that: distributed count + local-shard walking
charged per rank, then a ``gather`` of all unitigs to rank 0 (booked from
their code bytes) and a serial master-side cleanup/merge charged via
``charge_serial``.
"""

from __future__ import annotations

from repro.assembly.base import AssemblyParams, finish_assembly
from repro.assembly.contigs import AssemblyResult
from repro.assembly.ray import book_walks, partition_spectrum
from repro.assembly.sweep import resolve_spectrum
from repro.parallel.comm import SimWorld
from repro.seq.readstore import ReadStore


class AbyssAssembler:
    """MPI-style distributed DBG assembler with a serial master merge."""

    name = "abyss"

    def assemble(
        self,
        store: ReadStore,
        params: AssemblyParams,
        n_ranks: int = 8,
        spectrum=None,
    ) -> AssemblyResult:
        spectrum = resolve_spectrum(store, params.k, spectrum)
        world = SimWorld(n_ranks)

        part = partition_spectrum(world, spectrum, params.min_count)

        # Bulk-synchronous unitig walking: ranks walk their own seeds in
        # rounds; unlike Ray there is no per-step probe message, the round
        # structure shows up as collectives instead.
        with world.phase("unitig_rounds", kind="walk"):
            # ABySS also probes remote k-mers while extending, but
            # aggregates them per round (~2 effective messages per step
            # vs Ray's 8 fine-grained probes).
            book_walks(world, part, probes_per_step=2)
            # A handful of synchronization rounds, independent of data size.
            for _ in range(8):
                world.collective()

        # Master gathers all unitigs, then cleans and merges serially —
        # the Amdahl term that flattens ABySS's scale-out curve.
        with world.phase("master_merge", kind="walk"):
            # Every non-root rank ships its unitigs' codes as one list:
            # the code bytes plus a 16-byte list header.
            world.collective(
                sum(
                    sum(u.codes.nbytes for u in shipped) + 16
                    for shipped, _ in part.walks[1:]
                )
            )
            cleaned_bp = sum(len(seq) for seq, _ in part.contigs)
            world.charge_serial(float(part.cleanup.work + cleaned_bp))

        return finish_assembly(
            self.name, params, part.contigs, part.cleanup, world.usage,
            n_ranks=world.size, distinct_kmers=len(part.table),
        )
