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
charged per rank, then a ``gather`` of all unitigs and a serial
master-side cleanup/merge charged via ``charge_serial``.
"""

from __future__ import annotations

from repro.assembly.base import AssemblyParams, unitigs_to_contigs
from repro.assembly.cleanup import clean_unitigs
from repro.assembly.contigs import AssemblyResult, assembly_stats
from repro.assembly.dbg import extract_unitigs_by_owner
from repro.assembly.ray import partition_spectrum
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
        p = world.size
        k = params.k

        table, owners = partition_spectrum(world, spectrum, params.min_count)

        # Bulk-synchronous unitig walking: ranks walk their own seeds in
        # rounds; unlike Ray there is no per-step probe message, the round
        # structure shows up as collectives instead.
        with world.phase("unitig_rounds", kind="walk"):
            all_unitigs = []
            per_rank_unitigs: list[list] = []
            total_probes = 0
            walks = extract_unitigs_by_owner(table, owners, p)
            for r, (unitigs, steps) in enumerate(walks):
                all_unitigs.extend(unitigs)
                per_rank_unitigs.append(unitigs)
                world.charge(r, float(steps))
                # ABySS also probes remote k-mers while extending, but
                # aggregates them per round (~2 effective messages per
                # step vs Ray's 8 fine-grained probes).
                total_probes += int(steps * 2 * (p - 1) / p)
            world.count_messages(total_probes)
            # A handful of synchronization rounds, independent of data size.
            for _ in range(8):
                world.barrier()

        # Master gathers all unitigs, then cleans and merges serially —
        # the Amdahl term that flattens ABySS's scale-out curve.
        with world.phase("master_merge", kind="walk"):
            payloads = [
                [u.codes for u in unitigs] for unitigs in per_rank_unitigs
            ]
            world.gather(payloads, root=0)
            all_unitigs, cstats = clean_unitigs(
                all_unitigs, k, clip=params.clip_tips, pop=params.pop_bubbles
            )
            serial_work = cstats.work + sum(len(u) for u in all_unitigs)
            world.charge_serial(float(serial_work))

        contigs = unitigs_to_contigs(all_unitigs, params, self.name)
        return AssemblyResult(
            assembler=self.name,
            k=k,
            contigs=contigs,
            usage=world.usage,
            stats={
                "n_ranks": p,
                "distinct_kmers": len(table),
                "tips_removed": cstats.tips_removed,
                "bubbles_popped": cstats.bubbles_popped,
                **assembly_stats(contigs),
            },
        )
