"""Distributed MPI-style assembler (Ray analog).

Ray (Boisvert et al. 2010) hash-partitions canonical k-mers over MPI ranks
and grows contigs through message-driven extension: a rank walking a seed
sends a membership query for every candidate extension to the k-mer's
owner.  Two properties matter for the paper's benchmarks:

* aggregate memory scales with ranks (any data set fits if you add nodes),
* extension is *latency-bound* — every remote candidate probe is a small
  message — so compute scale-out gains are marginal (Fig. 3/4).

Here, the k-mer exchange is an ``alltoall`` whose per-pair payload sizes
come from the job's counted :class:`~repro.assembly.sweep.KmerSpectrum`,
each rank's shard is the owner partition of that spectrum in a
sorted-array :class:`KmerTable`, and the walking phase charges work to the
rank owning each seed while counting one remote probe message per
off-shard candidate query, reproducing both properties from measured
quantities.  Communication is charged at the *logical* k-byte record size
the cost model was calibrated to, not the 16-byte packed wire size, so
virtual TTCs match the bytes-era pipeline bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.base import AssemblyParams, unitigs_to_contigs
from repro.assembly.cleanup import clean_unitigs
from repro.assembly.contigs import AssemblyResult, assembly_stats
from repro.assembly.dbg import KmerTable, build_kmer_table_packed
from repro.assembly.dbg import extract_unitigs_by_owner
from repro.assembly.sweep import KmerSpectrum, resolve_spectrum
from repro.parallel.comm import SimWorld
from repro.seq.readstore import ReadStore


def distribute_and_count(
    world: SimWorld, spectrum: KmerSpectrum
) -> list[KmerTable]:
    """Shared first half of the MPI assemblers: the per-rank shard tables.

    Models reads striped over ranks (read ``i`` on rank ``i % p``), local
    k-mer extraction, an ``alltoall`` of every k-mer to its hash owner
    and a per-shard count.  The :class:`~repro.assembly.sweep.KmerSpectrum`
    already holds the full occurrence stream and the sorted distinct
    rows, so no rank re-extracts or re-sorts anything: per-rank
    extraction charges come from the stripe occupancy, the alltoall byte
    matrix from the (stripe, owner) occurrence histogram, and each
    rank's shard from the owner partition of the pre-sorted distinct
    rows — the stream lengths, per-pair payload sizes and shard tables
    an executed exchange produces (``reference_impl`` is that exchange;
    ``tests/assembly/test_parity.py`` holds the two equal).
    """
    p = world.size
    k = spectrum.k
    owners = spectrum.owners(p)
    occ_rank = spectrum.occ_read() % p
    occ_owner = owners[spectrum.inverse]
    # (src rank, owner rank) occurrence histogram == the alltoall row
    # counts of the executed exchange.
    matrix = np.bincount(occ_rank * p + occ_owner, minlength=p * p).reshape(
        p, p
    )

    with world.phase("kmer_extract", kind="kmer"):
        for r in world.ranks():
            world.charge(r, float(matrix[r].sum()))
        send = [[int(matrix[r, dst]) for dst in range(p)] for r in range(p)]
        # Rows would travel packed (16 B) but are charged at their
        # logical k-byte record size — the quantity the cost model prices.
        world.alltoall(send, nbytes_of=lambda c: int(c) * k)

    with world.phase("kmer_count", kind="kmer"):
        shards: list[KmerTable] = []
        for r in world.ranks():
            world.charge(r, float(matrix[:, r].sum()))
            mine = owners == r
            shard = build_kmer_table_packed(
                k,
                spectrum.distinct[mine],
                spectrum.counts[mine],
                presorted=True,
            )
            shards.append(shard)
            world.record_memory(r, shard.memory_bytes())
    return shards


def merge_shards(
    k: int, shards: list[KmerTable]
) -> tuple[KmerTable, np.ndarray]:
    """Union of disjoint per-rank shard tables, and the owner rank of
    each of its rows (a local-execution convenience; work and messages
    stay attributed per owner rank)."""
    rows = np.concatenate([s.packed for s in shards], axis=0)
    counts = np.concatenate([s.count_array for s in shards])
    owners = np.repeat(np.arange(len(shards)), [len(s) for s in shards])
    # The shards are sorted runs: a stable sort only has to merge them.
    order = np.argsort(np.concatenate([s.key_array for s in shards]), kind="stable")
    table = build_kmer_table_packed(k, rows[order], counts[order], presorted=True)
    return table, owners[order]


class RayAssembler:
    """MPI-style distributed DBG assembler with message-driven extension."""

    name = "ray"

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

        shards = distribute_and_count(world, spectrum)

        # Coverage threshold is applied locally on each shard.
        with world.phase("graph_build", kind="graph"):
            for r in world.ranks():
                shard = shards[r]
                removed = shard.drop_below(params.min_count)
                world.charge(r, float(len(shard) + removed))
                world.record_memory(r, shard.memory_bytes())

        table, owners = merge_shards(k, shards)

        with world.phase("extension_walk", kind="walk"):
            all_unitigs = []
            total_probes = 0
            walks = extract_unitigs_by_owner(table, owners, p)
            for r, (unitigs, steps) in enumerate(walks):
                all_unitigs.extend(unitigs)
                world.charge(r, float(steps))
                # Each extension step probes ~4 candidate successors and
                # ~4 predecessors; a candidate is remote w.p. (p-1)/p.
                total_probes += int(steps * 8 * (p - 1) / p)
            world.count_messages(total_probes)

        with world.phase("cleanup", kind="walk"):
            all_unitigs, cstats = clean_unitigs(
                all_unitigs, k, clip=params.clip_tips, pop=params.pop_bubbles
            )
            # Cleanup runs on the condensed graph, replicated cheaply.
            for r in world.ranks():
                world.charge(r, float(cstats.work) / p)

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
