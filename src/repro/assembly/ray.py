"""Distributed MPI-style assembler (Ray analog).

Ray (Boisvert et al. 2010) hash-partitions canonical k-mers over MPI ranks
and grows contigs through message-driven extension: a rank walking a seed
sends a membership query for every candidate extension to the k-mer's
owner.  Two properties matter for the paper's benchmarks:

* aggregate memory scales with ranks (any data set fits if you add nodes),
* extension is *latency-bound* — every remote candidate probe is a small
  message — so compute scale-out gains are marginal (Fig. 3/4).

Here, the k-mer exchange is an ``alltoall`` whose per-pair payload sizes,
and the rows every rank holds and keeps, are counted off the job's
:class:`~repro.assembly.sweep.KmerSpectrum` and its owner column
(:func:`partition_spectrum`): no rank's shard is built.  The walking
phase charges work to the rank owning each seed while counting one remote
probe message per off-shard candidate query, reproducing both properties
from measured quantities.  Communication is charged at the *logical*
k-byte record size the cost model was calibrated to, not the 16-byte
packed wire size, so virtual TTCs match the bytes-era pipeline bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.base import AssemblyParams, unitigs_to_contigs
from repro.assembly.cleanup import clean_unitigs
from repro.assembly.contigs import AssemblyResult, assembly_stats
from repro.assembly.dbg import (
    KMER_RECORD_BYTES,
    KmerTable,
    build_kmer_table_packed,
    extract_unitigs_by_owner,
)
from repro.assembly.sweep import KmerSpectrum, resolve_spectrum
from repro.parallel.comm import SimWorld
from repro.seq.readstore import ReadStore


def partition_spectrum(
    world: SimWorld, spectrum: KmerSpectrum, min_count: int
) -> tuple[KmerTable, np.ndarray]:
    """Shared first half of the MPI assemblers: the coverage-filtered
    k-mer table and the owner rank of each of its rows.

    Models reads striped over ranks (read ``i`` on rank ``i % p``), local
    k-mer extraction, an ``alltoall`` of every k-mer to its hash owner, a
    per-shard count and a per-shard coverage threshold — booked, not
    executed: extraction charges are the stripe occupancy, the alltoall
    byte matrix the (stripe, owner) occurrence histogram, the rows a rank
    holds and keeps ``bincount``s of the owner column, and the table the
    spectrum's own sorted rows at ``counts >= min_count``.  The oracle
    ``tests/assembly/kmer_reference.py`` executes the exchange;
    ``tests/assembly/test_parity.py`` holds the full usage record and
    every contig equal to it.
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
    keep = spectrum.counts >= min_count
    kept_owners = owners[keep]
    held = np.bincount(owners, minlength=p)
    kept = np.bincount(kept_owners, minlength=p)

    with world.phase("kmer_extract", kind="kmer"):
        for r in world.ranks():
            world.charge(r, float(matrix[r].sum()))
        # Rows would travel packed (16 B) but are charged at their
        # logical k-byte record size — the quantity the cost model prices.
        world.alltoall(matrix.tolist(), nbytes_of=lambda c: c * k)

    with world.phase("kmer_count", kind="kmer"):
        for r in world.ranks():
            world.charge(r, float(matrix[:, r].sum()))
            world.record_memory(r, int(held[r]) * KMER_RECORD_BYTES)

    # Coverage threshold is applied locally on each shard.
    with world.phase("graph_build", kind="graph"):
        for r in world.ranks():
            world.charge(r, float(held[r]))
            world.record_memory(r, int(kept[r]) * KMER_RECORD_BYTES)

    table = build_kmer_table_packed(
        k, spectrum.distinct[keep], spectrum.counts[keep], presorted=True
    )
    return table, kept_owners


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

        table, owners = partition_spectrum(world, spectrum, params.min_count)

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
