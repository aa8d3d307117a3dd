"""Distributed MPI-style assembler (Ray analog).

Ray (Boisvert et al. 2010) hash-partitions canonical k-mers over MPI ranks
and grows contigs through message-driven extension: a rank walking a seed
sends a membership query for every candidate extension to the k-mer's
owner.  Two properties matter for the paper's benchmarks:

* aggregate memory scales with ranks (any data set fits if you add nodes),
* extension is *latency-bound* — every remote candidate probe is a small
  message — so compute scale-out gains are marginal (Fig. 3/4).

Here, the k-mer exchange is an ``alltoall`` whose off-node bytes, and the
rows every rank holds and keeps, are counted off the job's
:class:`~repro.assembly.sweep.KmerSpectrum` and its owner column
(:func:`partition_spectrum`): no rank's shard is built.  The walking
phase charges work to the rank owning each seed while counting one remote
probe message per off-shard candidate query, reproducing both properties
from measured quantities.  Communication is charged at the *logical*
k-byte record size the cost model was calibrated to, not the 16-byte
packed wire size, so virtual TTCs match the bytes-era pipeline bit-for-bit.
"""

from __future__ import annotations

from repro.assembly.base import AssemblyParams, finish_assembly
from repro.assembly.contigs import AssemblyResult
from repro.assembly.dbg import KMER_RECORD_BYTES
from repro.assembly.sweep import KmerSpectrum, SpectrumPartition, resolve_spectrum
from repro.parallel.comm import SimWorld
from repro.seq.readstore import ReadStore


def partition_spectrum(
    world: SimWorld, spectrum: KmerSpectrum, min_count: int
) -> SpectrumPartition:
    """Shared first half of the MPI assemblers: the spectrum's
    read-only, maybe shared, :meth:`~repro.assembly.sweep.KmerSpectrum.partition`
    (filtered table, its owner column, each rank's unitigs), booked on ``world``.

    Models reads striped over ranks (read ``i`` on rank ``i % p``), local
    k-mer extraction, an ``alltoall`` of every k-mer to its hash owner, a
    per-shard count and a per-shard coverage threshold — booked, not
    executed: extraction charges are the stripe occupancy, the alltoall
    ``k`` bytes per occurrence off the diagonal of the (stripe, owner)
    occurrence histogram, the rows a rank holds and keeps ``bincount``s of
    the owner column, and the table the spectrum's own sorted rows at
    ``counts >= min_count``.  The oracle ``tests/assembly/kmer_reference.py``
    executes the exchange; ``tests/assembly/test_parity.py`` holds the full
    usage record and every contig equal to it.
    """
    part = spectrum.partition(world.size, min_count)
    k = spectrum.k
    matrix, held, kept = part.matrix, part.held, part.kept

    with world.phase("kmer_extract", kind="kmer"):
        for r in world.ranks():
            world.charge(r, float(matrix[r].sum()))
        # The alltoall: every off-diagonal occurrence, charged at its
        # logical k-byte record size (the quantity the cost model prices),
        # not the 16-byte packed row it would travel as.
        world.collective(int(matrix.sum() - matrix.trace()) * k)

    with world.phase("kmer_count", kind="kmer"):
        for r in world.ranks():
            world.charge(r, float(matrix[:, r].sum()))
            world.record_memory(r, int(held[r]) * KMER_RECORD_BYTES)

    # Coverage threshold is applied locally on each shard.
    with world.phase("graph_build", kind="graph"):
        for r in world.ranks():
            world.charge(r, float(held[r]))
            world.record_memory(r, int(kept[r]) * KMER_RECORD_BYTES)
    return part


def book_walks(world: SimWorld, part: SpectrumPartition, probes_per_step: int) -> None:
    """Each rank charged for walking its own seeds and
    ``probes_per_step`` probe messages counted per step, a candidate
    being remote w.p. (p-1)/p.  Runs inside the caller's walk phase."""
    p = world.size
    total_probes = 0
    for r, (_, steps) in enumerate(part.walks):
        world.charge(r, float(steps))
        total_probes += int(steps * probes_per_step * (p - 1) / p)
    world.count_messages(total_probes)


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

        part = partition_spectrum(world, spectrum, params.min_count)

        with world.phase("extension_walk", kind="walk"):
            # Each extension step probes ~4 candidate successors and ~4
            # predecessors.
            book_walks(world, part, probes_per_step=8)

        with world.phase("cleanup", kind="walk"):
            # Cleanup runs on the condensed graph, replicated cheaply.
            for r in world.ranks():
                world.charge(r, float(part.cleanup.work) / p)

        return finish_assembly(
            self.name, params, part.contigs, part.cleanup, world.usage,
            n_ranks=p, distinct_kmers=len(part.table),
        )
