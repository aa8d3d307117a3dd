"""The per-rank partition Ray and ABySS ran before ``partition_spectrum``.

Kept verbatim as the test oracle: eight ``KmerTable`` shards cut out of
the spectrum, thresholded one by one, and merged back by a sort.
``ray.partition_spectrum`` books the same usage from ``bincount``s and
returns the same table without building a shard;
``test_partition.py`` holds the two equal.
"""

from __future__ import annotations

import numpy as np

from repro.assembly import packed as packedmod
from repro.assembly.dbg import KmerTable
from repro.assembly.sweep import KmerSpectrum
from tests.parallel.exec_reference import ExecWorld


def distribute_and_count(
    world: ExecWorld, spectrum: KmerSpectrum
) -> list[KmerTable]:
    """The per-rank shard tables, booking ``kmer_extract`` and
    ``kmer_count`` (reads striped over ranks, an ``alltoall`` of every
    k-mer to its hash owner, a per-shard count)."""
    p = world.size
    k = spectrum.k
    owners = spectrum.owners(p)
    occ_rank = spectrum.occ_read() % p
    occ_owner = owners[spectrum.inverse]
    matrix = np.bincount(occ_rank * p + occ_owner, minlength=p * p).reshape(
        p, p
    )

    with world.phase("kmer_extract", kind="kmer"):
        for r in world.ranks():
            world.charge(r, float(matrix[r].sum()))
        send = [[int(matrix[r, dst]) for dst in range(p)] for r in range(p)]
        world.alltoall(send, nbytes_of=lambda c: int(c) * k)

    with world.phase("kmer_count", kind="kmer"):
        shards: list[KmerTable] = []
        for r in world.ranks():
            world.charge(r, float(matrix[:, r].sum()))
            mine = owners == r
            shard = KmerTable.from_packed(
                k, spectrum.distinct[mine], spectrum.counts[mine]
            )
            shards.append(shard)
            world.record_memory(r, shard.memory_bytes())
    return shards


def merge_shards(
    k: int, shards: list[KmerTable]
) -> tuple[KmerTable, np.ndarray]:
    """Union of disjoint per-rank shard tables, and the owner rank of
    each of its rows."""
    rows = np.concatenate([s.packed for s in shards], axis=0)
    counts = np.concatenate([s.count_array for s in shards])
    owners = np.repeat(np.arange(len(shards)), [len(s) for s in shards])
    order = np.argsort(packedmod.keys(rows, k), kind="stable")
    table = KmerTable.from_packed(k, rows[order], counts[order])
    return table, owners[order]


def reference_partition_spectrum(
    world: ExecWorld, spectrum: KmerSpectrum, min_count: int
) -> tuple[KmerTable, np.ndarray]:
    """What ``RayAssembler.assemble`` and ``AbyssAssembler.assemble``
    each did between ``resolve_spectrum`` and the unitig walk."""
    shards = distribute_and_count(world, spectrum)

    with world.phase("graph_build", kind="graph"):
        for r in world.ranks():
            shard = shards[r]
            removed = shard.drop_below(min_count)
            world.charge(r, float(len(shard) + removed))
            world.record_memory(r, shard.memory_bytes())

    return merge_shards(spectrum.k, shards)
