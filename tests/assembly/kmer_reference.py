"""Frozen bytes-dict k-mer engine — the pre-packed reference implementation.

This module preserves the original ``dict[bytes, int]`` k-mer table, the
one-probe-at-a-time unitig walker and the bytes-payload assembler drivers
exactly as they were before the packed-integer engine replaced them on
the hot paths.  It exists as the oracle of the **parity tests**
(``tests/assembly/test_parity.py``), which prove the packed engine
reproduces this implementation bit-for-bit — same contigs, same
per-phase work charges, same communication bytes and message counts.

Nothing here should be changed together with the live engine — that
would defeat the point of having a reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.assembly.base import AssemblyParams, unitigs_to_contigs
from repro.assembly.cleanup import clean_unitigs
from repro.assembly.contigs import AssemblyResult, assembly_stats
from repro.assembly.dbg import KMER_RECORD_BYTES, Unitig
from repro.assembly.kmers import (
    canonical,
    canonical_kmers,
    canonical_kmers_varlen,
    kmer_counts,
    kmer_owner,
    revcomp_kmer,
)
from repro.parallel.comm import SimWorld
from repro.parallel.mapreduce import MapReduceEngine, MRJob
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.seq import alphabet
from repro.seq.fastq import FastqRecord

_BASES = (0, 1, 2, 3)


@dataclass
class LegacyKmerTable:
    """Canonical k-mer -> coverage count, as a plain Python dict."""

    k: int
    counts: dict[bytes, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, oriented: bytes) -> bool:
        return canonical(oriented) in self.counts

    def coverage(self, oriented: bytes) -> int:
        return self.counts.get(canonical(oriented), 0)

    def drop_below(self, min_count: int) -> int:
        doomed = [k for k, c in self.counts.items() if c < min_count]
        for k in doomed:
            del self.counts[k]
        return len(doomed)

    def memory_bytes(self) -> int:
        return len(self.counts) * KMER_RECORD_BYTES

    def successors(self, oriented: bytes) -> list[bytes]:
        suffix = oriented[1:]
        out = []
        for b in _BASES:
            nxt = suffix + bytes([b])
            if canonical(nxt) in self.counts:
                out.append(nxt)
        return out

    def predecessors(self, oriented: bytes) -> list[bytes]:
        prefix = oriented[:-1]
        out = []
        for b in _BASES:
            prv = bytes([b]) + prefix
            if canonical(prv) in self.counts:
                out.append(prv)
        return out


def legacy_build_kmer_table(k: int, counts: dict[bytes, int]) -> LegacyKmerTable:
    """Wrap a counts dict (keys must already be canonical)."""
    return LegacyKmerTable(k=k, counts=dict(counts))


def _walk(
    table: LegacyKmerTable,
    start: bytes,
    visited: set[bytes],
) -> tuple[list[int], float, int]:
    """Walk right then left from ``start``; returns (codes, cov, steps)."""
    chain = list(start)
    cov_sum = table.coverage(start)
    n = 1
    visited.add(canonical(start))

    cur = start
    while True:
        nxts = table.successors(cur)
        if len(nxts) != 1:
            break
        nxt = nxts[0]
        if canonical(nxt) in visited:
            break  # loop or palindromic re-entry
        if len(table.predecessors(nxt)) != 1:
            break  # converging branch
        chain.append(nxt[-1])
        visited.add(canonical(nxt))
        cov_sum += table.coverage(nxt)
        n += 1
        cur = nxt

    cur = revcomp_kmer(start)
    left: list[int] = []
    while True:
        nxts = table.successors(cur)
        if len(nxts) != 1:
            break
        nxt = nxts[0]
        if canonical(nxt) in visited:
            break
        if len(table.predecessors(nxt)) != 1:
            break
        left.append(nxt[-1])
        visited.add(canonical(nxt))
        cov_sum += table.coverage(nxt)
        n += 1
        cur = nxt

    if left:
        prefix = revcomp_kmer(bytes(left))
        chain = list(prefix) + chain
    return chain, cov_sum / n, n


def legacy_extract_unitigs(
    table: LegacyKmerTable,
    seeds: Iterator[bytes] | None = None,
    visited: set[bytes] | None = None,
) -> tuple[list[Unitig], int]:
    """Extract all unitigs one probe at a time; (unitigs, total_steps)."""
    if visited is None:
        visited = set()
    if seeds is None:
        seeds = iter(sorted(table.counts.keys()))

    unitigs: list[Unitig] = []
    steps = 0
    for seed in seeds:
        if seed in visited or seed not in table.counts:
            continue
        chain, cov, n = _walk(table, seed, visited)
        steps += n
        unitigs.append(
            Unitig(codes=np.frombuffer(bytes(chain), dtype=np.uint8).copy(),
                   coverage=cov, n_kmers=n)
        )
    return unitigs, steps


# -- assembler drivers (bytes payloads, dict shards) --------------------------


def reference_distribute_and_count(
    world: SimWorld,
    reads: list[FastqRecord],
    k: int,
    kind_prefix: str = "",
) -> list[dict[bytes, int]]:
    """The original shared first half of the MPI assemblers."""
    p = world.size

    with world.phase(f"{kind_prefix}kmer_extract", kind="kmer"):
        send: list[list[np.ndarray]] = [[None] * p for _ in range(p)]
        for r in world.ranks():
            local_reads = reads[r::p]
            kmers = canonical_kmers_varlen([x.seq for x in local_reads], k)
            world.charge(r, float(kmers.shape[0]))
            owners = kmer_owner(kmers, p)
            for dst in range(p):
                send[r][dst] = kmers[owners == dst]
        recv = world.alltoall(send)

    with world.phase(f"{kind_prefix}kmer_count", kind="kmer"):
        shards: list[dict[bytes, int]] = []
        for r in world.ranks():
            mine = [m for m in recv[r] if m is not None and m.size]
            stacked = (
                np.concatenate(mine, axis=0)
                if mine
                else np.zeros((0, k), dtype=np.uint8)
            )
            world.charge(r, float(stacked.shape[0]))
            shard = kmer_counts(stacked)
            shards.append(shard)
            world.record_memory(r, len(shard) * KMER_RECORD_BYTES)
    return shards


def reference_velvet_assemble(
    reads: list[FastqRecord],
    params: AssemblyParams,
    n_threads: int = 8,
) -> AssemblyResult:
    """The original serial (Velvet-analog) assembly on the dict engine."""
    usage = ResourceUsage(n_ranks=1)

    kmers = canonical_kmers_varlen([r.seq for r in reads], params.k)
    usage.add_phase(
        PhaseUsage(
            name="kmer_count",
            kind="kmer",
            critical_compute=kmers.shape[0] / max(n_threads, 1),
            total_compute=float(kmers.shape[0]),
        )
    )

    table = legacy_build_kmer_table(params.k, kmer_counts(kmers))
    table.drop_below(params.min_count)
    usage.peak_rank_memory_bytes = table.memory_bytes()
    usage.add_phase(
        PhaseUsage(
            name="graph_build",
            kind="graph",
            critical_compute=float(len(table)),
            total_compute=float(len(table)),
        )
    )

    unitigs, steps = legacy_extract_unitigs(table)
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

    contigs = unitigs_to_contigs(unitigs, params, "velvet")
    return AssemblyResult(
        assembler="velvet",
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


def reference_ray_assemble(
    reads: list[FastqRecord],
    params: AssemblyParams,
    n_ranks: int = 8,
) -> AssemblyResult:
    """The original Ray-analog assembly on the dict engine."""
    world = SimWorld(n_ranks)
    p = world.size
    k = params.k

    shards = reference_distribute_and_count(world, reads, k)

    with world.phase("graph_build", kind="graph"):
        for r in world.ranks():
            shard = shards[r]
            doomed = [km for km, c in shard.items() if c < params.min_count]
            for km in doomed:
                del shard[km]
            world.charge(r, float(len(shard) + len(doomed)))
            world.record_memory(r, len(shard) * KMER_RECORD_BYTES)

    merged: dict[bytes, int] = {}
    for shard in shards:
        merged.update(shard)
    table = LegacyKmerTable(k=k, counts=merged)

    with world.phase("extension_walk", kind="walk"):
        visited: set[bytes] = set()
        all_unitigs = []
        total_probes = 0
        for r in world.ranks():
            seeds = sorted(shards[r].keys())
            unitigs, steps = legacy_extract_unitigs(table, iter(seeds), visited)
            all_unitigs.extend(unitigs)
            world.charge(r, float(steps))
            total_probes += int(steps * 8 * (p - 1) / p)
        world.count_messages(total_probes)

    with world.phase("cleanup", kind="walk"):
        all_unitigs, cstats = clean_unitigs(
            all_unitigs, k, clip=params.clip_tips, pop=params.pop_bubbles
        )
        for r in world.ranks():
            world.charge(r, float(cstats.work) / p)

    contigs = unitigs_to_contigs(all_unitigs, params, "ray")
    return AssemblyResult(
        assembler="ray",
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


def reference_abyss_assemble(
    reads: list[FastqRecord],
    params: AssemblyParams,
    n_ranks: int = 8,
) -> AssemblyResult:
    """The original ABySS-analog assembly on the dict engine."""
    world = SimWorld(n_ranks)
    p = world.size
    k = params.k

    shards = reference_distribute_and_count(world, reads, k)

    with world.phase("graph_build", kind="graph"):
        for r in world.ranks():
            shard = shards[r]
            doomed = [km for km, c in shard.items() if c < params.min_count]
            for km in doomed:
                del shard[km]
            world.charge(r, float(len(shard) + len(doomed)))
            world.record_memory(r, len(shard) * KMER_RECORD_BYTES)

    merged: dict[bytes, int] = {}
    for shard in shards:
        merged.update(shard)
    table = LegacyKmerTable(k=k, counts=merged)

    with world.phase("unitig_rounds", kind="walk"):
        visited: set[bytes] = set()
        all_unitigs = []
        per_rank_unitigs: list[list] = []
        total_probes = 0
        for r in world.ranks():
            seeds = sorted(shards[r].keys())
            unitigs, steps = legacy_extract_unitigs(table, iter(seeds), visited)
            all_unitigs.extend(unitigs)
            per_rank_unitigs.append(unitigs)
            world.charge(r, float(steps))
            total_probes += int(steps * 2 * (p - 1) / p)
        world.count_messages(total_probes)
        for _ in range(8):
            world.barrier()

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

    contigs = unitigs_to_contigs(all_unitigs, params, "abyss")
    return AssemblyResult(
        assembler="abyss",
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


def reference_kmer_count_job(
    engine: MapReduceEngine,
    reads: list[FastqRecord],
    params: AssemblyParams,
) -> dict[bytes, int]:
    """The original Contrail counting job with bytes k-mer keys."""
    k = params.k
    min_count = params.min_count

    def mapper(_rid, seq):
        rows = canonical_kmers(alphabet.encode(seq), k)
        raw = np.ascontiguousarray(rows).tobytes()
        for i in range(rows.shape[0]):
            yield raw[i * k : (i + 1) * k], 1

    def combiner(kmer, values):
        yield kmer, sum(values)

    def reducer(kmer, values):
        total = sum(values)
        if total >= min_count:
            yield kmer, total

    job = MRJob("kmer_count", mapper, reducer, combiner=combiner)
    out = engine.run(job, [(r.id, r.seq) for r in reads])
    return dict(out)
