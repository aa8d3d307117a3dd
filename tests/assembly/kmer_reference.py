"""Frozen bytes-dict k-mer engine — the pre-packed reference implementation.

This module preserves the original ``dict[bytes, int]`` k-mer table, the
one-probe-at-a-time unitig walker and the bytes-payload assembler drivers
exactly as they were before the packed-integer engine replaced them on
the hot paths.  It exists as the oracle of the **parity tests**
(``tests/assembly/test_parity.py``), which prove the packed engine
reproduces this implementation bit-for-bit — same contigs, same
per-phase work charges, same communication bytes and message counts.

Nothing here should be changed together with the live engine — that
would defeat the point of having a reference.  So the bytes-of-codes
primitives it runs on (extraction, canonicalisation, counting, the hash
partition) live here too: none of them is imported from ``src/``.  The
collectives and the MapReduce engine execute, with payloads: they come
from ``tests/parallel/exec_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.assembly import packed as packedmod
from repro.assembly.base import AssemblyParams, contig_order, unitigs_to_contigs
from repro.assembly.cleanup import clean_unitigs
from repro.assembly.contigs import AssemblyResult, assembly_stats
from repro.assembly.dbg import KMER_RECORD_BYTES, KmerTable, Unitig
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.seq import alphabet
from repro.seq.fastq import FastqRecord
from tests.parallel.exec_reference import ExecEngine, ExecWorld, MRJob

_BASES = (0, 1, 2, 3)


# -- bytes-of-codes k-mer primitives -------------------------------------------
#
# One byte per base (codes 0..3; see ``repro.seq.alphabet``).  These are the
# extraction, canonicalisation, counting and partition functions the dict
# engine ran on, as they were when ``repro.assembly.kmers`` still shipped
# them; ``cleanup_reference`` and ``contrail_reference`` use them too.

#: Multipliers for the vectorized partition hash (fixed odd constants so
#: ownership is deterministic across processes and runs).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _windows(codes: np.ndarray, k: int) -> np.ndarray:
    """All length-k windows of each row: ``(n_windows, k)`` uint8."""
    if codes.ndim == 1:
        codes = codes[None, :]
    n, L = codes.shape
    if L < k:
        return np.zeros((0, k), dtype=np.uint8)
    win = np.lib.stride_tricks.sliding_window_view(codes, k, axis=1)
    return win.reshape(-1, k)


def _drop_n(windows: np.ndarray) -> np.ndarray:
    """Remove windows containing uncalled bases."""
    if windows.size == 0:
        return windows
    return windows[(windows < alphabet.N).all(axis=1)]


def _canonicalize(windows: np.ndarray) -> np.ndarray:
    """Row-wise min(window, revcomp(window)), vectorized."""
    if windows.size == 0:
        return windows
    rc = (3 - windows)[:, ::-1]
    neq = windows != rc
    # Index of first differing column (0 when rows are equal — palindromes).
    first = neq.argmax(axis=1)
    rows = np.arange(windows.shape[0])
    take_fwd = windows[rows, first] <= rc[rows, first]
    return np.where(take_fwd[:, None], windows, rc)


def canonical_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    """Canonical k-mers of one or many sequences as ``(n, k)`` uint8 rows.

    ``codes`` is a 1-D sequence or a 2-D matrix of fixed-length reads.
    Windows containing N are dropped.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    return _canonicalize(_drop_n(_windows(np.asarray(codes, dtype=np.uint8), k)))


def canonical_kmers_varlen(seqs: list[str], k: int) -> np.ndarray:
    """Canonical k-mers of variable-length sequences."""
    parts = [
        canonical_kmers(alphabet.encode(s), k) for s in seqs if len(s) >= k
    ]
    if not parts:
        return np.zeros((0, k), dtype=np.uint8)
    return np.concatenate(parts, axis=0)


def kmer_counts(kmer_rows: np.ndarray) -> dict[bytes, int]:
    """Count k-mer rows into a ``bytes -> count`` dict."""
    if kmer_rows.size == 0:
        return {}
    uniq, counts = np.unique(kmer_rows, axis=0, return_counts=True)
    raw = np.ascontiguousarray(uniq).tobytes()
    k = uniq.shape[1]
    return {
        raw[i * k : (i + 1) * k]: int(c) for i, c in enumerate(counts)
    }


def kmer_owner(kmer_rows: np.ndarray, n_ranks: int) -> np.ndarray:
    """Deterministic owner rank of each k-mer row (hash partition).

    The hash folds the k-mer bytes column-wise with position-dependent
    odd multipliers; uniform enough for load balance, stable across runs.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if kmer_rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    k = kmer_rows.shape[1]
    with np.errstate(over="ignore"):
        weights = np.cumprod(np.full(k, _HASH_MULTIPLIER, dtype=np.uint64))
        h = ((kmer_rows.astype(np.uint64) + np.uint64(1)) * weights[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        h ^= h >> np.uint64(33)
        h *= _HASH_MULTIPLIER
        h ^= h >> np.uint64(29)
    return (h % np.uint64(n_ranks)).astype(np.int64)


def packed_to_ints(packed: np.ndarray, k: int) -> list[int]:
    """Packed rows as single Python ints (``w0 << 64 | w1``), in order:
    the keys the executed ``kmer_count`` job places by ``hash(key) % n``,
    and the oracle of ``contrail._int_hash``."""
    W = packedmod.words_for(k)
    packed = np.asarray(packed, dtype=np.uint64).reshape(-1, W)
    if W == 1:
        return packed[:, 0].tolist()
    return [(a << 64) | b for a, b in zip(*packed.T.tolist())]


def packed_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    """:func:`canonical_kmers` as packed rows: what the live extraction
    (``repro.assembly.kmers``) must return, rows and order."""
    return packedmod.pack(canonical_kmers(codes, k))


def sorted_table(k: int, rows: np.ndarray, counts=None) -> KmerTable:
    """A ``KmerTable`` of packed rows in any order: the distinct rows in
    key order (``packed.unique_inverse_counts``), each counted once per
    occurrence or, given ``counts``, by the sum of its counts."""
    distinct, inverse, n = packedmod.unique_inverse_counts(rows, k)
    if counts is not None:
        n = np.bincount(inverse, weights=counts, minlength=len(distinct))
    return KmerTable.from_packed(k, distinct, n.astype(np.int64))


def table_lookup(table: KmerTable, rows: np.ndarray):
    """Membership and coverage of packed ``rows`` in a non-empty
    ``table``: a binary search over its sorted keys."""
    keys = packedmod.keys(table.packed, table.k)
    query = packedmod.keys(rows, table.k)
    idx = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    found = keys[idx] == query
    return found, np.where(found, table.count_array[idx], 0)


#: Complement of every byte value: ``3 - code`` with uint8 wrap-around.
_COMPLEMENT = bytes((3 - i) & 0xFF for i in range(256))


def revcomp_kmer(kmer: bytes) -> bytes:
    return kmer.translate(_COMPLEMENT)[::-1]


def canonical(kmer: bytes) -> bytes:
    """Canonical form of a single code-bytes k-mer."""
    rc = revcomp_kmer(kmer)
    return kmer if kmer <= rc else rc


# -- the S16 adjacency join ------------------------------------------------------
#
# ``KmerTable.unitig_links`` as it was when two-word k-mers were sorted and
# searched as 16-byte ``S16`` strings (``packed.keys``).  It runs on the live
# packed codec (revcomp, extend_right, keys): what it pins is the string sort
# and search that the integer-word join replaced, on the same rows.


def s16_unitig_links(table) -> tuple[np.ndarray, np.ndarray]:
    """``(link, last_base)`` of a ``KmerTable`` by the ``S16`` key join."""
    n, k = len(table), table.k
    last_at = np.uint64(64 * table.words - 2 * k)  # bit offset of base k-1
    rows = table.packed
    rc = packedmod.revcomp(rows, k)
    pal = (rows == rc).all(axis=1)
    mate = np.roll(np.arange(2 * n), n)
    # Every distinct oriented k-mer once, in key order, with the id a
    # step enters it by and the id a step leaves it by.
    every = np.concatenate([rows[~pal], rc])
    key = packedmod.keys(every, k)
    by_key = np.argsort(key)
    every, key = every[by_key], key[by_key]
    into = np.concatenate([np.flatnonzero(~pal), mate[:n]])[by_key]
    out_of = np.where(np.concatenate([pal, pal])[into], mate[into], into)
    # The successors of x are the rows with the stem (all but the last
    # base) of extend_right(x, 0), which sorts first among them.
    stem = every.copy()
    stem[:, -1] &= ~(np.uint64(3) << last_at)
    stem = packedmod.keys(stem, k)
    ext = packedmod.keys(packedmod.extend_right(every, k, 0), k)
    at = np.minimum(np.searchsorted(key, ext), every.shape[0] - 1)
    more = np.append(stem[1:] == stem[:-1], False)
    single = (stem[at] == ext) & ~more[at]
    succ = into[at]
    outdeg1 = np.zeros(2 * n, dtype=bool)
    outdeg1[into] = outdeg1[out_of] = single
    step = single & outdeg1[mate[succ]] & (succ != mate[out_of])
    link = np.full(2 * n, -1, dtype=np.int64)
    link[out_of[step]] = succ[step]
    last = np.concatenate([rows[:, -1], rc[:, -1]]) >> last_at
    return link, (last & np.uint64(3)).astype(np.uint8)


# -- the dict table and the sequential walker ----------------------------------


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
    world: ExecWorld,
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
    unitigs, cstats = clean_unitigs(unitigs, params.k)
    usage.add_phase(
        PhaseUsage(
            name="unitig_walk",
            kind="walk",
            critical_compute=float(steps + cstats.work),
            total_compute=float(steps + cstats.work),
        )
    )

    contigs = unitigs_to_contigs(contig_order(unitigs), params, "velvet")
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
    world = ExecWorld(n_ranks)
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
        all_unitigs, cstats = clean_unitigs(all_unitigs, k)
        for r in world.ranks():
            world.charge(r, float(cstats.work) / p)

    contigs = unitigs_to_contigs(contig_order(all_unitigs), params, "ray")
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
    world = ExecWorld(n_ranks)
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
            world.collective()

    with world.phase("master_merge", kind="walk"):
        payloads = [
            [u.codes for u in unitigs] for unitigs in per_rank_unitigs
        ]
        world.gather(payloads, root=0)
        all_unitigs, cstats = clean_unitigs(all_unitigs, k)
        serial_work = cstats.work + sum(len(u) for u in all_unitigs)
        world.charge_serial(float(serial_work))

    contigs = unitigs_to_contigs(contig_order(all_unitigs), params, "abyss")
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
    engine: ExecEngine,
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
