"""MapReduce DBG assembler (Contrail analog).

Contrail (Schatz et al. 2010) assembles on Hadoop as a chain of MapReduce
jobs: k-mer counting, then repeated randomized path-compression rounds
that contract linear chains (each round ships node records — including
their growing sequences — through the shuffle).  The cost signature the
paper observes (Fig. 3, Table III) follows directly: heavy per-job startup
overhead and a JVM-class compute handicap make it very slow on small
clusters, while the embarrassingly parallel map/shuffle stages keep
scaling until the job-overhead floor is reached.

The job chain that executes, booked on
:class:`~repro.parallel.mapreduce.MapReduceEngine`:

1. ``kmer_count`` — reads to canonical k-mer counts (with combiner); the
   solid k-mers, in key order, are the first segment table;
2. per round ``r``: ``pair_<r>`` — every segment emits its two canonical
   (k-1)-mer end junctions; a junction incident to exactly two distinct
   segments is compressible, and a coin per segment picks head and tail —
   then ``merge_<r>`` — every tail record travels to its head, which
   absorbs it; until a ``pair`` job fires no merge or ``max_rounds``;
3. driver-side cleanup and contig emission.

No job streams records through the engine: each is an array kernel that
computes the job's output and hands the columns of its shuffle to
:meth:`MapReduceEngine.record_shuffle`, which books what the
record-at-a-time run (``tests/assembly/contrail_reference.py``) measures;
DESIGN.md §5, §15.  The rounds work on junction ids and seed lists, set
up once per k by :func:`_seed_table`; bases are laid out once, after the
last round, by :func:`_materialize`.  **Record order is part of the contract**: round
``r + 1`` splits its input over map tasks by ``position % n`` and
``shuffle_bytes`` counts distinct (task, key) groups, so ``merge_<r>``
emits the table in the engine's reduce output order — partition
``sid % n``, then ``repr(sid)`` *string* order (10 before 2), a tail that
could not be joined immediately before its head.

Input reads containing N produce no valid k-mers at those positions; the
paper notes Contrail *failed* outright on raw reads with N — modeled by
the registry's ``rejects_n``: ``run_assembler`` raises on N.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from repro.assembly import packed as packedmod
from repro.assembly.base import AssemblyParams, contig_order, finish_assembly
from repro.assembly.cleanup import clean_unitigs
from repro.assembly.contigs import AssemblyResult
from repro.assembly.dbg import Unitig
from repro.assembly.sweep import resolve_spectrum
from repro.parallel.mapreduce import MapReduceEngine
from repro.seq.readstore import ReadStore


logger = logging.getLogger(__name__)

#: What the oracle's generic ``nbytes`` walk charges a segment record beyond
#: its code bytes: four field names (22), three scalars (24), dict + object
#: overhead (32).
SEGMENT_RECORD_OVERHEAD = 78


class _Table(NamedTuple):
    """The segment table between jobs, as columns in record order.  A
    segment is a growing chain of merged k-mers (Contrail's node record),
    held as its seed k-mers in order, each forward or flipped (reverse
    complemented); only :func:`_materialize` spells the bases.  Its two
    oriented (k-1)-mer ends are carried as a junction id (ids ascend in
    canonical order) and an rc bit, so no round job reads a base."""

    sid: np.ndarray  #: segment id (int64); a head keeps its id
    repr_rank: np.ndarray  #: rank of ``repr(sid)`` among the run's ids
    seeds: np.ndarray  #: every record's seed ids, records end to end
    flips: np.ndarray  #: per entry of ``seeds``: the seed is read flipped
    cov_sum: np.ndarray  #: summed k-mer counts (float64)
    n_kmers: np.ndarray  #: merged k-mers (int64), the record's seed count
    jl: np.ndarray  #: junction id of the first k-1 bases
    jr: np.ndarray  #: junction id of the last k-1 bases
    rcl: np.ndarray  #: the first k-1 bases are ``jl``'s reverse complement
    rcr: np.ndarray  #: the last k-1 bases are ``jr``'s reverse complement
    pal: np.ndarray  #: per junction id: the (k-1)-mer is its own rc
    kmers: np.ndarray  #: per seed id: its k base codes, ``(n_seeds, k)``


def _seed_table(spectrum, solid: np.ndarray, k: int) -> _Table:
    """One segment per solid k-mer; ids follow the spectrum's key order
    (the ``sorted(bytes)`` order of the k-mers).  The run's only pass
    over (k-1)-mers: every junction any round can meet is a seed's end,
    the seeds' junction table (:func:`repro.assembly.packed.junctions`)."""
    rows = spectrum.distinct[solid]
    n = rows.shape[0]
    sid = np.arange(n, dtype=np.int64)
    junction, is_rc, pal = packedmod.junctions(rows, k)
    return _Table(
        sid=sid,
        repr_rank=_repr_rank(n),
        seeds=sid,
        flips=np.zeros(n, dtype=bool),
        cov_sum=spectrum.counts[solid].astype(np.float64),
        n_kmers=np.ones(n, dtype=np.int64),
        jl=junction[:n], jr=junction[n:], rcl=is_rc[:n], rcr=is_rc[n:],
        pal=pal,
        kmers=packedmod.unpack(rows, k),
    )


def _repr_rank(n: int) -> np.ndarray:
    """Rank of ``repr(i)`` among ``repr(0..n-1)``, without strings: the
    digits left-aligned, a string before the longer ones it prefixes."""
    sid = np.arange(n, dtype=np.int64)
    width = np.searchsorted(10 ** np.arange(1, 19), sid, side="right") + 1
    aligned = sid * 10 ** (width.max(initial=1) - width)
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(aligned * 32 + width)] = sid
    return rank


def _materialize(table: _Table, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every record's oriented base codes, one uint8 buffer, and its CSR
    offsets: a record's first seed spells k bases, each later seed its
    last one.  A flipped seed reads backwards, complemented."""
    oriented = table.kmers[table.seeds]
    oriented[table.flips] = 3 - oriented[table.flips, ::-1]
    spelled = np.zeros(oriented.shape, dtype=bool)
    spelled[:, -1] = True
    spelled[np.cumsum(table.n_kmers) - table.n_kmers] = True
    return oriented[spelled], np.r_[0, np.cumsum(table.n_kmers + k - 1)]


def _compressible(table: _Table):
    """``(a, b, ends, incidences)``: the record positions of the two
    segments at every compressible junction — exactly two incidences, on
    two distinct segments (not a palindromic self-adjacency) — in no
    set order; every segment's left end then every right end; and each
    junction's incidence count."""
    n_seg = table.sid.shape[0]
    ends = np.concatenate([table.jl, table.jr])
    incidences = np.bincount(ends, minlength=table.pal.shape[0])
    two = np.flatnonzero(incidences[ends] == 2)
    # One scatter pairs them; the incidence it kept finds itself (a == b).
    kept = np.empty(table.pal.shape[0], dtype=np.intp)
    kept[ends[two]] = two
    a, b = two % n_seg, kept[ends[two]] % n_seg
    distinct = a != b
    return a[distinct], b[distinct], ends, incidences


def _mod_p61(x: np.ndarray) -> np.ndarray:
    """``x % (2**61 - 1)`` for any uint64 ``x``: ``2**61`` is 1 there."""
    m = np.uint64(2**61 - 1)
    x = (x >> np.uint64(61)) + (x & m)
    return np.where(x >= m, x - m, x)


def _int_hash(rows: np.ndarray) -> np.ndarray:
    """``hash(w0 << 64 | w1)`` of every packed row (int64), exactly: a
    non-negative int hashes to itself mod ``2**61 - 1``, where ``2**64``
    is 8, so the words fold in Horner order."""
    h = np.zeros(rows.shape[0], dtype=np.uint64)
    for word in rows.T:
        h = _mod_p61(_mod_p61(h << np.uint64(3)) + _mod_p61(word))
    return h.astype(np.int64)


def _coin(sid: np.ndarray, round_no: int) -> np.ndarray:
    """Deterministic per-round coin, in wrapping uint64: True = Head
    (absorber).  Not a fair coin — see ROADMAP 3(a)(i)."""
    x = sid.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(
        round_no * 0xBF58476D1CE4E5B9 % 2**64
    )
    x ^= x >> np.uint64(31)
    return (x & np.uint64(1)).astype(bool)


class ContrailAssembler:
    """Hadoop MapReduce-style DBG assembler."""

    name = "contrail"
    max_rounds = 24

    def assemble(
        self,
        store: ReadStore,
        params: AssemblyParams,
        n_ranks: int = 8,
        spectrum=None,
    ) -> AssemblyResult:
        k = params.k
        spectrum = resolve_spectrum(store, k, spectrum)
        engine = MapReduceEngine(n_ranks)

        solid = self._derive_kmer_count(engine, store, params, spectrum)
        table = _seed_table(spectrum, solid, k)

        rounds = 0
        for round_no in range(self.max_rounds):
            head, tail = self._job_pair(engine, table, k, round_no)
            if not head.size:
                break
            table = self._job_merge(engine, table, head, tail, k, round_no)
            rounds += 1
        # Converged means no compressible junction is left, not that the
        # last round fired no merge (ROADMAP 3(a)(ii)).
        left = _compressible(table)[0].shape[0]
        if left:
            logger.warning(
                "contrail k=%d: path compression stopped after %d rounds "
                "(max_rounds=%d) with %d compressible junctions left (%d "
                "segments); contigs may be split where a join was possible",
                k, rounds, self.max_rounds, left, table.sid.shape[0],
            )

        codes, offsets = _materialize(table, k)
        unitigs = [
            Unitig(codes=codes, coverage=coverage, n_kmers=n_kmers)
            for codes, coverage, n_kmers in zip(
                np.split(codes, offsets[1:-1]),
                (table.cov_sum / table.n_kmers).tolist(),
                table.n_kmers.tolist(),
            )
        ]
        unitigs, cstats = clean_unitigs(unitigs, k)
        return finish_assembly(
            self.name, params, contig_order(unitigs, params.min_contig_length),
            cstats, engine.usage,
            n_ranks=n_ranks,
            mr_jobs=len(engine.job_stats),
            compression_rounds=rounds,
            compression_converged=not left,
            distinct_kmers=int(np.count_nonzero(solid)),
        )

    # -- jobs ----------------------------------------------------------------

    def _derive_kmer_count(
        self,
        engine: MapReduceEngine,
        store: ReadStore,
        params: AssemblyParams,
        spectrum,
    ) -> np.ndarray:
        """The ``kmer_count`` job: reads to canonical k-mer counts, with
        a combiner, keys priced at their logical k-byte record size.
        Returns its output: the mask of solid rows of
        ``spectrum.distinct`` (count >= ``min_count``).

        The spectrum already is the job's result, so the shuffle's
        columns are read off its occurrence stream: one emitted record
        per occurrence, its map task that of its read (``i % n``, as the
        engine splits records), its key the occurrence's distinct row,
        each (task, k-mer) group combined into one 8-byte count.  The
        tests run the job through the oracle's executing engine and
        require equal books.
        """
        n = engine.n_workers
        solid = spectrum.counts >= params.min_count
        # Left-aligned packed ints placed by hash(int) % n, as the
        # executed job places them; badly skewed — ROADMAP 3(a)(iii).
        partition = _int_hash(spectrum.distinct) % n
        engine.record_shuffle(
            "kmer_count",
            map_input_records=store.n_reads,
            task=spectrum.occ_read() % n,
            key=spectrum.inverse,
            value_nbytes=8,
            combined=True,
            key_nbytes=params.k,
            partition=partition,
            reduce_output_records=int(np.count_nonzero(solid)),
        )
        return solid

    def _job_pair(
        self, engine: MapReduceEngine, table: _Table, k: int, round_no: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Junction pairing job.  Returns the merges as (head, tail)
        record positions, one per tail, in (head sid, tail sid) order."""
        n, sid = engine.n_workers, table.sid
        n_seg = sid.shape[0]
        # Reduce: a compressible junction whose two segments' coins
        # differ merges the tail into the head.  (Each pair's two
        # incidences may come in either order: the merges are sorted below.)
        a, b, ends, incidences = _compressible(table)
        present = incidences > 0
        is_head = _coin(sid + round_no, round_no)
        a_heads = is_head[a]
        fires = a_heads != is_head[b]
        a, b, a_heads = a[fires], b[fires], a_heads[fires]
        head, tail = np.where(a_heads, a, b), np.where(a_heads, b, a)

        task = np.arange(n_seg) % n
        engine.record_shuffle(
            f"pair_{round_no}",
            map_input_records=n_seg,
            task=np.concatenate((task, task)),
            # Dense rank among the round's junctions: ids ascend in
            # canonical order, so this is the rank of the canonical end.
            key=(np.cumsum(present) - 1)[ends],
            value_nbytes=8,
            key_nbytes=k - 1,
            partition=np.arange(np.count_nonzero(present)) % n,
            reduce_output_records=int(head.shape[0]),
        )
        # A tail may pair with heads on both of its ends; keep one merge
        # per tail (deterministic: smallest head id).  A sid is a seed id,
        # below ``n_ids``, so one integer key, value-sorted, holds two sids.
        n_ids = table.kmers.shape[0]
        t, h = np.divmod(np.sort(sid[tail] * n_ids + sid[head]), n_ids)
        keep = np.empty(t.shape, dtype=bool)
        keep[:1] = True
        np.not_equal(t[1:], t[:-1], out=keep[1:])
        h, t = np.divmod(np.sort(h[keep] * n_ids + t[keep]), n_ids)
        at = np.empty(n_ids, dtype=np.intp)  # sid -> record position
        at[sid] = np.arange(n_seg)
        return at[h], at[t]

    def _job_merge(
        self,
        engine: MapReduceEngine,
        table: _Table,
        head: np.ndarray,
        tail: np.ndarray,
        k: int,
        round_no: int,
    ) -> _Table:
        """Apply absorptions: every record keyed by its (possibly new)
        owner; a head joins its tails in sid order, one per end."""
        n = engine.n_workers
        sid, n_kmers0 = table.sid, table.n_kmers
        n_seg = sid.shape[0]
        pos = np.arange(n_seg)
        target = pos.copy()
        target[tail] = head
        is_key = target == pos

        # A compressible junction has two incidences, so each end of a
        # head pairs with at most one tail: two passes, first tails then
        # second tails, join every head to everything it absorbs.
        second = np.concatenate(([False], head[1:] == head[:-1]))
        assert not (second[1:] & second[:-1]).any(), "a head absorbs <= 2 tails"
        jl, jr = table.jl.copy(), table.jr.copy()
        rcl, rcr = table.rcl.copy(), table.rcr.copy()
        cov_sum, n_kmers = table.cov_sum.copy(), n_kmers0.copy()
        owner = pos.copy()  # the record each segment's seeds end up in
        slot = np.zeros(n_seg, dtype=np.int64)  # piece order: < 0 left of the head
        flipped = np.zeros(n_seg, dtype=bool)
        pal = table.pal
        # A round where no head takes a second tail runs one pass.
        for depth, in_pass in ((1, ~second), (2, second))[: 1 + second.any()]:
            h, t = head[in_pass], tail[in_pass]
            tl, tr, trcl, trcr = table.jl[t], table.jr[t], table.rcl[t], table.rcr[t]
            hl, hr, hrcl, hrcr = jl[h], jr[h], rcl[h], rcr[h]
            # The four overlap tests on the carried ends: two ends are
            # equal on one junction id with equal rc bits, or either bit
            # on a palindrome; a reverse complement inverts the bit.  The
            # first that holds, in this order, decides.  A tail none
            # accepts (a canonical-junction collision) stays its own record.
            ab = (tl == hr) & ((trcl == hrcr) | pal[tl])  # 1: a + b
            a_rcb = (tr == hr) & ((trcr != hrcr) | pal[tr])  # 2: a + rc(b)
            ba = (tr == hl) & ((trcr == hrcl) | pal[tr])  # 3: b + a
            rcb_a = (tl == hl) & ((trcl != hrcl) | pal[tl])  # 4: rc(b) + a
            after = ab | a_rcb
            flip = np.where(after, ~ab, ~ba)
            joined = np.flatnonzero(after | ba | rcb_a)
            # The new end: the tail's far end as joined (DESIGN §15), bit ^ flip.
            far_right = after != flip
            far = np.where(far_right, tr, tl)[joined]
            far_rc = (np.where(far_right, trcr, trcl) ^ flip)[joined]
            h, t, after, flip = h[joined], t[joined], after[joined], flip[joined]
            h_after, h_before = h[after], h[~after]
            jr[h_after], rcr[h_after] = far[after], far_rc[after]
            jl[h_before], rcl[h_before] = far[~after], far_rc[~after]
            owner[t] = h
            slot[t] = np.where(after, depth, -depth)
            flipped[t] = flip
            cov_sum[h] += table.cov_sum[t]
            n_kmers[h] += n_kmers0[t]

        # Output records (heads, untouched segments, kept-apart tails) in
        # the engine's reduce output order: see the module docstring.
        # One sort on a unique key, (partition, repr rank) of the group,
        # is_key, then sid: a group's kept-apart tails come in sid order.
        n_ids = table.kmers.shape[0]
        out = np.flatnonzero(owner == pos)
        group = target[out]
        rank = (sid[group] % n * n_ids + table.repr_rank[group]) * 2 + is_key[out]
        out = out[np.argsort(rank * n_ids + sid[out])]

        engine.record_shuffle(
            f"merge_{round_no}",
            map_input_records=n_seg,
            task=pos % n,
            key=(np.cumsum(is_key) - 1)[target],
            value_nbytes=n_kmers0 + (k - 1 + SEGMENT_RECORD_OVERHEAD),
            key_nbytes=8,
            partition=sid[is_key] % n,
            reduce_output_records=int(out.shape[0]),
        )

        # Seeds: every segment is one piece of its owner's record, placed
        # by slot (-2..2) into five buckets a record.  One gather of seed
        # ids; a flipped piece reads backwards, its seeds flipped again.
        record = np.empty(n_seg, dtype=np.int64)
        record[out] = np.arange(out.shape[0])
        bucket = np.full(out.shape[0] * 5, -1, dtype=np.int64)
        bucket[record[owner] * 5 + slot + 2] = pos
        pieces = bucket[bucket >= 0]
        piece_len = n_kmers0[pieces]
        flip = flipped[pieces]
        step = np.where(flip, -1, 1)
        start = (np.cumsum(n_kmers0) - n_kmers0)[pieces]
        laid = np.cumsum(piece_len) - piece_len
        source = np.repeat(
            np.where(flip, start + piece_len - 1, start) - step * laid, piece_len
        ) + np.repeat(step, piece_len) * np.arange(table.seeds.shape[0])
        return table._replace(
            sid=sid[out],
            repr_rank=table.repr_rank[out],
            seeds=table.seeds[source],
            flips=table.flips[source] ^ np.repeat(flip, piece_len),
            cov_sum=cov_sum[out],
            n_kmers=n_kmers[out],
            jl=jl[out], jr=jr[out], rcl=rcl[out], rcr=rcr[out],
        )
