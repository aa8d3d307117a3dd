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
DESIGN.md §5, §15.  **Record order is part of the contract**: round
``r + 1`` splits its input over map tasks by ``position % n`` and
``shuffle_bytes`` counts distinct (task, key) groups, so ``merge_<r>``
emits the table in the engine's reduce output order — partition
``sid % n``, then ``repr(sid)`` *string* order (10 before 2), a tail that
could not be joined immediately before its head.

Input reads containing N produce no valid k-mers at those positions; the
paper notes Contrail *failed* outright on raw reads with N — modeled by
``fail_on_n`` (enabled by the pipeline when staging unpreprocessed data).
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from repro.assembly import packed as packedmod
from repro.assembly.base import AssemblyParams, unitigs_to_contigs
from repro.assembly.cleanup import clean_unitigs
from repro.assembly.contigs import AssemblyResult, assembly_stats
from repro.assembly.dbg import Unitig
from repro.assembly.sweep import resolve_spectrum
from repro.parallel.mapreduce import MapReduceEngine
from repro.seq.readstore import ReadStore


logger = logging.getLogger(__name__)

#: What generic ``nbytes`` charges a segment record beyond its code bytes:
#: four field names (22), three scalars (24), dict + object overhead (32).
SEGMENT_RECORD_OVERHEAD = 78


class ContrailInputError(ValueError):
    """Raised when raw (unpreprocessed) reads break the Hadoop pipeline."""


class _Table(NamedTuple):
    """The segment table between jobs, as columns in record order.  A
    segment is a growing chain of merged k-mers (Contrail's node record);
    its two *oriented* (k-1)-mer ends are carried through every merge as
    packed rows, so no job re-reads the code buffer to find a junction."""

    sid: np.ndarray  #: segment id (int64); a head keeps its id
    repr_rank: np.ndarray  #: rank of ``repr(sid)`` among the run's ids
    offsets: np.ndarray  #: CSR: record i is ``codes[offsets[i]:offsets[i+1]]``
    codes: np.ndarray  #: every record's oriented base codes, one uint8 buffer
    cov_sum: np.ndarray  #: summed k-mer counts (float64)
    n_kmers: np.ndarray  #: merged k-mers (int64)
    left: np.ndarray  #: packed first k-1 bases, ``(n, W)``
    right: np.ndarray  #: packed last k-1 bases


def _seed_table(spectrum, solid: np.ndarray, k: int) -> _Table:
    """One segment per solid k-mer; ids follow the spectrum's key order
    (the ``sorted(bytes)`` order of the k-mers)."""
    windows = packedmod.unpack(spectrum.distinct[solid], k)
    n = windows.shape[0]
    sid = np.arange(n, dtype=np.int64)
    return _Table(
        sid=sid,
        repr_rank=np.argsort(np.argsort(sid.astype("S"))),
        offsets=np.arange(n + 1, dtype=np.int64) * k,
        codes=windows.reshape(-1),
        cov_sum=spectrum.counts[solid].astype(np.float64),
        n_kmers=np.ones(n, dtype=np.int64),
        left=packedmod.pack(windows[:, :-1]),
        right=packedmod.pack(windows[:, 1:]),
    )


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
        fail_on_n: bool = False,
        spectrum=None,
    ) -> AssemblyResult:
        if fail_on_n and store.contains_n():
            raise ContrailInputError(
                "input reads contain uncalled bases (N); Contrail requires "
                "pre-processed reads (see paper, Fig. 3 discussion)"
            )
        k = params.k
        spectrum = resolve_spectrum(store, k, spectrum)
        engine = MapReduceEngine(n_ranks)

        solid = self._derive_kmer_count(engine, store, params, spectrum)
        table = _seed_table(spectrum, solid, k)

        rounds = 0
        converged = False
        for round_no in range(self.max_rounds):
            head, tail = self._job_pair(engine, table, k, round_no)
            if not head.size:
                converged = True
                break
            table = self._job_merge(engine, table, head, tail, k, round_no)
            rounds += 1
        if not converged:
            logger.warning(
                "contrail k=%d: path compression stopped at max_rounds=%d "
                "with merges still firing (%d segments left); contigs may "
                "be split where a further round would have joined them",
                k, self.max_rounds, table.sid.shape[0],
            )

        unitigs = [
            Unitig(codes=codes, coverage=coverage, n_kmers=n_kmers)
            for codes, coverage, n_kmers in zip(
                np.split(table.codes, table.offsets[1:-1]),
                (table.cov_sum / table.n_kmers).tolist(),
                table.n_kmers.tolist(),
            )
        ]
        unitigs, cstats = clean_unitigs(
            unitigs, k, clip=params.clip_tips, pop=params.pop_bubbles
        )
        contigs = unitigs_to_contigs(unitigs, params, self.name)
        return AssemblyResult(
            assembler=self.name,
            k=k,
            contigs=contigs,
            usage=engine.usage,
            stats={
                "n_ranks": n_ranks,
                "mr_jobs": len(engine.job_stats),
                "compression_rounds": rounds,
                "compression_converged": converged,
                "distinct_kmers": int(np.count_nonzero(solid)),
                "tips_removed": cstats.tips_removed,
                "bubbles_popped": cstats.bubbles_popped,
                **assembly_stats(contigs),
            },
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
        tests run the job through the engine and require equal books.
        """
        n = engine.n_workers
        solid = spectrum.counts >= params.min_count
        # Left-aligned packed ints placed by hash(int) % n, as the
        # executed job places them; badly skewed — ROADMAP 3(a)(iii).
        int_keys = packedmod.packed_to_ints(spectrum.distinct, params.k)
        partition = np.fromiter(
            map(hash, int_keys), dtype=np.int64, count=spectrum.n_distinct
        ) % n
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
        # Emitted records: every segment's left end, then every right end.
        ends = packedmod.canonicalize(
            np.concatenate([table.left, table.right]), k - 1
        )
        distinct, junction, incidences = packedmod.unique_inverse_counts(
            ends, k - 1
        )

        # Reduce: a junction with exactly two incidences, on two distinct
        # segments (not a palindromic self-adjacency) whose coins differ,
        # merges the tail into the head.
        two = np.flatnonzero((incidences == 2)[junction])
        two = two[np.argsort(junction[two], kind="stable")] % n_seg
        a, b = two[0::2], two[1::2]
        is_head = _coin(sid + round_no, round_no)
        fires = (a != b) & (is_head[a] != is_head[b])
        a, b = a[fires], b[fires]
        head, tail = np.where(is_head[a], a, b), np.where(is_head[a], b, a)

        engine.record_shuffle(
            f"pair_{round_no}",
            map_input_records=n_seg,
            task=np.tile(np.arange(n_seg) % n, 2),
            key=junction,
            value_nbytes=8,
            key_nbytes=k - 1,
            # Dense rank among the round's distinct junctions: hash-free.
            partition=np.arange(distinct.shape[0]) % n,
            reduce_output_records=int(head.shape[0]),
        )
        # A tail may pair with heads on both of its ends; keep one merge
        # per tail (deterministic: smallest head id, its first in this order).
        order = np.lexsort((sid[tail], sid[head]))
        head, tail = head[order], tail[order]
        keep = np.sort(np.unique(tail, return_index=True)[1])
        return head[keep], tail[keep]

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
        sid, offsets = table.sid, table.offsets
        n_seg = sid.shape[0]
        pos = np.arange(n_seg)
        length = np.diff(offsets)
        target = pos.copy()
        target[tail] = head
        is_key = target == pos

        # A compressible junction has two incidences, so each end of a
        # head pairs with at most one tail: two passes, first tails then
        # second tails, join every head to everything it absorbs.
        second = np.diff(head, prepend=-1) == 0
        assert not (second[1:] & second[:-1]).any(), "a head absorbs <= 2 tails"
        left, right = table.left.copy(), table.right.copy()
        cov_sum, n_kmers = table.cov_sum.copy(), table.n_kmers.copy()
        owner = pos.copy()  # the record each segment's codes end up in
        slot = np.zeros(n_seg, dtype=np.int64)  # piece order: < 0 left of the head
        flipped = np.zeros(n_seg, dtype=bool)
        for depth, in_pass in ((1, ~second), (2, second)):
            h, t = head[in_pass], tail[in_pass]
            tail_left, tail_right = table.left[t], table.right[t]
            rc_left = packedmod.revcomp(tail_left, k - 1)
            rc_right = packedmod.revcomp(tail_right, k - 1)
            # The four overlap tests as equalities on the carried ends;
            # the first that holds, in this order, decides.  A tail none
            # accepts (a canonical-junction collision) stays its own record.
            tests = np.stack(
                [
                    (tail_left == right[h]).all(axis=1),  # a + b
                    (rc_right == right[h]).all(axis=1),  # a + rc(b)
                    (tail_right == left[h]).all(axis=1),  # b + a
                    (rc_left == left[h]).all(axis=1),  # rc(b) + a
                ]
            )
            joined = np.flatnonzero(tests.any(axis=0))
            h, t, case = h[joined], t[joined], tests.argmax(axis=0)[joined]
            # The record's new end, by case: the tail's far end as joined.
            far = np.stack([tail_right, rc_left, tail_left, rc_right])[case, joined]
            after = case < 2
            right[h[after]] = far[after]
            left[h[~after]] = far[~after]
            owner[t] = h
            slot[t] = np.where(after, depth, -depth)
            flipped[t] = case % 2 == 1
            cov_sum[h] += table.cov_sum[t]
            n_kmers[h] += table.n_kmers[t]

        # Output records (heads, untouched segments, kept-apart tails) in
        # the engine's reduce output order: see the module docstring.
        out = np.flatnonzero(owner == pos)
        group = target[out]
        out = out[
            np.lexsort(
                (sid[out], is_key[out], table.repr_rank[group], sid[group] % n)
            )
        ]

        engine.record_shuffle(
            f"merge_{round_no}",
            map_input_records=n_seg,
            task=pos % n,
            key=(np.cumsum(is_key) - 1)[target],
            value_nbytes=length + SEGMENT_RECORD_OVERHEAD,
            key_nbytes=8,
            partition=sid[is_key] % n,
            reduce_output_records=int(out.shape[0]),
        )

        # Codes: every segment is one piece of its owner's record, pieces
        # ordered by slot; all but a record's first piece drop the k-1
        # overlap.  One gather; a flipped piece reads backwards,
        # complemented (3 - code == code ^ 3).
        record = np.empty(n_seg, dtype=np.int64)
        record[out] = np.arange(out.shape[0])
        record = record[owner]
        pieces = np.lexsort((slot, record))
        starts_record = np.diff(record[pieces], prepend=-1) != 0
        skip = np.where(starts_record, 0, k - 1)
        piece_len = length[pieces] - skip
        flip = flipped[pieces]
        step = np.where(flip, -1, 1)
        first = np.where(
            flip, offsets[pieces + 1] - 1 - skip, offsets[pieces] + skip
        )
        laid = np.cumsum(piece_len) - piece_len
        source = np.repeat(first - step * laid, piece_len) + np.repeat(
            step, piece_len
        ) * np.arange(int(piece_len.sum()))
        codes = table.codes[source] ^ np.repeat(
            (3 * flip).astype(np.uint8), piece_len
        )
        return _Table(
            sid=sid[out],
            repr_rank=table.repr_rank[out],
            offsets=np.r_[laid[starts_record], codes.shape[0]],
            codes=codes,
            cov_sum=cov_sum[out],
            n_kmers=n_kmers[out],
            left=left[out],
            right=right[out],
        )
