"""Contrail's round jobs as they sorted before the sort-less kernels —
a test-side reference.

:class:`ArgsortContrail` is :class:`~repro.assembly.contrail.
ContrailAssembler` with the pair and merge jobs that pair a junction's
two incidences by an ``argsort`` of the junction ids, keep one merge per
tail and order the merges by two ``argsort`` s of pair keys, order the
output records by an ``argsort`` of sids and a stable one of the group
rank, place the pieces by an ``argsort`` of ``record * 5 + slot``, and
always run both merge passes.  ``test_contrail.py::TestAgainstArgsortJobs``
requires the kernels to return what these do, job by job.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.contrail import (
    SEGMENT_RECORD_OVERHEAD,
    ContrailAssembler,
    _coin,
    _Table,
)
from repro.parallel.mapreduce import MapReduceEngine


def _compressible_by_argsort(table: _Table):
    """``contrail._compressible``'s pairs, in junction order."""
    n_seg = table.sid.shape[0]
    ends = np.concatenate([table.jl, table.jr])
    incidences = np.bincount(ends, minlength=table.pal.shape[0])
    two = np.flatnonzero(incidences[ends] == 2)
    two = two[np.argsort(ends[two])] % n_seg
    a, b = two[0::2], two[1::2]
    distinct = a != b
    return a[distinct], b[distinct], ends, incidences


class ArgsortContrail(ContrailAssembler):
    """The pair and merge jobs by ``argsort``."""

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
        a, b, ends, incidences = _compressible_by_argsort(table)
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
        # below ``n_ids``, so one integer key sorts on two sids.
        n_ids = table.kmers.shape[0]
        order = np.argsort(sid[tail] * n_ids + sid[head])
        head, tail = head[order], tail[order]
        keep = np.empty(tail.shape, dtype=bool)
        keep[:1] = True
        np.not_equal(tail[1:], tail[:-1], out=keep[1:])
        head, tail = head[keep], tail[keep]
        order = np.argsort(sid[head] * n_ids + sid[tail])
        return head[order], tail[order]

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
        for depth, in_pass in ((1, ~second), (2, second)):
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
        # Sorted by sid, then stably by (partition, repr rank) of the group
        # and is_key, so a group's kept-apart tails come in sid order.
        out = np.flatnonzero(owner == pos)
        out = out[np.argsort(sid[out])]
        group = target[out]
        rank = (sid[group] % n * table.kmers.shape[0] + table.repr_rank[group]) * 2
        out = out[np.argsort(rank + is_key[out], kind="stable")]

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

        # Seeds: every segment is one piece of its owner's record, pieces
        # ordered by slot.  One gather of seed ids; a flipped piece reads
        # backwards, every seed in it flipped once more.
        record = np.empty(n_seg, dtype=np.int64)
        record[out] = np.arange(out.shape[0])
        pieces = np.argsort(record[owner] * 5 + slot)
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
