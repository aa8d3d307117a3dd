"""Quantification: gene expression levels from reads vs assembled transcripts.

Rnnotator's final stage maps the (pre-processed) reads back onto the
assembled transcripts and reports per-transcript read counts and
normalized expression.  A k-mer pseudo-alignment (kallisto-style voting,
which is also how modern RNA-seq quantifiers work) replaces the short-read
aligner: each read votes for the transcript owning the plurality of its
k-mers; ties go to the lowest transcript index and reads without a
single hit stay unassigned.

The stage is one batched join in packed k-mer space
(:mod:`repro.assembly.packed`): transcript k-mers form a key-sorted
``(keys, tids)`` index, the stride-4 windows of both read strands are
the query keys, and one sorted ``searchsorted`` probe plus a
``(read, tid)`` pair count does the voting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly import packed
from repro.assembly.contigs import Contig
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.seq import alphabet
from repro.seq.fastq import FastqRecord
from repro.seq.readstore import ReadStore, expand_ranges

PSEUDO_K = 25

#: Reads are probed at every 4th window of each strand.
READ_STRIDE = 4


@dataclass
class QuantificationResult:
    transcript_ids: list[str]
    counts: np.ndarray  # reads per transcript
    tpm: np.ndarray
    usage: ResourceUsage
    assigned_reads: int = 0
    unassigned_reads: int = 0

    @property
    def assignment_rate(self) -> float:
        total = self.assigned_reads + self.unassigned_reads
        return self.assigned_reads / total if total else 0.0

    def as_table(self) -> list[tuple[str, int, float]]:
        return [
            (tid, int(c), float(t))
            for tid, c, t in zip(self.transcript_ids, self.counts, self.tpm)
        ]


def _window_table(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed rows of the k-window at every start of a flat code array
    (one doubling pass, :func:`repro.assembly.packed.pack_flat`) and the
    mask of the N-free ones (one prefix sum over the N positions)."""
    rows = packed.pack_flat(codes, k)
    n_before = np.zeros(codes.shape[0] + 1, dtype=np.int32)
    np.cumsum(codes >= alphabet.N, dtype=np.int32, out=n_before[1:])
    return rows, n_before[k:] == n_before[: rows.shape[0]]


def quantify(
    reads: list[FastqRecord] | ReadStore,
    transcripts: list[Contig],
    k: int = PSEUDO_K,
    n_threads: int = 8,
) -> QuantificationResult:
    """Pseudo-align ``reads`` against ``transcripts`` and count.

    ``reads`` is a :class:`~repro.seq.readstore.ReadStore` or a record
    list (encoded once into one).  Either way both strands of reads and
    transcripts are compared as ``ACGTN`` codes, so matching is
    case-insensitive, and a window containing ``N`` (or any other
    non-ACGT character) on either side never votes.  A k-mer occurring
    several times in the index casts one vote per occurrence.
    """
    if not transcripts:
        raise ValueError("no transcripts to quantify against")
    packed.check_k(k)
    usage = ResourceUsage(n_ranks=1)
    store = reads if isinstance(reads, ReadStore) else ReadStore.from_reads(reads)
    n_t = len(transcripts)
    lengths = np.array([len(t) for t in transcripts], dtype=np.int64)

    # Index: every transcript k-mer, key-sorted, duplicates kept.
    t_codes = alphabet.encode("N".join(t.seq for t in transcripts))
    rows, n_free = _window_table(t_codes, k)
    at = np.flatnonzero(n_free)  # a window over a separator holds its N
    keys = packed.keys(rows[at], k)
    order = np.argsort(keys, kind="stable")
    tids = np.searchsorted(np.cumsum(lengths + 1), at, side="right")[order]
    ukeys, first, n_dup = np.unique(
        keys[order], return_index=True, return_counts=True
    )

    # Queries: each read's stride-4 windows, and the reverse complements
    # of their mirror images (its reverse complement's stride-4 windows).
    r_len = store.lengths
    rid, pos = expand_ranges(
        0, np.where(r_len >= k, (r_len - k) // READ_STRIDE + 1, 0)
    )
    pos *= READ_STRIDE
    work = 2 * rid.shape[0]
    fwd = store.offsets[:-1][rid] + pos
    mir = fwd + (r_len[rid] - k) - 2 * pos
    rows, n_free = _window_table(store.codes, k)
    f_ok, m_ok = n_free[fwd], n_free[mir]
    query = packed.keys(
        np.concatenate(
            [rows[fwd[f_ok]], packed.revcomp(rows[mir[m_ok]], k)]
        ),
        k,
    )
    qrid = np.concatenate([rid[f_ok], rid[m_ok]])

    # Probe in key order: sorted probes walk the index monotonically.
    order = np.argsort(query)
    query, qrid = query[order], qrid[order]
    slot = np.searchsorted(ukeys, query)
    hit = slot < ukeys.shape[0]
    hit[hit] = ukeys[slot[hit]] == query[hit]
    slot, qrid = slot[hit], qrid[hit]
    owner, entry = expand_ranges(first[slot], n_dup[slot])

    # Vote: count (read, tid) pairs; per read the most-voted transcript
    # wins and a tie goes to the lowest tid.
    pair, votes = np.unique(
        qrid[owner] * n_t + tids[entry], return_counts=True
    )
    prid, ptid = np.divmod(pair, n_t)
    order = np.lexsort((ptid, -votes, prid))
    _, lead = np.unique(prid[order], return_index=True)
    counts = np.bincount(ptid[order[lead]], minlength=n_t).astype(np.int64)
    assigned = lead.shape[0]
    unassigned = store.n_reads - assigned

    rate = counts / np.maximum(lengths - k + 1, 1.0)
    tpm = rate / rate.sum() * 1e6 if rate.sum() > 0 else np.zeros_like(rate)

    usage.add_phase(
        PhaseUsage(
            name="quantify",
            kind="quantify",
            critical_compute=work / max(n_threads, 1),
            total_compute=float(work),
        )
    )
    usage.peak_rank_memory_bytes = int(lengths.sum()) * 12
    return QuantificationResult(
        transcript_ids=[t.contig_id for t in transcripts],
        counts=counts,
        tpm=tpm,
        usage=usage,
        assigned_reads=assigned,
        unassigned_reads=unassigned,
    )
