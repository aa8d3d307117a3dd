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


def _windows(
    lengths: np.ndarray, k: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, offset)`` of every ``stride``-th k-window of sequences
    with the given lengths (none for a sequence shorter than k)."""
    n_win = np.where(lengths >= k, (lengths - k) // stride + 1, 0)
    owner, j = expand_ranges(0, n_win)
    return owner, j * stride


def _pack_windows(
    codes: np.ndarray, starts: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Packed rows of the N-free length-k windows of ``codes`` at
    ``starts``, and the mask selecting them among ``starts``."""
    if starts.shape[0] == 0:  # codes may be shorter than one window
        return packed.pack(np.zeros((0, k), dtype=np.uint8)), starts < 0
    win = np.lib.stride_tricks.sliding_window_view(codes, k)[starts]
    ok = (win < alphabet.N).all(axis=1)
    return packed.pack(win[ok]), ok


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
    t_starts = np.cumsum(lengths + 1) - (lengths + 1)
    tid, pos = _windows(lengths, k, 1)
    rows, ok = _pack_windows(t_codes, t_starts[tid] + pos, k)
    keys = packed.keys(rows, k)
    order = np.argsort(keys, kind="stable")
    tids = tid[ok][order]
    ukeys, first, n_dup = np.unique(
        keys[order], return_index=True, return_counts=True
    )

    # Queries: each read's stride-4 windows, and the reverse complements
    # of their mirror images (its reverse complement's stride-4 windows).
    r_len = store.lengths
    rid, pos = _windows(r_len, k, READ_STRIDE)
    work = 2 * rid.shape[0]
    base = store.offsets[:-1][rid]
    fwd, f_ok = _pack_windows(store.codes, base + pos, k)
    mir, m_ok = _pack_windows(store.codes, base + (r_len[rid] - k) - pos, k)
    query = packed.keys(np.concatenate([fwd, packed.revcomp(mir, k)]), k)
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
