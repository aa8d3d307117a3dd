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
the query keys, sorted once, each index key finds its run of equal
queries with two ``searchsorted`` calls, and a ``(read, tid)`` pair
count does the voting.
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


def _n_free(codes: np.ndarray, offsets: np.ndarray, starts: np.ndarray, k: int):
    """Whether each in-record k-window at ``starts`` holds no ``N``, for
    records laid out as a store lays out reads (``offsets``, one
    separator after each).  Such a window covers no separator, so the
    first of the other, sparse N positions at or after its start (one
    search; the array's end if none) must lie past its last base."""
    is_n = codes >= alphabet.N
    is_n[offsets[1:] - 1] = False
    n_at = np.append(np.flatnonzero(is_n), codes.shape[0])
    return n_at[np.searchsorted(n_at, starts)] >= starts + k


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

    # Index: every transcript k-mer and its transcript, key-sorted,
    # duplicates kept; the transcripts are laid out as reads in a store.
    t_codes = alphabet.encode("".join(t.seq + "N" for t in transcripts))
    t_off = np.concatenate([[0], np.cumsum(lengths + 1)])
    tids, at = expand_ranges(t_off[:-1], np.maximum(lengths - k + 1, 0))
    ok = _n_free(t_codes, t_off, at, k)
    keys = packed.keys(packed.pack_flat(t_codes, k)[at[ok]], k)
    order = np.argsort(keys)
    keys, tids = keys[order], tids[ok][order]

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
    rows = packed.pack_flat(store.codes, k)
    f_ok, m_ok = _n_free(store.codes, store.offsets, np.stack([fwd, mir]), k)
    query = packed.keys(
        np.concatenate(
            [rows[fwd[f_ok]], packed.revcomp(rows[mir[m_ok]], k)]
        ),
        k,
    )
    qrid = np.concatenate([rid[f_ok], rid[m_ok]])

    # Join: sort the queries once; each index k-mer meets the run of
    # equal query windows, found by one search for each of its ends
    # (in key order, so the searches walk the queries monotonically).
    q_order = np.argsort(query)
    query = query[q_order]
    lo = np.searchsorted(query, keys, side="left")
    entry, hit = expand_ranges(
        lo, np.searchsorted(query, keys, side="right") - lo
    )

    # Vote: count (read, tid) pairs; per read the most-voted transcript
    # wins and a tie goes to the lowest tid.
    pair, votes = np.unique(
        qrid[q_order[hit]] * n_t + tids[entry], return_counts=True
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
