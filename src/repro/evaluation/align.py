"""Seed-and-vote alignment of contigs to reference transcripts.

DETONATE's nucleotide-level metrics need, for every assembled contig, the
reference positions it matches.  Contigs here are high-identity (they come
from DBG assembly of simulated reads), so a simple seed-and-vote aligner
is accurate: index every reference k-mer, collect a contig's seed hits,
vote on (transcript, diagonal), and score the best diagonal with a direct
vectorized base comparison.  Both strands are tried.

Seeds are packed 3 bits per base into a single ``uint64`` (3 bits so the
N code participates byte-for-byte like the historical bytes-slice keys
did), the index is a seed-sorted array triplet built with one argsort per
reference, and ``seed_hits`` resolves every contig position with two
batched ``np.searchsorted`` calls instead of a Python dict probe per
position.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.seq import alphabet
from repro.seq.alphabet import encode
from repro.seq.readstore import expand_ranges

SEED_K = 15

#: 3 bits per base (codes 0..4 including N) in one uint64.
_MAX_SEED_K = 21


def _pack_seeds(codes: np.ndarray, k: int) -> np.ndarray:
    """All length-k windows of ``codes`` packed into uint64 scalars.

    Equal packed values <=> equal byte windows (N included), exactly the
    equality the historical bytes-slice index keys provided.
    """
    if codes.shape[0] < k:
        return np.zeros(0, dtype=np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(codes, k)
    weights = (np.uint64(1) << (np.uint64(3) * np.arange(k - 1, -1, -1, dtype=np.uint64)))
    return (win.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)


@dataclass(frozen=True)
class Alignment:
    """One contig-to-reference alignment on a single diagonal."""

    transcript_index: int
    ref_start: int
    contig_start: int
    length: int
    matches: int
    strand: int

    @property
    def identity(self) -> float:
        return self.matches / self.length if self.length else 0.0


class AlignmentIndex:
    """Seed index over a set of reference sequences.

    Stored as three aligned arrays sorted by packed seed value: the seed,
    its transcript id and its reference position.  Ties keep (tid, pos)
    insertion order, so vote accumulation order — and therefore
    ``Counter.most_common`` tie-breaking — matches the historical
    dict-of-lists index.
    """

    def __init__(self, references: list[str], seed_k: int = SEED_K) -> None:
        if seed_k < 8:
            raise ValueError("seed_k must be >= 8")
        if seed_k > _MAX_SEED_K:
            raise ValueError(f"seed_k must be <= {_MAX_SEED_K}")
        self.seed_k = seed_k
        self.references = references
        self.ref_codes = [encode(r) for r in references]

        seed_parts: list[np.ndarray] = []
        tid_parts: list[np.ndarray] = []
        pos_parts: list[np.ndarray] = []
        for tid, codes in enumerate(self.ref_codes):
            seeds = _pack_seeds(codes, seed_k)
            if seeds.shape[0] == 0:
                continue
            seed_parts.append(seeds)
            tid_parts.append(np.full(seeds.shape[0], tid, dtype=np.int64))
            pos_parts.append(np.arange(seeds.shape[0], dtype=np.int64))
        if seed_parts:
            seeds = np.concatenate(seed_parts)
            order = np.argsort(seeds, kind="stable")
            self._seeds = seeds[order]
            self._tids = np.concatenate(tid_parts)[order]
            self._positions = np.concatenate(pos_parts)[order]
        else:
            self._seeds = np.zeros(0, dtype=np.uint64)
            self._tids = np.zeros(0, dtype=np.int64)
            self._positions = np.zeros(0, dtype=np.int64)

    def seed_hits(self, codes: np.ndarray) -> Counter:
        """(transcript, diagonal) vote counts for a contig's seeds."""
        votes: Counter = Counter()
        query = _pack_seeds(np.asarray(codes, dtype=np.uint8), self.seed_k)
        if query.shape[0] == 0 or self._seeds.shape[0] == 0:
            return votes
        lo = np.searchsorted(self._seeds, query, side="left")
        hi = np.searchsorted(self._seeds, query, side="right")
        # Expand [lo, hi) ranges into flat index-entry positions, ordered
        # by contig position then by index order within each seed group.
        contig_pos, entries = expand_ranges(lo, hi - lo)
        tids = self._tids[entries]
        diags = self._positions[entries] - contig_pos
        votes.update(zip(tids.tolist(), diags.tolist()))
        return votes


def _score_diagonal(
    index: AlignmentIndex,
    contig_codes: np.ndarray,
    tid: int,
    diagonal: int,
    strand: int,
) -> Alignment:
    ref = index.ref_codes[tid]
    c_start = max(0, -diagonal)
    r_start = c_start + diagonal
    length = min(len(contig_codes) - c_start, len(ref) - r_start)
    if length <= 0:
        return Alignment(tid, r_start, c_start, 0, 0, strand)
    matches = int(
        (
            contig_codes[c_start : c_start + length]
            == ref[r_start : r_start + length]
        ).sum()
    )
    return Alignment(tid, r_start, c_start, length, matches, strand)


def align_contig(
    index: AlignmentIndex,
    contig_seq: str,
    min_votes: int = 2,
) -> Alignment | None:
    """Best single-diagonal alignment of a contig (either strand)."""
    best: Alignment | None = None
    for strand, seq in ((1, contig_seq), (-1, alphabet.reverse_complement(contig_seq))):
        codes = encode(seq)
        votes = index.seed_hits(codes)
        if not votes:
            continue
        # Score the few strongest diagonals only.
        for (tid, diag), n in votes.most_common(3):
            if n < min_votes:
                continue
            aln = _score_diagonal(index, codes, tid, diag, strand)
            if best is None or aln.matches > best.matches:
                best = aln
    return best
