"""Vectorized k-mer extraction, canonicalization and partitioning.

K-mers are packed integers (:mod:`repro.assembly.packed`): 2 bits per
base in one or two ``uint64`` words, k up to 63 (the paper's deepest
P. crispa runs).  The canonical form of a k-mer is the lexicographic
minimum of the k-mer and its reverse complement; the packed key order is
that lexicographic order.
"""

from __future__ import annotations

import numpy as np

from repro.assembly import packed as packedmod
from repro.seq import alphabet

#: Multipliers for the vectorized partition hash (fixed odd constants so
#: ownership is deterministic across processes and runs).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def canonical_kmers_varlen_packed(seqs: list[str], k: int) -> np.ndarray:
    """Canonical packed k-mers of variable-length sequences, in order.

    The sequences are joined with single-N separators, the
    :class:`~repro.seq.readstore.ReadStore` layout, so no window crosses
    a boundary, and extracted by :func:`fused_canonical_positions_packed`:
    windows containing N are dropped and palindromes keep the forward
    strand.
    """
    sep = np.array([alphabet.N], dtype=np.uint8)
    parts = [sep]
    for s in seqs:
        parts += [alphabet.encode(s), sep]
    return fused_canonical_positions_packed(np.concatenate(parts), [k])[k][0]


def _nfree_starts(codes: np.ndarray, ks) -> dict[int, np.ndarray]:
    """Ascending start offsets of the N-free k-windows of a flat code
    array, for every k: a run ``[s, e)`` of bases between Ns holds the
    starts ``s .. e - k``, laid end to end by a cumulative sum of steps
    (1, or at a run's first start the jump from the last run's last)."""
    bounds = np.flatnonzero(codes >= alphabet.N)
    run_start, run_end = np.r_[0, bounds + 1], np.r_[bounds, codes.shape[0]]
    out = {}
    for k in ks:
        n = run_end - run_start - (k - 1)
        first, n = run_start[n > 0], n[n > 0]
        out[k] = starts = np.ones(n.sum(), dtype=np.intp)
        starts[np.cumsum(n) - n] = first - np.r_[0, (first + n - 1)[:-1]]
        np.cumsum(starts, out=starts)
    return out


def fused_canonical_positions_packed(
    codes: np.ndarray, ks
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Canonical packed k-mers + window positions for *all* k in one pass.

    ``codes`` is a flat uint8 code array in the :class:`~repro.seq.
    readstore.ReadStore` layout (reads joined by single-N separators, or
    any single sequence).  Returns ``{k: (canonical_rows, positions)}``
    where ``positions`` are the start offsets of the N-free windows in
    ascending order and ``canonical_rows`` are the canonical k-mers at
    those positions, in that order.

    The fusion: each strand is packed exactly once, as the 32-base
    window at every start (:func:`repro.assembly.packed.flat_windows`),
    zero-padded so that every one of the ``T`` starts has a window.  The
    k-mer at ``pos`` is word 0 = the window at ``pos``, masked to ``2k``
    bits when k <= 32, and word 1 = the window at ``pos + k - 32``,
    shifted up ``128 - 2k``: its low ``k - 32`` bases are the k-mer's
    last.  A one-word k reverse-complements the masked word; two-word
    ks read the reverse strand, packed too when the largest k is two
    words, at ``T - k - pos``.  Every k is then a word-wise minimum; the
    packed strands die when this returns.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    ks = sorted({int(k) for k in ks})
    if not ks:
        return {}
    for k in ks:
        packedmod.check_k(k)
    T = codes.shape[0]
    starts = _nfree_starts(codes, ks)
    # flat_windows keeps two bits per code, so an N packs as some base: a
    # window that holds one is not among the starts, and the value never
    # surfaces.  ``code ^ 3`` is the complement of a base.
    strand = np.zeros(T + 32, dtype=np.uint8)  # T + 1 windows: one if empty
    strand[:T] = codes
    fwd = packedmod.flat_windows(strand, 32)
    if packedmod.words_for(ks[-1]) == 2:
        strand[:T] = codes[::-1] ^ np.uint8(3)
        rev = packedmod.flat_windows(strand, 32)

    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in ks:
        Wk = packedmod.words_for(k)
        pos = starts[k]
        # Column-contiguous: every consumer sorts and compares word by word.
        rows = np.empty((pos.shape[0], Wk), dtype=np.uint64, order="F")
        # A gather with mode="clip" writes straight into its out buffer.
        if Wk == 1:
            fw = np.take(fwd, pos, out=rows[:, 0], mode="clip")
            fw &= np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(64 - 2 * k)
            np.minimum(fw, packedmod.revcomp(fw, k)[:, 0], out=fw)
        else:
            fw, mirror = fwd[pos], (T - k) - pos
            rc = rev[mirror]
            np.minimum(fw, rc, out=rows[:, 0])
            less, same = fw < rc, fw == rc
            np.take(fwd[k - 32 :], pos, out=fw, mode="clip")
            np.take(rev[k - 32 :], mirror, out=rc, mode="clip")
            fw <<= np.uint64(128 - 2 * k)
            rc <<= np.uint64(128 - 2 * k)
            # Palindromes (equal strands) keep the forward one.
            np.copyto(rows[:, 1], rc)
            np.copyto(rows[:, 1], fw, where=less | (same & (fw <= rc)))
        out[k] = (rows, pos)
    return out


def kmer_owner_packed(
    packed_rows: np.ndarray, k: int, n_ranks: int
) -> np.ndarray:
    """Owner rank of each packed k-mer row (the hash partition).

    The hash is ``sum((code + 1) * weight)`` over the k bases, with
    position-dependent odd multipliers, then mixed.  It is linear mod
    2**64 before the mixing, so the sum folds to ``sum(weight)`` plus one
    entry per two packed bytes (8 bases) of a 65 536-row table of
    ``sum(code * weight)``: one gather per ``uint16`` digit instead of
    one pass per base.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    W = packedmod.words_for(k)
    rows = np.asarray(packed_rows, dtype=np.uint64).reshape(-1, W)
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    n_digits = -(-k // 8)
    with np.errstate(over="ignore"):
        weights = np.zeros(8 * n_digits, dtype=np.uint64)
        weights[:k] = np.cumprod(np.full(k, _HASH_MULTIPLIER, dtype=np.uint64))
        # folded[j, b]: what byte value b at byte j adds to the sum.
        codes = (np.arange(256)[:, None] >> np.array([6, 4, 2, 0])) & 3
        folded = (
            codes.astype(np.uint64)[None, :, :] * weights.reshape(-1, 1, 4)
        ).sum(axis=2, dtype=np.uint64)
        digits = rows.astype(">u8", order="C").view(">u2").astype(np.uint16, order="F")
        h = np.full(rows.shape[0], weights.sum(dtype=np.uint64))
        for j in range(n_digits):
            # digit value hi * 256 + lo adds folded[2j][hi] + folded[2j+1][lo].
            pair = (folded[2 * j][:, None] + folded[2 * j + 1][None, :]).ravel()
            h += pair[digits[:, j]]
        h ^= h >> np.uint64(33)
        h *= _HASH_MULTIPLIER
        h ^= h >> np.uint64(29)
    return (h % np.uint64(n_ranks)).astype(np.int64)
