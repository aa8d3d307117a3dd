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


def canonical_kmers_packed(codes: np.ndarray, k: int) -> np.ndarray:
    """Canonical k-mers of one or many sequences as packed ``(n, W)``
    uint64 rows (see :mod:`repro.assembly.packed`).

    ``codes`` is a 1-D sequence or a 2-D matrix of fixed-length reads;
    windows containing N are dropped and palindromes keep the forward
    strand.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    packedmod.check_k(k)
    win = _drop_n(_windows(np.asarray(codes, dtype=np.uint8), k))
    if win.shape[0] == 0:
        return np.zeros((0, packedmod.words_for(k)), dtype=np.uint64)
    return packedmod.canonicalize(packedmod.pack(win), k)


def canonical_kmers_varlen_packed(seqs: list[str], k: int) -> np.ndarray:
    """Canonical packed k-mers of variable-length sequences.

    All sequences are joined with single-N separators and processed in
    one windowing/packing pass: windows crossing a read boundary contain
    the separator N and are dropped, so the result is exactly the
    per-read extraction concatenated in read order.
    """
    packedmod.check_k(k)
    parts: list[np.ndarray] = []
    sep = np.array([alphabet.N], dtype=np.uint8)
    for s in seqs:
        if len(s) >= k:
            parts.append(alphabet.encode(s))
            parts.append(sep)
    if not parts:
        return np.zeros((0, packedmod.words_for(k)), dtype=np.uint64)
    return canonical_kmers_packed(np.concatenate(parts[:-1]), k)


def _nfree_starts(codes: np.ndarray, ks) -> dict[int, np.ndarray]:
    """Ascending start offsets of the N-free k-windows of a flat code
    array, for every k.  One N prefix-sum serves them all: window
    ``[i, i + k)`` is N-free iff the count of N bases does not grow
    across it."""
    T = codes.shape[0]
    nbad = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(codes >= alphabet.N, dtype=np.int64, out=nbad[1:])
    return {
        k: np.flatnonzero(nbad[k:] == nbad[: max(T + 1 - k, 0)]) for k in ks
    }


def fused_canonical_positions_packed(
    codes: np.ndarray, ks
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Canonical packed k-mers + window positions for *all* k in one pass.

    ``codes`` is a flat uint8 code array in the :class:`~repro.seq.
    readstore.ReadStore` layout (reads joined by single-N separators, or
    any single sequence).  Returns ``{k: (canonical_rows, positions)}``
    where ``positions`` are the start offsets of the N-free windows in
    ascending order and ``canonical_rows`` is bit-identical — rows *and*
    order — to ``canonical_kmers_packed(codes, k)``.

    The fusion: both strands are packed exactly once at ``kmax``
    (:func:`repro.assembly.packed.pack_flat`), each over its code array
    zero-padded by ``kmax - 1`` so that every one of the ``T`` starts has
    a row.  The layout is left-aligned, so the k-window at ``pos`` is the
    top ``2k`` bits of forward row ``pos`` and its reverse complement the
    top ``2k`` bits of reverse row ``T - k - pos``: every k is two
    gathers per word, a mask and a word-wise minimum, with no per-k
    packing or field reversal.  The two packed strands live only until
    this function returns.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    ks = sorted({int(k) for k in ks})
    if not ks:
        return {}
    for k in ks:
        packedmod.check_k(k)
    T = codes.shape[0]
    kmax = ks[-1]
    starts = _nfree_starts(codes, ks)
    # pack_flat keeps two bits per code, so an N packs as some base: a
    # window that holds one is not among the starts, and the value never
    # surfaces.  ``code ^ 3`` is the complement of a base.
    strand = np.zeros(T + kmax - 1, dtype=np.uint8)
    strand[:T] = codes
    fwd = packedmod.pack_flat(strand, kmax)
    strand[:T] = codes[::-1] ^ np.uint8(3)
    rev = packedmod.pack_flat(strand, kmax)

    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in ks:
        Wk = packedmod.words_for(k)
        pos = starts[k]
        mirror = (T - k) - pos
        mask = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(64 * Wk - 2 * k)
        # Column-contiguous, as pack_flat's rows are: every consumer
        # sorts and compares word by word.
        rows = np.empty((pos.shape[0], Wk), dtype=np.uint64, order="F")
        fw, rc = fwd[:, 0][pos], rev[:, 0][mirror]
        np.minimum(fw, rc, out=rows[:, 0])
        if Wk == 1:
            rows &= mask
        else:
            less, same = fw < rc, fw == rc
            # mode="clip" gathers straight into the word-0 buffers.
            np.take(fwd[:, 1], pos, out=fw, mode="clip")
            np.take(rev[:, 1], mirror, out=rc, mode="clip")
            fw &= mask
            rc &= mask
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
