"""Vectorized k-mer extraction, canonicalization and counting.

Two representations coexist:

* the historical ``bytes``-of-codes form (one byte per base, values 0..3)
  kept for the public single-k-mer helpers and the frozen reference
  implementation, and
* the packed-integer form of :mod:`repro.assembly.packed` — 2 bits per
  base in one or two ``uint64`` words (k up to 63, covering the paper's
  deepest P. crispa runs) — used by the hot assembly paths.

The packed layout is order-isomorphic to the bytes layout, so canonical
forms, sort orders and ``np.unique`` groupings agree bit-for-bit between
the two pipelines.  The canonical form of a k-mer is the lexicographic
minimum of the k-mer and its reverse complement.
"""

from __future__ import annotations

import numpy as np

from repro.assembly import packed as packedmod
from repro.seq import alphabet
from repro.seq.fastq import FastqRecord

#: Multipliers for the vectorized partition hash (fixed odd constants so
#: ownership is deterministic across processes and runs).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def reads_to_code_matrix(reads: list[FastqRecord]) -> np.ndarray:
    """Stack fixed-length reads into an ``(n_reads, L)`` uint8 code matrix.

    Raises ValueError when read lengths differ (the pipeline's
    pre-processing step produces variable-length reads; those go through
    :func:`canonical_kmers_varlen` instead).
    """
    if not reads:
        return np.zeros((0, 0), dtype=np.uint8)
    L = len(reads[0])
    joined = "".join(r.seq for r in reads)
    if len(joined) != L * len(reads):
        raise ValueError("reads are not fixed-length; use canonical_kmers_varlen")
    return alphabet.encode(joined).reshape(len(reads), L)


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


def canonical_kmers_packed(codes: np.ndarray, k: int) -> np.ndarray:
    """Canonical k-mers of one or many sequences as packed ``(n, W)``
    uint64 rows (see :mod:`repro.assembly.packed`).

    Same extraction semantics as :func:`canonical_kmers` — N windows are
    dropped, palindromes keep the forward strand — but the result stays
    in packed space.
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


def canonical_kmers_store_packed(store, k: int) -> np.ndarray:
    """Canonical packed k-mers of a :class:`~repro.seq.readstore.ReadStore`.

    The store's flat code layout — every read followed by a single N
    separator — already *is* the joined form the varlen extractor builds
    per call, so this is one windowing pass with no encoding or
    concatenation at all, bit-identical to
    :func:`canonical_kmers_varlen_packed` on the same records: windows
    touching a separator contain an N and are dropped, and reads shorter
    than k contribute no windows.

    No assembler extracts per job any more (they read a counted
    :class:`~repro.assembly.sweep.KmerSpectrum`); this stays as the
    independent single-k extraction the tests hold the fused build and
    the assembled contigs against.
    """
    packedmod.check_k(k)
    if store.codes.shape[0] == 0:
        return np.zeros((0, packedmod.words_for(k)), dtype=np.uint64)
    return canonical_kmers_packed(store.codes, k)


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


def fused_canonical_positions_store_packed(
    store, ks, r0: int = 0, r1: int | None = None
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """:func:`fused_canonical_positions_packed` over a read-range shard
    ``[r0, r1)`` of a :class:`~repro.seq.readstore.ReadStore`.

    Positions are reported in *global* store coordinates, so the shard
    results of a partition of ``[0, n_reads)`` concatenate (in shard
    order) to exactly the full-store extraction.  Safe at any read
    boundary: the store layout places a single-N separator after every
    read — including the last — so the slice ``codes[offsets[r0] :
    offsets[r1]]`` ends on a separator, and any window crossing the
    shard's final read would contain that N and be dropped, exactly as
    it is in the full-store pass.
    """
    offsets = store.offsets
    n_reads = int(offsets.shape[0]) - 1
    if r1 is None:
        r1 = n_reads
    if not 0 <= r0 <= r1 <= n_reads:
        raise ValueError(
            f"read range [{r0}, {r1}) out of bounds for {n_reads} reads"
        )
    lo = int(offsets[r0])
    hi = int(offsets[r1])
    fused = fused_canonical_positions_packed(store.codes[lo:hi], ks)
    if lo:
        fused = {k: (rows, pos + lo) for k, (rows, pos) in fused.items()}
    return fused


def kmer_counts_packed(
    packed_rows: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Count packed k-mer rows: distinct rows in key order + counts.

    Groups and orders exactly like :func:`kmer_counts` does on the
    equivalent bytes rows (the packed key order is the bytes
    lexicographic order).
    """
    return packedmod.unique_counts(packed_rows, k)


def kmer_owner_packed(
    packed_rows: np.ndarray, k: int, n_ranks: int
) -> np.ndarray:
    """Owner ranks of packed k-mer rows — bit-exact with :func:`kmer_owner`.

    The hash is linear mod 2**64 before its final mixing, so ``sum((code
    + 1) * weight)`` folds to ``sum(weight)`` plus one entry per packed
    byte (4 bases) of a 256-row table of ``sum(code * weight)``:
    partitioning (and so every alltoall payload and message count) is
    unchanged, at one gather per byte instead of four passes per base.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    W = packedmod.words_for(k)
    rows = np.asarray(packed_rows, dtype=np.uint64).reshape(-1, W)
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    n_bytes = -(-k // 4)
    with np.errstate(over="ignore"):
        weights = np.zeros(4 * n_bytes, dtype=np.uint64)
        weights[:k] = np.cumprod(np.full(k, _HASH_MULTIPLIER, dtype=np.uint64))
        # folded[j, b]: what byte value b at byte j adds to the sum.
        codes = (np.arange(256)[:, None] >> np.array([6, 4, 2, 0])) & 3
        folded = (
            codes.astype(np.uint64)[None, :, :] * weights.reshape(-1, 1, 4)
        ).sum(axis=2, dtype=np.uint64)
        as_bytes = rows.astype(">u8").view(np.uint8).reshape(-1, 8 * W)
        h = np.full(rows.shape[0], weights.sum(dtype=np.uint64))
        for j in range(n_bytes):
            h += folded[j][as_bytes[:, j]]
        h ^= h >> np.uint64(33)
        h *= _HASH_MULTIPLIER
        h ^= h >> np.uint64(29)
    return (h % np.uint64(n_ranks)).astype(np.int64)


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


def owner_of(kmer: bytes, n_ranks: int) -> int:
    """Owner rank of a single k-mer (matches :func:`kmer_owner`)."""
    row = np.frombuffer(kmer, dtype=np.uint8)[None, :]
    return int(kmer_owner(row, n_ranks)[0])


#: Complement of every byte value: ``3 - code`` with uint8 wrap-around.
_COMPLEMENT = bytes((3 - i) & 0xFF for i in range(256))


def revcomp_kmer(kmer: bytes) -> bytes:
    return kmer.translate(_COMPLEMENT)[::-1]


def canonical(kmer: bytes) -> bytes:
    """Canonical form of a single code-bytes k-mer."""
    rc = revcomp_kmer(kmer)
    return kmer if kmer <= rc else rc
