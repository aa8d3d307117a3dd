"""Packed-integer k-mer codec: 2 bits per base in ``uint64`` words.

A k-mer of base codes (A=0, C=1, G=2, T=3; see :mod:`repro.seq.alphabet`)
is stored left-aligned in ``W = 1`` (k <= 32) or ``W = 2`` (33 <= k <= 63)
big-endian-ordered 64-bit words: base ``i`` occupies bits
``[2*i, 2*i + 2)`` counted from the top of the ``64*W``-bit window, and
the unused low-order "slack" bits are zero.  The layout is chosen so that
numeric comparison of the word tuple equals lexicographic comparison of
the code string: canonicalization, counting (:func:`unique_inverse_counts`)
and the graph's (k-1)-mer junction table (:func:`junctions`) all order
k-mers lexicographically on the integer words.  The 16-byte :func:`keys`
of two-word rows remain only for ``KmerTable.key_array``, detonate and
tests.

Everything here is vectorized over *rows* of shape ``(n, W)``; the only
Python-level loops run over the k positions of a window (k <= 63), never
over the n k-mers.  Windows must be N-free (codes 0..3) before packing —
the extraction pipeline in :mod:`repro.assembly.kmers` drops N windows
first.
"""

from __future__ import annotations

import numpy as np

#: Largest supported k: 63 bases fill 126 of 128 bits (two words); the
#: paper's deepest P. crispa run uses k=63.
MAX_K = 63
MIN_K = 3

_U = np.uint64
_TWO = _U(2)
_FOUR = _U(4)
_THREE = _U(3)
_SIXTYTWO = _U(62)
_SIXTYFOUR = _U(64)
_M2 = _U(0x3333333333333333)
_M4 = _U(0x0F0F0F0F0F0F0F0F)


def check_k(k: int) -> int:
    if not MIN_K <= k <= MAX_K:
        raise ValueError(f"packed k-mers require {MIN_K} <= k <= {MAX_K}, got {k}")
    return k


def words_for(k: int) -> int:
    """Number of uint64 words per packed k-mer (1 or 2).

    The field layout holds any ``1 <= k <= MAX_K``; :func:`check_k` is
    the narrower range the k-mer entry points accept.  Graph cleanup
    packs (k-1)-mer junctions, 2 bases wide at ``MIN_K``.
    """
    if not 1 <= k <= MAX_K:
        raise ValueError(f"packed layout holds 1 <= k <= {MAX_K}, got {k}")
    return 1 if k <= 32 else 2


def pack(windows: np.ndarray) -> np.ndarray:
    """Pack ``(n, k)`` uint8 code windows into ``(n, W)`` uint64 rows."""
    windows = np.asarray(windows, dtype=np.uint8)
    if windows.ndim != 2:
        raise ValueError("pack expects a 2-D (n, k) window matrix")
    n, k = windows.shape
    W = words_for(k)
    out = np.zeros((n, W), dtype=_U)
    k0 = min(k, 32)
    w = np.zeros(n, dtype=_U)
    for i in range(k0):
        w = (w << _TWO) | windows[:, i].astype(_U)
    out[:, 0] = w << _U(2 * (32 - k0))
    if W == 2:
        w = np.zeros(n, dtype=_U)
        for i in range(32, k):
            w = (w << _TWO) | windows[:, i].astype(_U)
        out[:, 1] = w << _U(128 - 2 * k)
    return out


def flat_windows(codes: np.ndarray, k: int) -> np.ndarray:
    """Right-aligned packed k-mers (``k <= 32``) at every start of a flat
    code array, in the narrowest unsigned dtype that holds ``2k`` bits.

    Built by doubling: a window of ``w + d`` bases (``d <= w``) is the
    w-window at its start shifted up ``d`` bases, or-ed with the w-window
    that ends where it ends (their ``w - d`` shared bases agree) — so a
    k-mer costs ``ceil(log2 k)`` array passes instead of ``k``, with two
    levels live at a time.  Codes are masked to two bits, so an ``N``
    packs as ``A``: callers drop such windows by their own validity mask.
    """
    if not 1 <= k <= 32:
        raise ValueError(f"flat_windows packs 1 <= k <= 32, got {k}")
    a = np.asarray(codes, dtype=np.uint8) & np.uint8(3)
    if a.shape[0] < k:
        return a[:0]
    w = 1
    while w < k:
        d = min(w, k - w)
        w += d
        dtype = (np.uint8, np.uint16, np.uint32, _U)[(w > 4) + (w > 8) + (w > 16)]
        hi = a[:-d].astype(dtype)
        hi *= dtype(1 << 2 * d)  # a shift; numpy's 8-bit shifts are scalar
        hi |= a[d:]
        a = hi
    return a


def pack_flat(codes: np.ndarray, k: int) -> np.ndarray:
    """Left-aligned packed k-mers at every start of a flat code array:
    ``pack(sliding_window_view(codes & 3, k))`` as column-contiguous
    ``(T - k + 1, W)`` rows, by :func:`flat_windows`.  Word 1 of a
    two-word k-mer is the low ``k - 32`` bases of the 32-window that
    ends where the k-mer ends."""
    W = words_for(k)
    n = max(np.shape(codes)[0] - k + 1, 0)
    wins = flat_windows(codes, min(k, 32))
    if W == 1:
        word = wins.astype(_U, copy=False)  # wins is ours at any k
        word <<= _U(64 - 2 * k)
        return word[:, None]
    out = np.empty((n, 2), dtype=_U, order="F")
    out[:, 0] = wins[:n]
    np.left_shift(wins[k - 32 :], _U(128 - 2 * k), out=out[:, 1])
    return out


def unpack(packed: np.ndarray, k: int) -> np.ndarray:
    """Unpack ``(n, W)`` uint64 rows back to ``(n, k)`` uint8 codes."""
    W = words_for(k)
    packed = np.asarray(packed, dtype=_U).reshape(-1, W)
    out = np.empty((packed.shape[0], k), dtype=np.uint8)
    w0 = packed[:, 0]
    for i in range(min(k, 32)):
        out[:, i] = ((w0 >> _U(62 - 2 * i)) & _THREE).astype(np.uint8)
    if W == 2:
        w1 = packed[:, 1]
        for i in range(32, k):
            out[:, i] = ((w1 >> _U(62 - 2 * (i - 32))) & _THREE).astype(np.uint8)
    return out


def _reverse_fields(w: np.ndarray) -> np.ndarray:
    """Reverse the order of the 32 2-bit fields inside each uint64, in
    place (``w`` is scratch: a fresh array costs its page faults)."""
    for shift, mask in ((_TWO, _M2), (_FOUR, _M4)):
        low = w & mask
        w >>= shift
        w &= mask
        low <<= shift
        w |= low
    return w.byteswap(inplace=True)


def revcomp(packed: np.ndarray, k: int) -> np.ndarray:
    """Reverse complement in packed space (complement = bitwise NOT)."""
    W = words_for(k)
    packed = np.asarray(packed, dtype=_U).reshape(-1, W)
    if W == 1:
        w = _reverse_fields(~packed[:, 0])
        w <<= _U(64 - 2 * k)
        return w[:, None]
    # Reverse all 64 fields of the 128-bit value, then shift the k bases
    # (now right-aligned) back up to the top; the shifted-out high bits
    # are exactly the complemented slack garbage.
    hi = _reverse_fields(~packed[:, 1])
    lo = _reverse_fields(~packed[:, 0])
    s = _U(128 - 2 * k)  # 2..62 for k in 33..63
    out = np.empty_like(packed)
    out[:, 0] = (hi << s) | (lo >> (_SIXTYFOUR - s))
    out[:, 1] = lo << s
    return out


def canonicalize(packed: np.ndarray, k: int) -> np.ndarray:
    """Row-wise min(kmer, revcomp(kmer)) under the code-lexicographic
    order; palindromes keep the forward strand."""
    W = words_for(k)
    packed = np.asarray(packed, dtype=_U).reshape(-1, W)
    rc = revcomp(packed, k)
    if W == 1:
        take_fwd = packed[:, 0] <= rc[:, 0]
    else:
        take_fwd = (packed[:, 0] < rc[:, 0]) | (
            (packed[:, 0] == rc[:, 0]) & (packed[:, 1] <= rc[:, 1])
        )
    return np.where(take_fwd[:, None], packed, rc)


def extend_right(packed: np.ndarray, k: int, base) -> np.ndarray:
    """Drop the first base and append ``base`` (scalar or per-row array):
    the oriented successor k-mers of a walk step."""
    W = words_for(k)
    packed = np.asarray(packed, dtype=_U).reshape(-1, W)
    b = np.asarray(base, dtype=_U)
    out = np.empty_like(packed)
    if W == 1:
        out[:, 0] = (packed[:, 0] << _TWO) | (b << _U(64 - 2 * k))
        return out
    out[:, 0] = (packed[:, 0] << _TWO) | (packed[:, 1] >> _SIXTYTWO)
    out[:, 1] = (packed[:, 1] << _TWO) | (b << _U(128 - 2 * k))
    return out


# -- sortable keys -----------------------------------------------------------


def keys(packed: np.ndarray, k: int) -> np.ndarray:
    """1-D sortable key per row: plain uint64 for one-word k-mers, a
    16-byte big-endian string (``S16`` — memcmp order) for two words.
    Key order == packed tuple order == code-lexicographic order.  No
    per-k graph kernel uses them (the module docstring says who does)."""
    W = words_for(k)
    packed = np.asarray(packed, dtype=_U).reshape(-1, W)
    if W == 1:
        return np.ascontiguousarray(packed[:, 0])
    return packed.astype(">u8", order="C").view("S16").ravel()


def unique_inverse_counts(
    packed: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows in ascending key order, the row -> distinct-row
    index map, and the multiplicities: ``distinct[inverse]`` is ``packed``.

    Rows are counted as integers, not as ``S16`` strings (a memcmp
    comparison sort), with one full-length sort: an ``argsort`` of word
    0, then for two-word rows a word-1 repair confined to the word-0 runs
    that hold more than one word-1 value, then run boundaries give the
    same three arrays, dtypes included, that ``np.unique`` of the keys
    does, without its flattening copy.
    """
    W = words_for(k)
    packed = np.asarray(packed, dtype=_U).reshape(-1, W)
    n = packed.shape[0]
    order = np.argsort(packed[:, 0])
    words = [packed[order, 0]]
    boundary = np.ones(n, dtype=bool)
    np.not_equal(words[0][1:], words[0][:-1], out=boundary[1:])
    if W == 2:
        w1 = packed[order, 1]
        words.append(w1)
        step1 = w1[1:] != w1[:-1]
        mixed = np.flatnonzero(step1 & ~boundary[1:])
        if mixed.size:
            # Equal rows may land in any order: all three results are
            # functions of the groups, not of the order inside one.  The
            # members of the mixed runs are put in (run, word 1) order by
            # their rank under word 1, sorted as ``run << 32 | rank``: the
            # low half of the sorted values is the permutation (n < 2**32,
            # as any row count whose arrays fit in memory is).
            run = np.cumsum(boundary) - 1
            is_mixed = np.zeros(run[-1] + 1, dtype=bool)
            is_mixed[run[mixed]] = True
            sel = np.flatnonzero(is_mixed[run])
            members = sel[np.argsort(w1[sel])]
            ranked = run[members].astype(_U) << _U(32)
            ranked |= np.arange(sel.size, dtype=_U)
            ranked.sort()
            members = members[(ranked & _U(0xFFFFFFFF)).astype(np.intp)]
            order[sel], w1[sel] = order[members], w1[members]
            step1 = w1[1:] != w1[:-1]
        boundary[1:] |= step1
    first = np.flatnonzero(boundary)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(boundary) - 1
    counts = np.diff(first, append=n)
    return np.stack([w[first] for w in words], axis=1), inverse, counts


def rows_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise equality of two ``(n, W)`` row arrays, word by word."""
    eq = a[:, 0] == b[:, 0]
    for j in range(1, a.shape[1]):
        eq &= a[:, j] == b[:, j]
    return eq


def junctions(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (k-1)-mer junction table of ``(n, W)`` k-mer rows: ``(junction,
    is_rc, pal)``.  Its ``2n`` entries are the first k-1 bases of every
    row, then the last k-1 bases of every row; ``junction`` numbers each
    entry's canonical (k-1)-mer densely in key order, and ``is_rc`` says
    that the entry is that (k-1)-mer's reverse complement.  ``pal`` says,
    per junction id, that the (k-1)-mer is its own reverse complement.

    The ends are read off the packed words, with one sort for the whole
    table: the last base cleared, or the first shifted out by
    :func:`extend_right`; word 1 is dropped where k - 1 = 32.
    """
    w = words_for(k - 1)
    first = rows[:, :w].copy()
    if w == rows.shape[1]:  # else the last base is word 1, dropped
        first[:, -1] &= ~_U(3 << 62 - 2 * ((k - 1) % 32))
    ends = np.concatenate([first, extend_right(rows, k, 0)[:, :w]])
    canon = canonicalize(ends, k - 1)
    distinct, junction, _ = unique_inverse_counts(canon, k - 1)
    is_rc = ~rows_equal(ends, canon)
    return junction, is_rc, rows_equal(distinct, revcomp(distinct, k - 1))


def require_ascending(rows: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``(n, W)`` rows strictly ascend in key
    order — sorted and distinct — naming the first row out of order."""
    a, b = rows[:-1], rows[1:]
    ahead = a[:, -1] < b[:, -1]
    if rows.shape[1] == 2:
        ahead = (a[:, 0] < b[:, 0]) | ((a[:, 0] == b[:, 0]) & ahead)
    if not ahead.all():
        first = int(np.argmin(ahead)) + 1
        raise ValueError(f"rows must strictly ascend, row {first} does not")


def unique_keys(packed: np.ndarray, k: int) -> np.ndarray:
    """Distinct sortable keys (see :func:`keys`) in ascending key order.

    Ascending uint64/S16 key order equals the code-lexicographic k-mer
    order, so the result pairs with :func:`keys_in` for vectorized
    membership.
    """
    return np.unique(keys(packed, k))


def keys_in(query: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean membership of ``query`` keys in a sorted key array.

    Vectorized ``searchsorted`` probe; works for both key dtypes (uint64
    and memcmp-ordered ``S16``).
    """
    query = np.asarray(query)
    if sorted_keys.size == 0:
        return np.zeros(query.shape[0], dtype=bool)
    pos = np.minimum(
        np.searchsorted(sorted_keys, query), sorted_keys.size - 1
    )
    return sorted_keys[pos] == query
