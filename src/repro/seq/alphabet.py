"""DNA alphabet utilities.

Sequences are handled in two representations:

* Python ``str`` over ``ACGTN`` — the user-facing form.
* ``numpy.uint8`` code arrays with A=0, C=1, G=2, T=3, N=4 — the internal
  form every hot loop uses.  All converters are vectorized; per-base Python
  loops are reserved for tests.
"""

from __future__ import annotations

import numpy as np

#: Code assigned to each base.  Complement of code ``b < 4`` is ``3 - b``;
#: N (4) is its own complement.
BASES = "ACGTN"
A, C, G, T, N = range(5)

_ENCODE_LUT = np.full(256, N, dtype=np.uint8)
for _i, _b in enumerate(BASES):
    _ENCODE_LUT[ord(_b)] = _i
    _ENCODE_LUT[ord(_b.lower())] = _i

#: ``_ENCODE_LUT`` as a ``bytes.translate`` table: the encode runs in C.
_ENCODE_TABLE = _ENCODE_LUT.tobytes()

_DECODE_LUT = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8).copy()

_COMPLEMENT_LUT = np.array([T, G, C, A, N], dtype=np.uint8)


def encode(seq: str | bytes) -> np.ndarray:
    """Encode a DNA string into a read-only uint8 code array.

    Unknown characters map to ``N`` (code 4).  Case-insensitive.  A
    ``str`` must be ASCII (``UnicodeEncodeError`` otherwise).
    """
    if isinstance(seq, str):
        seq = seq.encode("ascii")
    return np.frombuffer(seq.translate(_ENCODE_TABLE), dtype=np.uint8)


def decode(codes: np.ndarray) -> str:
    """Decode a uint8 code array back into an ``ACGTN`` string."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max() > N:
        raise ValueError("code array contains values outside 0..4")
    return _DECODE_LUT[codes].tobytes().decode("ascii")


def complement(codes: np.ndarray) -> np.ndarray:
    """Complement of a code array (vectorized; N maps to N)."""
    return _COMPLEMENT_LUT[np.asarray(codes, dtype=np.uint8)]


#: Every ASCII character to what ``decode(complement(encode(c)))`` is.
_COMPLEMENT_TRANSLATION = str.maketrans(
    {chr(c): decode(complement(encode(chr(c)))) for c in range(128)}
)


def reverse_complement(seq: str | np.ndarray) -> str | np.ndarray:
    """Reverse complement; returns the same representation it was given.
    A ``str`` must be ASCII (``UnicodeEncodeError`` otherwise)."""
    if isinstance(seq, str):
        if not seq.isascii():
            seq.encode("ascii")  # raises, naming the first offending character
        return seq.translate(_COMPLEMENT_TRANSLATION)[::-1]
    return complement(seq)[::-1]


def gc_content(seq: str | np.ndarray) -> float:
    """Fraction of called (non-N) bases that are G or C.

    Returns 0.0 for empty or all-N input.
    """
    codes = encode(seq) if isinstance(seq, str) else np.asarray(seq, dtype=np.uint8)
    called = codes != N
    n_called = int(called.sum())
    if n_called == 0:
        return 0.0
    gc = int(((codes == G) | (codes == C)).sum())
    return gc / n_called


def fraction_n(seq: str | np.ndarray) -> float:
    """Fraction of bases that are N.  Returns 0.0 for empty input."""
    codes = encode(seq) if isinstance(seq, str) else np.asarray(seq, dtype=np.uint8)
    if codes.size == 0:
        return 0.0
    return float((codes == N).mean())


def random_dna(
    length: int,
    rng: np.random.Generator,
    gc: float = 0.5,
) -> np.ndarray:
    """Random DNA code array with the requested expected GC content."""
    if not 0.0 <= gc <= 1.0:
        raise ValueError(f"gc must be in [0, 1], got {gc}")
    p_gc = gc / 2.0
    p_at = (1.0 - gc) / 2.0
    return rng.choice(
        np.array([A, C, G, T], dtype=np.uint8),
        size=length,
        p=[p_at, p_gc, p_gc, p_at],
    ).astype(np.uint8)


def is_valid_codes(codes: np.ndarray) -> bool:
    """True if every element is a legal base code (0..4)."""
    codes = np.asarray(codes)
    return bool(codes.size == 0 or (codes >= 0).all() and (codes <= N).all())
