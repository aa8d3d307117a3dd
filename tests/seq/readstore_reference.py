"""Reference encoder for ``ReadStore.from_reads`` — the test oracle.

This is the record loop ``repro.seq.readstore.ReadStore.from_reads``
shipped before it became one attribute pass per record field and a
C-level ``bytes.translate``, kept as it was: a generator over the records
for the lengths, a list per field, each joined string concatenated with
its trailing separator, bases translated by a numpy fancy index into
``alphabet._ENCODE_LUT`` and every id UTF-8-encoded on its own.
``test_readstore.py`` requires the same bytes in every ``FIELDS`` array,
the same digest and the same ``ValueError`` from both.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.seq import alphabet
from repro.seq.fastq import FastqRecord
from repro.seq.readstore import ReadStore


def _join_ascii(parts: list[str], sep: str, reads: list, what: str) -> bytes:
    try:
        return (sep.join(parts) + sep).encode("ascii") if parts else b""
    except UnicodeEncodeError:
        bad = next(r for r, part in zip(reads, parts) if not part.isascii())
        raise ValueError(f"non-ASCII {what} string for read {bad.id}") from None


def _offsets(sizes: np.ndarray) -> np.ndarray:
    return np.append(np.int64(0), np.cumsum(sizes, dtype=np.int64))


def reference_from_reads(reads: Iterable[FastqRecord]) -> ReadStore:
    reads = list(reads)
    n = len(reads)
    lengths = np.fromiter((len(r.seq) for r in reads), dtype=np.int64, count=n)
    offsets = _offsets(lengths + 1)
    raw = _join_ascii([r.seq for r in reads], "N", reads, "sequence")
    codes = alphabet._ENCODE_LUT[np.frombuffer(raw, dtype=np.uint8)]
    quals = np.frombuffer(
        _join_ascii([r.qual for r in reads], "\0", reads, "quality"),
        dtype=np.uint8,
    )
    # Equal-length strings put every quality pad byte on a separator.
    if quals.shape[0] != codes.shape[0] or quals[offsets[1:] - 1].any():
        bad = next(r for r in reads if len(r.seq) != len(r.qual))
        raise ValueError(f"sequence/quality length mismatch for read {bad.id}")
    ids = [r.id.encode("utf-8") for r in reads]
    return ReadStore.from_fields(
        dict(
            offsets=offsets,
            codes=codes,
            quals=quals,
            id_offsets=_offsets(np.fromiter(map(len, ids), dtype=np.int64, count=n)),
            id_bytes=np.frombuffer(b"".join(ids), dtype=np.uint8),
        )
    )
