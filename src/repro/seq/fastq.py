"""Minimal FASTQ reader/writer with Phred+33 quality handling.

The read simulator produces ``FastqRecord`` lists directly; file round-trips
exist so examples can persist data sets and so the pipeline's staging steps
have real bytes to move.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

PHRED_OFFSET = 33
MAX_PHRED = 60


@dataclass(frozen=True, slots=True)
class FastqRecord:
    """One FASTQ record.  ``qual`` is the Phred+33 ASCII string."""

    id: str
    seq: str
    qual: str

    def __post_init__(self) -> None:
        if len(self.seq) != len(self.qual):
            raise ValueError(
                f"sequence/quality length mismatch for {self.id}: "
                f"{len(self.seq)} != {len(self.qual)}"
            )

    def __len__(self) -> int:
        return len(self.seq)

    def phred(self) -> np.ndarray:
        """Quality scores as an integer array."""
        return (
            np.frombuffer(self.qual.encode("ascii"), dtype=np.uint8).astype(np.int16)
            - PHRED_OFFSET
        )


def phred_to_ascii(scores: np.ndarray) -> str:
    """Encode integer Phred scores as a Phred+33 string (clipped to 0..60)."""
    clipped = np.clip(np.asarray(scores, dtype=np.int16), 0, MAX_PHRED)
    return (clipped + PHRED_OFFSET).astype(np.uint8).tobytes().decode("ascii")


def _open_maybe(path_or_handle, mode: str) -> tuple[TextIO, bool]:
    if isinstance(path_or_handle, (str, Path)):
        return open(path_or_handle, mode), True
    return path_or_handle, False


def parse_fastq(handle: TextIO) -> Iterator[FastqRecord]:
    """Yield records from an open FASTQ handle.

    Lines may end in LF or CRLF.  Raises ValueError on structural
    corruption (an id-less header, bad separators, truncation).
    """
    for header in handle:
        header = header.rstrip("\r\n")
        if not header:
            continue
        if not header.startswith("@"):
            raise ValueError(f"expected '@' header, got {header[:30]!r}")
        name = header[1:].split()
        if not name:
            raise ValueError(f"FASTQ header without an id: {header[:30]!r}")
        seq = handle.readline().rstrip("\r\n")
        sep = handle.readline().rstrip("\r\n")
        qual = handle.readline().rstrip("\r\n")
        if not sep.startswith("+"):
            raise ValueError(f"expected '+' separator for {header[:30]!r}")
        if len(qual) != len(seq):
            raise ValueError(f"truncated record {header[:30]!r}")
        yield FastqRecord(id=name[0], seq=seq.upper(), qual=qual)


def read_fastq(path_or_handle) -> list[FastqRecord]:
    """Read all records from a FASTQ file or handle."""
    handle, owned = _open_maybe(path_or_handle, "r")
    try:
        return list(parse_fastq(handle))
    finally:
        if owned:
            handle.close()


def write_fastq(records: Iterable[FastqRecord], path_or_handle) -> int:
    """Write records; returns the number written."""
    handle, owned = _open_maybe(path_or_handle, "w")
    n = 0
    try:
        for rec in records:
            handle.write(f"@{rec.id}\n{rec.seq}\n+\n{rec.qual}\n")
            n += 1
    finally:
        if owned:
            handle.close()
    return n


def fastq_string(records: Iterable[FastqRecord]) -> str:
    """Render records to a FASTQ-formatted string."""
    buf = io.StringIO()
    write_fastq(records, buf)
    return buf.getvalue()


def fastq_bytes_estimate(n_reads: int, read_length: int, paired: bool = False) -> int:
    """Approximate on-disk FASTQ size in bytes.

    Per record: header (~30 B), sequence, '+' line, quality, newlines.
    Used by the staging/transfer cost model to reason about *unscaled*
    data volumes without materializing them.
    """
    per_record = 30 + read_length + 2 + read_length + 4
    total_reads = n_reads * (2 if paired else 1)
    return per_record * total_reads
