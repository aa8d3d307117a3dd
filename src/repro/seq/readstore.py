"""Encode-once read storage shared by QC, the assembly fan-out and quantification.

A run encodes its *raw* reads exactly once into a :class:`ReadStore` —
flat numpy arrays.  QC filters that store into the pre-processed one
(:meth:`ReadStore.subset`), which the multi-k, multi-assembler fan-out
shares — no per-job encoding, no records built or pickled per submit:

* ``codes`` — every read's base codes followed by a single ``N``
  separator (code 4).  This is exactly the joined form
  :func:`repro.assembly.kmers.canonical_kmers_varlen_packed` builds per
  call, so per-k extraction becomes one windowing pass over the shared
  array with **no** per-call string encoding or concatenation, and the
  resulting k-mer stream is bit-identical to the per-read path (windows
  crossing a separator contain an N and are dropped; reads shorter than
  k contribute no windows).
* ``offsets`` — ``int64`` of length ``n_reads + 1``; read ``i`` occupies
  ``codes[offsets[i] : offsets[i+1] - 1]`` (the ``-1`` skips its
  separator).
* ``quals`` — raw Phred+33 bytes in the same layout (one zero pad byte
  per read), so a single offsets array serves both.
* ``id_bytes`` / ``id_offsets`` — UTF-8 read ids, for full
  ``FastqRecord`` reconstruction (:meth:`ReadStore.records`).

Locally the arrays are plain process memory.  :meth:`ReadStore.share`
moves them into one shared-memory segment so process-pool workers attach
zero-copy; pickling a shared store ships only a tiny
:class:`ReadStoreHandle` (O(1) in the read count).  The ``digest`` — a
SHA-256 over the encoded arrays — is the store's content address, used
by the assembly cache and for cheap equality.

The store holds one :class:`~repro.seq.sharedarrays.SharedArrays` and
delegates the segment's lifecycle to it; the ownership rule is that
module's.  The pipeline run closes the store it shared (one
``ExitStack`` in ``RnnotatorPipeline._run``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.seq import alphabet
from repro.seq.fastq import PHRED_OFFSET, FastqRecord
from repro.seq.sharedarrays import SharedArrays

#: The store's arrays and their dtypes, named once: the segment layout
#: and the digest both follow this order.
FIELDS = {
    "offsets": np.int64,
    "codes": np.uint8,
    "quals": np.uint8,
    "id_offsets": np.int64,
    "id_bytes": np.uint8,
}


@dataclass(frozen=True)
class ReadStoreHandle:
    """O(1)-size pickle surrogate for a shared :class:`ReadStore`."""

    shm_name: str
    n_reads: int
    n_code_bytes: int
    n_id_bytes: int
    digest: str


def _attach(handle: ReadStoreHandle) -> "ReadStore":
    """Module-level unpickle hook (bound methods don't pickle portably)."""
    return ReadStore.attach(handle)


def _join_ascii(parts: list[str], sep: str, reads: list, what: str) -> bytes:
    """``parts`` each followed by ``sep``, as ASCII bytes."""
    try:
        return (sep.join(parts) + sep).encode("ascii") if parts else b""
    except UnicodeEncodeError:
        bad = next(r for r, part in zip(reads, parts) if not part.isascii())
        raise ValueError(f"non-ASCII {what} string for read {bad.id}") from None


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Where consecutive sections of the given sizes begin, plus the end."""
    return np.append(np.int64(0), np.cumsum(sizes, dtype=np.int64))


def expand_ranges(starts, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the ranges ``[starts[i], starts[i] + counts[i])``.

    Returns ``(owner, flat)``: the ranges' elements laid end to end in
    ``flat`` and, for each, the index ``i`` of the range it came from —
    the ragged gather behind seed-hit expansion and the quantification
    join.  ``starts`` may be a scalar.
    """
    counts = np.asarray(counts, dtype=np.int64)
    owner = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    laid = np.cumsum(counts) - counts  # where each range begins in ``flat``
    flat = np.arange(owner.shape[0], dtype=np.int64) + np.repeat(
        starts - laid, counts
    )
    return owner, flat


class ReadStore:
    """Reads encoded once into flat arrays; shareable across processes."""

    def __init__(self, arrays: SharedArrays, digest: str | None = None) -> None:
        self._arrays = arrays
        offsets = arrays["offsets"]
        self.n_reads = int(offsets.shape[0]) - 1
        self.n_bases = int(offsets[-1]) - self.n_reads
        self._digest = digest  # None: hashed on first use

    # -- construction -------------------------------------------------------

    @classmethod
    def from_fields(cls, fields: dict, digest: str | None = None) -> "ReadStore":
        """A local store over the :data:`FIELDS` arrays (not copied)."""
        return cls(SharedArrays("ReadStore", FIELDS, fields), digest=digest)

    @classmethod
    def from_reads(cls, reads: Iterable[FastqRecord]) -> "ReadStore":
        """Encode records exactly once into the flat separator layout.

        Sequences and qualities are each joined *with* their separator
        byte and the two buffers converted in one pass each.  A sequence
        byte outside ``ACGTacgt`` is an uncalled base (``N``).  Raises
        ``ValueError`` naming the read for a non-ASCII sequence or
        quality string and for a sequence/quality length mismatch.
        """
        reads = list(reads)
        n = len(reads)
        lengths = np.fromiter((len(r.seq) for r in reads), dtype=np.int64, count=n)
        offsets = _offsets(lengths + 1)
        codes = alphabet.encode(
            _join_ascii([r.seq for r in reads], "N", reads, "sequence")
        )
        quals = np.frombuffer(
            _join_ascii([r.qual for r in reads], "\0", reads, "quality"),
            dtype=np.uint8,
        )
        # Equal-length strings put every quality pad byte on a separator.
        if quals.shape[0] != codes.shape[0] or quals[offsets[1:] - 1].any():
            bad = next(r for r in reads if len(r.seq) != len(r.qual))
            raise ValueError(
                f"sequence/quality length mismatch for read {bad.id}"
            )
        ids = [r.id.encode("utf-8") for r in reads]
        return cls.from_fields(
            dict(
                offsets=offsets,
                codes=codes,
                quals=quals,
                id_offsets=_offsets(
                    np.fromiter(map(len, ids), dtype=np.int64, count=n)
                ),
                id_bytes=np.frombuffer(b"".join(ids), dtype=np.uint8),
            )
        )

    def subset(self, keep: np.ndarray, lengths: np.ndarray) -> "ReadStore":
        """The reads where ``keep`` holds, each cut to its first
        ``lengths[i]`` bases, as a new local store: one boolean compress
        per array and new offsets, no record touched."""
        kept = np.where(keep, np.asarray(lengths, dtype=np.int64), 0)
        # Three runs per read of the flat layout: the kept bases, the cut
        # ones, and the separator (N / pad byte 0), which a kept read keeps.
        runs = np.stack([kept, self.lengths - kept, np.ones_like(kept)], axis=1)
        take = np.stack([keep, np.zeros_like(keep), keep], axis=1)
        mask = np.repeat(take.ravel(), runs.ravel())
        id_lengths = np.diff(self._arrays["id_offsets"])
        return self.from_fields(
            dict(
                offsets=_offsets(kept[keep] + 1),
                codes=self.codes[mask],
                quals=self.quals[mask],
                id_offsets=_offsets(id_lengths[keep]),
                id_bytes=self._arrays["id_bytes"][np.repeat(keep, id_lengths)],
            )
        )

    def fields(self) -> dict[str, np.ndarray]:
        """The :data:`FIELDS` arrays by name (views, not copies)."""
        return {field: self._arrays[field] for field in FIELDS}

    def alias(self) -> "ReadStore":
        """A second holder of the same arrays (no copy, same digest) with
        its own share/close lifecycle: a shared alias releases *its*
        segment on close, while this store stays process memory."""
        return self.from_fields(self.fields(), digest=self.digest)

    @classmethod
    def attach(cls, handle: ReadStoreHandle) -> "ReadStore":
        """Attach to an existing shared segment (zero-copy); the live
        store when this process already holds the segment."""
        n, n_codes = handle.n_reads + 1, handle.n_code_bytes
        return SharedArrays.attach(
            "ReadStore",
            FIELDS,
            handle.shm_name,
            (n, n_codes, n_codes, n, handle.n_id_bytes),
            lambda arrays: cls(arrays, digest=handle.digest),
        )

    # -- sharing / lifecycle (see repro.seq.sharedarrays) ---------------------

    @property
    def shared(self) -> bool:
        return self._arrays.shared

    @property
    def owns_shm(self) -> bool:
        return self._arrays.owns_shm

    @property
    def closed(self) -> bool:
        return self._arrays.closed

    def share(self) -> ReadStoreHandle:
        """Move the arrays into a shared-memory segment (idempotent) and
        return the O(1) handle workers attach with."""
        self._arrays.share(self)
        return self.handle()

    def handle(self) -> ReadStoreHandle:
        """Handle of an already-shared store (see :meth:`share`)."""
        return ReadStoreHandle(
            shm_name=self._arrays.shm_name,
            n_reads=self.n_reads,
            n_code_bytes=self.codes.size,
            n_id_bytes=self._arrays["id_bytes"].size,
            digest=self.digest,
        )

    def close(self, unlink: bool | None = None) -> None:
        """Release the shared segment (idempotent; unlinks iff owner; a
        never-shared store stays open)."""
        self._arrays.close(unlink)

    def __reduce__(self):
        return _attach, (self.share(),)

    # -- identity -----------------------------------------------------------

    def _compute_digest(self) -> str:
        h = hashlib.sha256(b"readstore/v1")
        h.update(np.int64(self.n_reads).tobytes())
        for field in FIELDS:
            h.update(np.ascontiguousarray(self._arrays[field]).data)
        return h.hexdigest()

    @property
    def digest(self) -> str:
        """SHA-256 content address over the encoded arrays (hashed on
        first use; a store that is only filtered never pays for it)."""
        if self._digest is None:
            self._digest = self._compute_digest()
        return self._digest

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReadStore):
            return NotImplemented
        return self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:
        state = "shared" if self.shared else ("closed" if self.closed else "local")
        return (
            f"ReadStore(n_reads={self.n_reads}, n_bases={self.n_bases}, "
            f"{state}, digest={self.digest[:12]}...)"
        )

    # -- array access --------------------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """Flat base codes, one N separator after every read."""
        return self._arrays["codes"]

    @property
    def quals(self) -> np.ndarray:
        """Flat Phred+33 bytes in the ``codes`` layout (pad byte 0)."""
        return self._arrays["quals"]

    @property
    def offsets(self) -> np.ndarray:
        return self._arrays["offsets"]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets) - 1

    @property
    def nbytes(self) -> int:
        """Resident size of the encoded arrays."""
        return self._arrays.nbytes

    def __len__(self) -> int:
        return self.n_reads

    def contains_n(self) -> bool:
        """True when any *read* has an uncalled base (separators excluded)."""
        return int((self.codes == alphabet.N).sum()) > self.n_reads

    def read_codes(self, i: int) -> np.ndarray:
        """Base codes of read ``i`` (zero-copy view, separator excluded)."""
        offsets = self.offsets
        return self.codes[offsets[i] : offsets[i + 1] - 1]

    # -- record reconstruction ------------------------------------------------

    def phred(self, i: int) -> np.ndarray:
        """Quality scores of read ``i`` — matches ``FastqRecord.phred``."""
        offsets = self.offsets
        raw = self.quals[offsets[i] : offsets[i + 1] - 1]
        return raw.astype(np.int16) - PHRED_OFFSET

    def seq(self, i: int) -> str:
        return alphabet.decode(self.read_codes(i))

    def read_id(self, i: int) -> str:
        ids, off = self._arrays["id_bytes"], self._arrays["id_offsets"]
        return ids[off[i] : off[i + 1]].tobytes().decode("utf-8")

    def record(self, i: int) -> FastqRecord:
        offsets = self.offsets
        qual = self.quals[offsets[i] : offsets[i + 1] - 1]
        return FastqRecord(
            id=self.read_id(i),
            seq=self.seq(i),
            qual=qual.tobytes().decode("ascii"),
        )

    def records(self) -> list[FastqRecord]:
        """Materialize all records (sequences are normalized to the
        ``ACGTN`` alphabet) — the round trip that shows a store, shared
        or attached, still holds what was encoded."""
        return [self.record(i) for i in range(self.n_reads)]
