"""Encode-once read storage shared by the assembly fan-out and quantification.

The multi-k, multi-assembler fan-out runs many compute units over the
*same* pre-processed read set.  :class:`ReadStore` is that set, encoded
exactly once into flat numpy arrays every unit shares — no per-job
encoding, no records pickled per submit:

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
module's.  The pipeline run that built a store closes it (one
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
        self._digest = digest if digest is not None else self._compute_digest()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_reads(cls, reads: Iterable[FastqRecord]) -> "ReadStore":
        """Encode records exactly once into the flat separator layout."""
        reads = list(reads)
        n = len(reads)
        lengths = np.fromiter(
            (len(r.seq) for r in reads), dtype=np.int64, count=n
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths + 1, out=offsets[1:])
        total = int(offsets[-1])
        codes = np.full(total, alphabet.N, dtype=np.uint8)
        quals = np.zeros(total, dtype=np.uint8)
        if n:
            encoded = alphabet.encode("".join(r.seq for r in reads))
            qual_raw = np.frombuffer(
                "".join(r.qual for r in reads).encode("ascii"), dtype=np.uint8
            )
            dest = np.arange(encoded.size, dtype=np.int64) + np.repeat(
                np.arange(n, dtype=np.int64), lengths
            )
            codes[dest] = encoded
            quals[dest] = qual_raw

        id_chunks = [r.id.encode("utf-8") for r in reads]
        id_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(b) for b in id_chunks), dtype=np.int64, count=n),
            out=id_offsets[1:],
        )
        id_bytes = np.frombuffer(b"".join(id_chunks), dtype=np.uint8)

        return cls(
            SharedArrays(
                "ReadStore",
                FIELDS,
                dict(
                    offsets=offsets,
                    codes=codes,
                    quals=quals,
                    id_offsets=id_offsets,
                    id_bytes=id_bytes,
                ),
            )
        )

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
        """SHA-256 content address over the encoded arrays."""
        return self._digest

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReadStore):
            return NotImplemented
        return self._digest == other._digest

    def __hash__(self) -> int:
        return hash(self._digest)

    def __repr__(self) -> str:
        state = "shared" if self.shared else ("closed" if self.closed else "local")
        return (
            f"ReadStore(n_reads={self.n_reads}, n_bases={self.n_bases}, "
            f"{state}, digest={self._digest[:12]}...)"
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
