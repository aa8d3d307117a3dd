"""Encode-once read storage shared by the assembly fan-out and quantification.

The multi-k, multi-assembler fan-out runs many compute units over the
*same* pre-processed read set.  Historically every
:class:`~repro.core.multikmer.AssemblyWorkload` carried its own
``tuple[FastqRecord, ...]`` — pickled in full per submit under the
process backend — and every assembler re-ran :func:`repro.seq.alphabet.encode`
over the identical reads for every (assembler, k) pair.

:class:`ReadStore` removes both redundancies.  Reads are encoded exactly
once into flat numpy arrays:

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
moves them into a :mod:`multiprocessing.shared_memory` segment so
process-pool workers attach zero-copy; pickling a shared store ships
only a tiny :class:`ReadStoreHandle` (O(1) in the read count).  The
``digest`` — a SHA-256 over the encoded arrays — is the store's
content address, used by the assembly cache and for cheap equality.

Lifecycle: the process that built the store owns the segment and must
:meth:`ReadStore.close` it (``unlink`` defaults to "iff owner");
attached stores only detach.  A ``weakref.finalize`` backstop cleans up
stores that are garbage-collected without an explicit close, so no
``/dev/shm`` segment outlives its owner.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterable, Sequence

import numpy as np

from repro.seq import alphabet
from repro.seq.fastq import PHRED_OFFSET, FastqRecord

#: Attached/shared stores by segment name.  Unpickling a handle in the
#: process that owns (or already attached) the segment returns the same
#: live store instead of re-attaching; fork children inherit the entries
#: and therefore the parent's zero-copy views.
_ATTACHED: "weakref.WeakValueDictionary[str, ReadStore]" = (
    weakref.WeakValueDictionary()
)


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


def _cleanup_shm(shm: shared_memory.SharedMemory, unlink: bool) -> None:
    try:
        shm.close()
    except BufferError:
        # A numpy view still exports pointers into the mapping (typical
        # at interpreter shutdown, where GC order is arbitrary).  Disarm
        # the SharedMemory destructor so it does not retry the close and
        # print "Exception ignored in __del__"; the OS reclaims the
        # mapping itself at process exit.
        import os

        shm._buf = None
        shm._mmap = None
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass
            shm._fd = -1
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def _unregister_tracker(name: str) -> None:
    """Keep the resource tracker from destroying a segment we only attach.

    Python < 3.13 has no ``SharedMemory(track=False)``: every attach also
    registers the segment with the process's resource tracker, which
    would unlink it when *this* process exits even though the owner is
    still using it.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}" if not name.startswith("/") else name,
                                    "shared_memory")
    except Exception:
        pass


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without resource-tracker registration.

    Register-then-unregister (the pre-3.13 workaround above) is racy
    when fork-pool workers share the parent's tracker: the tracker's
    per-type cache is a *set*, so interleaved attach pairs from two
    workers collapse into one entry and the surplus unregister — or the
    owner's eventual unlink — dies with a ``KeyError`` inside the
    tracker process.  Suppressing the registration instead keeps the
    owner's create/unlink pair the only bookkeeping the tracker ever
    sees, however many processes attach and whenever they forked.
    """
    try:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *a, **kw: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except Exception:
        shm = shared_memory.SharedMemory(name=name)
        _unregister_tracker(shm.name)
        return shm


def expand_ranges(starts, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the ranges ``[starts[i], starts[i] + counts[i])``.

    Returns ``(owner, flat)``: the ranges' elements laid end to end in
    ``flat`` and, for each, the index ``i`` of the range it came from —
    the ragged gather behind :meth:`ReadStore.subset_codes`, seed-hit
    expansion and the quantification join.  ``starts`` may be a scalar.
    """
    counts = np.asarray(counts, dtype=np.int64)
    owner = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    laid = np.cumsum(counts) - counts  # where each range begins in ``flat``
    flat = np.arange(owner.shape[0], dtype=np.int64) + np.repeat(
        starts - laid, counts
    )
    return owner, flat


def _layout_views(
    buf, n_reads: int, n_code_bytes: int, n_id_bytes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The five arrays over one flat buffer.

    int64 sections lead so their 8-byte alignment holds at offset 0.
    Returns (offsets, id_offsets, codes, quals, id_bytes).
    """
    off = 0
    offsets = np.frombuffer(buf, dtype=np.int64, count=n_reads + 1, offset=off)
    off += offsets.nbytes
    id_offsets = np.frombuffer(buf, dtype=np.int64, count=n_reads + 1, offset=off)
    off += id_offsets.nbytes
    codes = np.frombuffer(buf, dtype=np.uint8, count=n_code_bytes, offset=off)
    off += n_code_bytes
    quals = np.frombuffer(buf, dtype=np.uint8, count=n_code_bytes, offset=off)
    off += n_code_bytes
    id_bytes = np.frombuffer(buf, dtype=np.uint8, count=n_id_bytes, offset=off)
    return offsets, id_offsets, codes, quals, id_bytes


class ReadStore:
    """Reads encoded once into flat arrays; shareable across processes."""

    def __init__(
        self,
        codes: np.ndarray,
        quals: np.ndarray,
        offsets: np.ndarray,
        id_bytes: np.ndarray,
        id_offsets: np.ndarray,
        digest: str | None = None,
        shm: shared_memory.SharedMemory | None = None,
        owns_shm: bool = False,
    ) -> None:
        self._codes = codes
        self._quals = quals
        self._offsets = offsets
        self._id_bytes = id_bytes
        self._id_offsets = id_offsets
        self.n_reads = int(offsets.shape[0]) - 1
        self._digest = digest
        self._shm = shm
        self._owns_shm = owns_shm
        self._finalizer: weakref.finalize | None = None
        if shm is not None:
            self._finalizer = weakref.finalize(self, _cleanup_shm, shm, owns_shm)
        if digest is None:
            self._digest = self._compute_digest()

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

        for arr in (codes, quals, offsets, id_offsets):
            arr.flags.writeable = False
        return cls(codes, quals, offsets, id_bytes, id_offsets)

    @classmethod
    def attach(cls, handle: ReadStoreHandle) -> "ReadStore":
        """Attach to an existing shared segment (zero-copy).

        Returns the already-live store when this process owns or
        previously attached the segment.
        """
        existing = _ATTACHED.get(handle.shm_name)
        if existing is not None and not existing.closed:
            return existing
        shm = _attach_untracked(handle.shm_name)
        offsets, id_offsets, codes, quals, id_bytes = _layout_views(
            shm.buf, handle.n_reads, handle.n_code_bytes, handle.n_id_bytes
        )
        for arr in (offsets, id_offsets, codes, quals, id_bytes):
            arr.flags.writeable = False
        store = cls(
            codes,
            quals,
            offsets,
            id_bytes,
            id_offsets,
            digest=handle.digest,
            shm=shm,
            owns_shm=False,
        )
        _ATTACHED[handle.shm_name] = store
        return store

    # -- sharing / lifecycle -------------------------------------------------

    @property
    def shared(self) -> bool:
        return self._shm is not None

    @property
    def owns_shm(self) -> bool:
        return self._owns_shm

    @property
    def closed(self) -> bool:
        return self._codes is None

    def share(self) -> ReadStoreHandle:
        """Move the arrays into a shared-memory segment (idempotent) and
        return the O(1) handle workers attach with."""
        if self.closed:
            raise ValueError("cannot share a closed ReadStore")
        if self._shm is None:
            total = (
                self._offsets.nbytes
                + self._id_offsets.nbytes
                + 2 * self._codes.nbytes
                + self._id_bytes.nbytes
            )
            shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
            views = _layout_views(
                shm.buf, self.n_reads, self._codes.size, self._id_bytes.size
            )
            offsets, id_offsets, codes, quals, id_bytes = views
            offsets[:] = self._offsets
            id_offsets[:] = self._id_offsets
            codes[:] = self._codes
            quals[:] = self._quals
            id_bytes[:] = self._id_bytes
            for arr in views:
                arr.flags.writeable = False
            # Rebind onto the segment so exactly one copy stays resident.
            self._offsets, self._id_offsets = offsets, id_offsets
            self._codes, self._quals, self._id_bytes = codes, quals, id_bytes
            self._shm = shm
            self._owns_shm = True
            self._finalizer = weakref.finalize(self, _cleanup_shm, shm, True)
            _ATTACHED[shm.name] = self
        return self.handle()

    def handle(self) -> ReadStoreHandle:
        """Handle of an already-shared store (see :meth:`share`)."""
        if self._shm is None:
            raise ValueError("ReadStore is not shared; call share() first")
        return ReadStoreHandle(
            shm_name=self._shm.name,
            n_reads=self.n_reads,
            n_code_bytes=self._codes.size,
            n_id_bytes=self._id_bytes.size,
            digest=self.digest,
        )

    def close(self, unlink: bool | None = None) -> None:
        """Release the shared segment (idempotent; double-close safe).

        ``unlink`` destroys the segment; it defaults to True exactly when
        this store created it.  A store that was never shared holds plain
        process memory and closing it is a no-op.
        """
        shm = self._shm
        if shm is None:
            return
        if unlink is None:
            unlink = self._owns_shm
        self._shm = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._codes = self._quals = None
        self._offsets = self._id_offsets = self._id_bytes = None
        _cleanup_shm(shm, unlink)

    def __reduce__(self):
        return _attach, (self.share(),)

    # -- identity -----------------------------------------------------------

    def _compute_digest(self) -> str:
        h = hashlib.sha256(b"readstore/v1")
        h.update(np.int64(self.n_reads).tobytes())
        for arr in (
            self._offsets,
            self._codes,
            self._quals,
            self._id_offsets,
            self._id_bytes,
        ):
            h.update(np.ascontiguousarray(arr).data)
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

    def _require_open(self, arr):
        if arr is None:
            raise ValueError("ReadStore is closed")
        return arr

    @property
    def codes(self) -> np.ndarray:
        """Flat base codes, one N separator after every read."""
        return self._require_open(self._codes)

    @property
    def quals(self) -> np.ndarray:
        """Flat Phred+33 bytes in the ``codes`` layout (pad byte 0)."""
        return self._require_open(self._quals)

    @property
    def offsets(self) -> np.ndarray:
        return self._require_open(self._offsets)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets) - 1

    @property
    def n_bases(self) -> int:
        return int(self.offsets[-1]) - self.n_reads

    @property
    def nbytes(self) -> int:
        """Resident size of the encoded arrays."""
        return int(
            self.codes.nbytes
            + self.quals.nbytes
            + self.offsets.nbytes
            + self._id_offsets.nbytes
            + self._id_bytes.nbytes
        )

    def __len__(self) -> int:
        return self.n_reads

    def contains_n(self) -> bool:
        """True when any *read* has an uncalled base (separators excluded)."""
        return int((self.codes == alphabet.N).sum()) > self.n_reads

    def read_codes(self, i: int) -> np.ndarray:
        """Base codes of read ``i`` (zero-copy view, separator excluded)."""
        offsets = self.offsets
        return self.codes[offsets[i] : offsets[i + 1] - 1]

    def subset_codes(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Codes of the selected reads in the separator layout.

        Vectorized ragged gather: the result is what ``from_reads`` on
        exactly those records would produce for ``codes`` — so k-mer
        extraction over a rank's stripe matches the per-read path
        bit-for-bit.
        """
        indices = np.asarray(indices, dtype=np.int64)
        offsets = self.offsets
        if indices.size == 0:
            return np.zeros(0, dtype=np.uint8)
        starts = offsets[indices]
        spans = offsets[indices + 1] - starts  # read length + separator
        return self.codes[expand_ranges(starts, spans)[1]]

    # -- record reconstruction ------------------------------------------------

    def phred(self, i: int) -> np.ndarray:
        """Quality scores of read ``i`` — matches ``FastqRecord.phred``."""
        offsets = self.offsets
        raw = self.quals[offsets[i] : offsets[i + 1] - 1]
        return raw.astype(np.int16) - PHRED_OFFSET

    def seq(self, i: int) -> str:
        return alphabet.decode(self.read_codes(i))

    def read_id(self, i: int) -> str:
        ids = self._require_open(self._id_bytes)
        off = self._id_offsets
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
