"""Count-once fused k-mer extraction shared across the multi-k sweep.

The fan-out of :mod:`repro.core.multikmer` runs one assembly per
(assembler, k) pair over the *same* :class:`~repro.seq.readstore.ReadStore`;
every job at one k reads the identical k-mer multiset, and every k walks
the same code array.  Two layers count each once:

* :func:`build_spectra` — **one pass** over the store's flat code array
  produces a :class:`KmerSpectrum` for every k in the sweep, via
  :func:`repro.assembly.kmers.fused_canonical_positions_packed`: both
  strands are packed once at the largest k, and every k-window at every
  start is the masked prefix of one forward and one reverse row.  Each
  k's rows are consumed as its spectrum is built, so the build holds one
  k's sort at a time on top of the spectra it returns.  Each spectrum
  holds the *sorted* distinct canonical rows, their global counts, and
  the occurrence stream (``inverse``/``read_offsets``) that maps every
  N-free window back to its read — enough to reconstruct any
  assembler's per-k extraction, counting or partitioning bit-for-bit
  without touching the codes again.

* :class:`KmerTableCache` — a content-addressed cache keyed by
  ``(store digest, k)`` that is asked *before* anything is built:
  ``get(digest, k)`` serves a spectrum an earlier run over the same
  reads left behind, ``put(spectrum)`` adds a freshly built one,
  counting ``kmer_table.hit`` / ``kmer_table.miss`` /
  ``kmer_table.bytes`` (ks served from / asked for in vain / bytes added
  to the cache) on the active tracer.

A spectrum holds its arrays in one
:class:`~repro.seq.sharedarrays.SharedArrays`, as the :class:`ReadStore`
does; segment lifecycle and ownership rule are that module's.  Here: the
**run** that shared a spectrum closes it (assembly-stage ``finally``)
and the cache drops it on the next ``get``; the **cache**'s own entries
are local arrays, on which ``close`` is a no-op, so they outlive the run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from repro.assembly import kmers
from repro.assembly import packed as packedmod
from repro.assembly.base import contig_order
from repro.assembly.cleanup import CleanupStats, clean_unitigs
from repro.assembly.dbg import KmerTable, extract_unitigs_by_owner
from repro.obs import get_tracer
from repro.seq.readstore import ReadStore
from repro.seq.sharedarrays import SharedArrays

#: A spectrum's arrays and their dtypes, named once (the segment layout);
#: ``distinct`` is ``(n_distinct, W)``, the rest are flat.
FIELDS = {
    "read_offsets": np.int64,
    "counts": np.int64,
    "inverse": np.int64,
    "distinct": np.uint64,
}


@dataclass(frozen=True)
class KmerSpectrumHandle:
    """O(1)-size pickle surrogate for a shared :class:`KmerSpectrum`."""

    shm_name: str
    k: int
    store_digest: str
    n_reads: int
    n_distinct: int
    n_occurrences: int


def _attach(handle: KmerSpectrumHandle) -> "KmerSpectrum":
    """Module-level unpickle hook (bound methods don't pickle portably)."""
    return KmerSpectrum.attach(handle)


class SpectrumPartition(NamedTuple):
    """:meth:`KmerSpectrum.partition`'s read-only result."""

    matrix: np.ndarray  #: (stripe rank, owner rank) occurrence counts
    held: np.ndarray  #: distinct rows each rank owns
    kept: np.ndarray  #: of those, the rows at ``counts >= min_count``
    owners: np.ndarray  #: owner rank of every row of ``table``
    table: KmerTable  #: :meth:`KmerSpectrum.table` at ``min_count``
    walks: tuple  #: per rank ``(unitigs, walk steps)``, seeded by owner
    cleanup: CleanupStats  #: of :func:`clean_unitigs` over all the walks
    contigs: tuple  #: what it kept, in :func:`~repro.assembly.base.contig_order`


class KmerSpectrum:
    """The complete k-mer content of one store at one k, counted once.

    * ``distinct`` — ``(n_distinct, W)`` canonical packed rows in
      ascending key order: :meth:`KmerTable.from_packed` takes them
      as they are.
    * ``counts`` — global multiplicity per distinct row.
    * ``inverse`` — per *occurrence* (N-free window, in store extraction
      order) the index of its distinct row: ``distinct[inverse]`` is
      the store's canonical k-mer stream.
    * ``read_offsets`` — occurrences of read ``i`` are the stream slice
      ``[read_offsets[i], read_offsets[i+1])``, in window start order.
    """

    def __init__(self, k: int, store_digest: str, arrays: SharedArrays) -> None:
        packedmod.check_k(k)
        self.k = k
        self.store_digest = store_digest
        self._arrays = arrays
        self.n_reads = int(arrays["read_offsets"].shape[0]) - 1
        self.n_distinct = int(arrays["counts"].shape[0])
        self.n_occurrences = int(arrays["inverse"].shape[0])
        # Lazily derived, per-process (never shipped): hash-partition
        # owners per rank count.
        self._owners: dict[int, np.ndarray] = {}
        # The graph products derived inside keeping(), until close().
        self._graphs: dict[tuple, object] = {}
        self._keeping = False

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(
        cls, store: ReadStore, k: int, rows: np.ndarray, positions: np.ndarray
    ) -> "KmerSpectrum":
        """Build from one k's fused extraction output (canonical rows +
        global window start positions, both in extraction order)."""
        distinct, inverse, counts = packedmod.unique_inverse_counts(rows, k)
        # Positions ascend, so read i's windows are the stream slice
        # between where offsets[i] and offsets[i + 1] would insert.
        read_offsets = np.searchsorted(positions, store.offsets)
        return cls(
            k,
            store.digest,
            SharedArrays(
                "KmerSpectrum",
                FIELDS,
                dict(
                    read_offsets=read_offsets,
                    counts=counts,
                    inverse=inverse,
                    distinct=distinct,
                ),
            ),
        )

    @classmethod
    def attach(cls, handle: KmerSpectrumHandle) -> "KmerSpectrum":
        """Attach to an existing shared segment (zero-copy); the live
        spectrum when this process already holds the segment."""
        n = handle.n_distinct
        rows = (n, packedmod.words_for(handle.k))
        return SharedArrays.attach(
            "KmerSpectrum",
            FIELDS,
            handle.shm_name,
            (handle.n_reads + 1, n, handle.n_occurrences, rows),
            lambda arrays: cls(handle.k, handle.store_digest, arrays),
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

    def share(self) -> KmerSpectrumHandle:
        """Move the arrays into a shared-memory segment (idempotent) and
        return the O(1) handle workers attach with."""
        self._arrays.share(self)
        return self.handle()

    def handle(self) -> KmerSpectrumHandle:
        """Handle of an already-shared spectrum (see :meth:`share`)."""
        return KmerSpectrumHandle(
            shm_name=self._arrays.shm_name,
            k=self.k,
            store_digest=self.store_digest,
            n_reads=self.n_reads,
            n_distinct=self.n_distinct,
            n_occurrences=self.n_occurrences,
        )

    def close(self, unlink: bool | None = None) -> None:
        """Drop the kept graph products and release the shared segment
        (idempotent; unlinks iff owner).  A never-shared spectrum — the
        table cache's — has no segment and stays open and usable."""
        self._graphs.clear()
        if self._arrays.close(unlink):
            self._owners.clear()

    def __reduce__(self):
        return _attach, (self.share(),)

    # -- array access --------------------------------------------------------

    @property
    def distinct(self) -> np.ndarray:
        """Distinct canonical rows, ``(n_distinct, W)``, ascending key order."""
        return self._arrays["distinct"]

    @property
    def counts(self) -> np.ndarray:
        """Global multiplicity aligned with :attr:`distinct`."""
        return self._arrays["counts"]

    @property
    def inverse(self) -> np.ndarray:
        """Occurrence stream as indices into :attr:`distinct`."""
        return self._arrays["inverse"]

    @property
    def read_offsets(self) -> np.ndarray:
        return self._arrays["read_offsets"]

    @property
    def nbytes(self) -> int:
        """Resident size of the spectrum arrays."""
        return self._arrays.nbytes

    # -- derived views -------------------------------------------------------

    def occ_read(self) -> np.ndarray:
        """Read index of every occurrence."""
        return np.repeat(
            np.arange(self.n_reads, dtype=np.int64), np.diff(self.read_offsets)
        )

    def owners(self, n_ranks: int) -> np.ndarray:
        """Hash-partition owner rank of every distinct row — identical to
        :func:`repro.assembly.kmers.kmer_owner_packed`, computed once per
        rank count and reused by every workload sharing this spectrum."""
        got = self._owners.get(n_ranks)
        if got is None:
            got = kmers.kmer_owner_packed(self.distinct, self.k, n_ranks)
            self._owners[n_ranks] = got
        return got

    @contextmanager
    def keeping(self):
        """Keep each graph product (:meth:`table`, :meth:`partition`)
        derived in the block until :meth:`close`, for later readers here
        and in workers forked after; any other call derives its own."""
        self._keeping = True
        try:
            yield self
        finally:
            self._keeping = False

    def _derive(self, key: tuple, make):
        got = self._graphs.get(key)
        if got is None:
            got = make()
            if self._keeping:
                self._graphs[key] = got
        return got

    def table(self, min_count: int) -> KmerTable:
        """The frozen :class:`KmerTable` (read-only, unitig chains
        ranked) of the rows at ``counts >= min_count``; maybe kept
        (:meth:`keeping`) and shared, so nobody may ``drop_below`` it."""

        def make() -> KmerTable:
            keep = self.counts >= min_count
            return KmerTable.from_packed(
                self.k, self.distinct[keep], self.counts[keep]
            ).freeze()

        return self._derive(("table", min_count), make)

    def partition(self, n_ranks: int, min_count: int) -> SpectrumPartition:
        """Reads striped over ``n_ranks`` ranks, rows hashed to their
        :meth:`owners`, the :meth:`table` at ``min_count`` walked with
        each rank seeding from the rows it owns, and those walks cleaned
        (which depends on their seed order); read-only and maybe kept,
        like :meth:`table`."""

        def make() -> SpectrumPartition:
            p = n_ranks
            owners = self.owners(p)
            # An occurrence in read i lands in cell (i % p, its owner).
            per_read = np.diff(self.read_offsets)
            cell = np.repeat(np.arange(self.n_reads) % p * p, per_read)
            cell += owners[self.inverse]
            matrix = np.bincount(cell, minlength=p * p).reshape(p, p)
            kept_owners = owners[self.counts >= min_count]
            table = self.table(min_count)
            walks = extract_unitigs_by_owner(table, kept_owners, p)
            cleaned, stats = clean_unitigs([u for us, _ in walks for u in us], self.k)
            part = SpectrumPartition(
                matrix,
                np.bincount(owners, minlength=p),
                np.bincount(kept_owners, minlength=p),
                kept_owners,
                table,
                tuple((tuple(mine), steps) for mine, steps in walks),
                stats,
                contig_order(cleaned),
            )
            for arr in part[:4]:
                arr.flags.writeable = False
            return part

        return self._derive(("partition", n_ranks, min_count), make)

    def __repr__(self) -> str:
        state = "shared" if self.shared else ("closed" if self.closed else "local")
        return (
            f"KmerSpectrum(k={self.k}, n_distinct={self.n_distinct}, "
            f"n_occurrences={self.n_occurrences}, {state}, "
            f"digest={self.store_digest[:12]}...)"
        )


def build_spectra(
    store: ReadStore, ks: Iterable[int], span_attrs: dict | None = None
) -> tuple[KmerSpectrum, ...]:
    """Fused count-once extraction: one pass over ``store.codes`` yields a
    :class:`KmerSpectrum` per k, each bit-identical to the per-k path.

    The build runs here, in the calling process, under a
    ``spectrum.build`` span with a ``spectrum.extract`` child and one
    ``spectrum.k`` child per k; the pipeline calls it in the parent on
    every backend.
    """
    ks = tuple(sorted({int(k) for k in ks}))
    if not ks:
        return ()
    tracer = get_tracer()
    with tracer.span(
        "spectrum.build",
        category="spectrum",
        mode="serial",
        ks=list(ks),
        **(span_attrs or {}),
    ):
        with tracer.span("spectrum.extract", category="spectrum"):
            fused = kmers.fused_canonical_positions_packed(store.codes, ks)
        spectra = []
        for k in ks:
            # pop: each k's rows die as its spectrum is born.
            with tracer.span("spectrum.k", category="spectrum", k=k):
                spectra.append(KmerSpectrum.from_rows(store, k, *fused.pop(k)))
        return tuple(spectra)


def resolve_spectrum(
    store: ReadStore, k: int, spectrum: KmerSpectrum | None = None
) -> KmerSpectrum:
    """The spectrum one assembly job reads — the single rule every
    assembler applies before it touches a k-mer.

    The handed ``spectrum`` when it is live and counts ``store`` at
    ``k``; otherwise that one spectrum is built here, serially and
    locally: never shared, never put in or looked up from the table
    cache (a job uses what it was handed and looks nowhere else).  The
    rebuild is what an evicted cache entry, a torn checkpoint or a direct
    call without a spectrum costs, and shows in a trace as a
    ``spectrum.build`` span with ``ks == [k]`` inside the unit.
    """
    if (
        spectrum is not None
        and not spectrum.closed
        and spectrum.k == k
        and spectrum.store_digest == store.digest
    ):
        return spectrum
    return build_spectra(store, (k,))[0]


_merge_shard_spectra = None  # pipebench patch point; ROADMAP 1(a) removes it


class PendingSpectraBuild:  # pipebench patch point; ROADMAP 1(a) removes it
    collect = None


class KmerTableCache:
    """Process-wide cache of spectra keyed by ``(store digest, k)``.

    Looked up before building: the pipeline asks :meth:`get` for every k
    its unsatisfied jobs need, builds only the ks that miss, and
    :meth:`put`s those.  Re-runs over the same pre-processed reads whose
    jobs are *not* assembly-cache hits (another rank count, another
    ``min_count``) therefore reuse the counted spectra instead of
    re-counting.

    Only live spectra are served.  An entry whose run moved it into
    shared memory dies with that run (see the module's ownership rule)
    and is dropped by the next ``get``; local entries stay until evicted
    (LRU, ``max_entries``).
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple[str, int], KmerSpectrum]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, store_digest: str, k: int) -> KmerSpectrum | None:
        """The live spectrum cached for ``(store_digest, k)``, or None."""
        key = (store_digest, k)
        with self._lock:
            got = self._entries.get(key)
            if got is not None and got.closed:
                del self._entries[key]
                got = None
            if got is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("kmer_table.hit" if got is not None else "kmer_table.miss")
        return got

    def put(self, spectrum: KmerSpectrum) -> None:
        """Cache ``spectrum`` under its (digest, k), replacing any entry."""
        key = (spectrum.store_digest, spectrum.k)
        with self._lock:
            self._entries[key] = spectrum
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("kmer_table.bytes", spectrum.nbytes)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide default, mirroring the assembly-cache discipline: a hit
#: is bit-neutral (same digest => same spectrum content), so sharing
#: across runs in one process is always safe.
_DEFAULT_CACHE = KmerTableCache()
_current: KmerTableCache | None = _DEFAULT_CACHE


def get_kmer_table_cache() -> KmerTableCache | None:
    """The active table cache, or None when disabled."""
    return _current


def set_kmer_table_cache(
    cache: KmerTableCache | None,
) -> KmerTableCache | None:
    """Install ``cache`` (None disables); returns the previous one."""
    global _current
    previous = _current
    _current = cache
    return previous


@contextmanager
def use_kmer_table_cache(cache: KmerTableCache | None):
    """Scoped :func:`set_kmer_table_cache` (None disables in the scope)."""
    previous = set_kmer_table_cache(cache)
    try:
        yield cache
    finally:
        set_kmer_table_cache(previous)
