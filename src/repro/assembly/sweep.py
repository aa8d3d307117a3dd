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
  the occurrence stream (``inverse``/``read_offsets``/``rel_positions``)
  that maps every N-free window back to its read and offset — enough to
  reconstruct any assembler's per-k extraction, counting or partitioning
  bit-for-bit without touching the codes again.

* :class:`KmerTableCache` — a content-addressed cache keyed by
  ``(store digest, k)`` that is asked *before* anything is built:
  ``get(digest, k)`` serves a spectrum an earlier run over the same
  reads left behind, ``put(spectrum)`` adds a freshly built one,
  counting ``kmer_table.hit`` / ``kmer_table.miss`` /
  ``kmer_table.bytes`` (ks served from / asked for in vain / bytes added
  to the cache) on the active tracer.

A third layer shards the build itself — opt-in
(``PipelineConfig.spectrum_shards``), because it has lost to the fused
pass in the parent on every measured input (DESIGN §11).  The fused pass
is a single-threaded prefix ahead of the assembly fan-out; with a
pool-backed executor (:func:`submit_spectra_build`) the store is split
into contiguous read-range shards, each worker extracts its shard and
locally sorts/counts it into ``n_buckets`` radix buckets (bucket id =
top bits of packed word 0 — a *prefix* of the sort key, see
:func:`repro.assembly.packed.bucket_ids`), and the parent merges the
per-bucket sorted runs.  Because bucket ids are monotone over sorted
keys, ascending bucket concatenation of per-bucket merges is the
globally sorted distinct array, and the occurrence stream is rebuilt in
shard (= extraction) order — every sharded :class:`KmerSpectrum` is
bit-for-bit equal to the serial one.  The handles overlap with whatever
the parent does between submit and collect (cluster provisioning, in
the pipeline) — milliseconds of simulated-cloud bookkeeping, far less
than the part pickles and the merge cost.

A spectrum holds its arrays in one
:class:`~repro.seq.sharedarrays.SharedArrays`, as the :class:`ReadStore`
does; segment lifecycle and ownership rule are that module's.  Here: the
**run** that shared a spectrum closes it (assembly-stage ``finally``)
and the cache drops it on the next ``get``; the **cache**'s own entries
are local arrays, on which ``close`` is a no-op, so they outlive the run.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.assembly import kmers
from repro.assembly import packed as packedmod
from repro.assembly.dbg import KmerTable, build_kmer_table_packed
from repro.obs import get_tracer
from repro.seq.readstore import ReadStore
from repro.seq.sharedarrays import SharedArrays

#: Default radix-bucket count for the sharded build.  Must be a power of
#: two; 16 keeps per-bucket merges comfortably sized without fragmenting
#: small spectra.
DEFAULT_SPECTRUM_BUCKETS = 16

#: A spectrum's arrays and their dtypes, named once (the segment layout);
#: ``distinct`` is ``(n_distinct, W)``, the rest are flat.
FIELDS = {
    "read_offsets": np.int64,
    "counts": np.int64,
    "inverse": np.int64,
    "rel_positions": np.int64,
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


class KmerSpectrum:
    """The complete k-mer content of one store at one k, counted once.

    * ``distinct`` — ``(n_distinct, W)`` canonical packed rows in
      ascending key order (pre-sorted: tables built from them skip the
      sort via the ``presorted`` fast path).
    * ``counts`` — global multiplicity per distinct row.
    * ``inverse`` — per *occurrence* (N-free window, in store extraction
      order) the index of its distinct row: ``distinct[inverse]`` is
      bit-identical to ``canonical_kmers_store_packed(store, k)``.
    * ``read_offsets`` — occurrences of read ``i`` are the stream slice
      ``[read_offsets[i], read_offsets[i+1])``.
    * ``rel_positions`` — per occurrence, the window start offset within
      its read (trimming filters need it).
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
        # owners per rank count, and the occurrence -> read map.
        self._owners: dict[int, np.ndarray] = {}
        self._occ_read: np.ndarray | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(
        cls, store: ReadStore, k: int, rows: np.ndarray, positions: np.ndarray
    ) -> "KmerSpectrum":
        """Build from one k's fused extraction output (canonical rows +
        global window start positions, both in extraction order)."""
        distinct, inverse, counts = packedmod.unique_inverse_counts(rows, k)
        return cls._from_occurrences(store, k, distinct, counts, inverse, positions)

    @classmethod
    def _from_occurrences(
        cls,
        store: ReadStore,
        k: int,
        distinct: np.ndarray,
        counts: np.ndarray,
        inverse: np.ndarray,
        positions: np.ndarray,
    ) -> "KmerSpectrum":
        """Assemble a spectrum from already-counted parts: sorted distinct
        rows, their counts, the occurrence -> distinct map and the global
        window positions (both in extraction order)."""
        offsets = store.offsets
        # Positions ascend, so read i's windows are the stream slice
        # between where offsets[i] and offsets[i + 1] would insert.
        read_offsets = np.searchsorted(positions, offsets)
        rel_positions = positions - np.repeat(
            offsets[:-1], np.diff(read_offsets)
        )
        return cls(
            k,
            store.digest,
            SharedArrays(
                "KmerSpectrum",
                FIELDS,
                dict(
                    read_offsets=read_offsets,
                    counts=counts,
                    inverse=np.asarray(inverse).ravel(),
                    rel_positions=rel_positions,
                    distinct=distinct,
                ),
            ),
        )

    @classmethod
    def attach(cls, handle: KmerSpectrumHandle) -> "KmerSpectrum":
        """Attach to an existing shared segment (zero-copy); the live
        spectrum when this process already holds the segment."""
        n, n_occ = handle.n_distinct, handle.n_occurrences
        rows = (n, packedmod.words_for(handle.k))
        return SharedArrays.attach(
            "KmerSpectrum",
            FIELDS,
            handle.shm_name,
            (handle.n_reads + 1, n, n_occ, n_occ, rows),
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
        """Release the shared segment (idempotent; unlinks iff owner).
        A never-shared spectrum — the table cache's — has none and stays
        open and usable, derived caches included."""
        if self._arrays.close(unlink):
            self._owners.clear()
            self._occ_read = None

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
    def rel_positions(self) -> np.ndarray:
        return self._arrays["rel_positions"]

    @property
    def nbytes(self) -> int:
        """Resident size of the spectrum arrays."""
        return self._arrays.nbytes

    # -- derived views -------------------------------------------------------

    def occ_read(self) -> np.ndarray:
        """Read index of every occurrence (derived once per process)."""
        if self._occ_read is None:
            per_read = np.diff(self.read_offsets)
            self._occ_read = np.repeat(
                np.arange(self.n_reads, dtype=np.int64), per_read
            )
        return self._occ_read

    def owners(self, n_ranks: int) -> np.ndarray:
        """Hash-partition owner rank of every distinct row — identical to
        :func:`repro.assembly.kmers.kmer_owner_packed`, computed once per
        rank count and reused by every workload sharing this spectrum."""
        got = self._owners.get(n_ranks)
        if got is None:
            got = kmers.kmer_owner_packed(self.distinct, self.k, n_ranks)
            self._owners[n_ranks] = got
        return got

    def table(self) -> KmerTable:
        """A fresh :class:`KmerTable` over the full spectrum (pre-sorted
        fast path; the caller owns it and may ``drop_below`` freely)."""
        return build_kmer_table_packed(
            self.k, self.distinct, self.counts, presorted=True
        )

    def __repr__(self) -> str:
        state = "shared" if self.shared else ("closed" if self.closed else "local")
        return (
            f"KmerSpectrum(k={self.k}, n_distinct={self.n_distinct}, "
            f"n_occurrences={self.n_occurrences}, {state}, "
            f"digest={self.store_digest[:12]}...)"
        )


def build_spectra(
    store: ReadStore,
    ks: Iterable[int],
    executor=None,
    n_shards: int | None = None,
    n_buckets: int = DEFAULT_SPECTRUM_BUCKETS,
    span_attrs: dict | None = None,
) -> tuple[KmerSpectrum, ...]:
    """Fused count-once extraction: one pass over ``store.codes`` yields a
    :class:`KmerSpectrum` per k, each bit-identical to the per-k path.

    Without an ``executor`` — how the pipeline calls it on every backend
    — the build runs here, in the calling process, under a
    ``spectrum.build`` span with a ``spectrum.extract`` child and one
    ``spectrum.k`` child per k.  Passing an ``executor`` whose
    ``supports_overlap`` is true asks for the sharded build across its
    pool workers (submit + immediate collect; see
    :func:`submit_spectra_build` for the overlapped form) — still
    bit-identical.
    """
    ks = tuple(sorted({int(k) for k in ks}))
    if not ks:
        return ()
    if executor is not None and getattr(executor, "supports_overlap", False):
        pending = submit_spectra_build(
            store, ks, executor, n_shards=n_shards, n_buckets=n_buckets
        )
        return pending.collect(span_attrs=span_attrs)
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


@dataclass(frozen=True)
class ShardSpectrumPart:
    """One (shard, k) cell of the sharded build: the shard's locally
    sorted distinct keys/counts, its occurrence stream against those
    local keys, and the bucket boundaries within the sorted keys."""

    keys: np.ndarray  # local distinct sortable keys, ascending
    counts: np.ndarray  # local multiplicity per key
    inverse: np.ndarray  # shard occurrences -> local key index
    positions: np.ndarray  # global window positions, extraction order
    bucket_starts: np.ndarray  # (n_buckets + 1,) slice bounds into keys


@dataclass(frozen=True)
class SpectrumShardWorkload:
    """Pool workload: extract + locally sort/count one read-range shard.

    The store O(1)-pickles over shared memory, so shipping the workload
    costs a handle, not the reads.  Workers run under a thread-local
    :class:`~repro.obs.NullTracer` and return real-clock perf_counter
    stamps so the parent can emit overlap-proving shard spans.
    """

    store: ReadStore
    ks: tuple[int, ...]
    reads_lo: int
    reads_hi: int
    n_buckets: int

    def __call__(self):
        from repro.obs import NullTracer, set_thread_tracer

        previous = set_thread_tracer(NullTracer())
        try:
            r0 = time.perf_counter()
            fused = kmers.fused_canonical_positions_store_packed(
                self.store, self.ks, self.reads_lo, self.reads_hi
            )
            edges = np.arange(self.n_buckets + 1, dtype=np.int64)
            parts: dict[int, ShardSpectrumPart] = {}
            for k in self.ks:
                rows, positions = fused[k]
                distinct, inverse, counts = packedmod.unique_inverse_counts(
                    rows, k
                )
                uniq = packedmod.keys(distinct, k)
                bids = packedmod.bucket_ids(uniq, k, self.n_buckets)
                bucket_starts = np.searchsorted(bids, edges).astype(np.int64)
                parts[k] = ShardSpectrumPart(
                    keys=uniq,
                    counts=counts,
                    inverse=inverse,
                    positions=positions,
                    bucket_starts=bucket_starts,
                )
            r1 = time.perf_counter()
        finally:
            set_thread_tracer(previous)
        return (parts, r0, r1), None


def _shard_ranges(n_reads: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous read ranges covering ``[0, n_reads)``; same sizing rule
    as ``np.array_split`` (first ``n_reads % n_shards`` shards one longer)."""
    n_shards = max(1, min(int(n_shards), n_reads or 1))
    base, extra = divmod(n_reads, n_shards)
    ranges = []
    lo = 0
    for i in range(n_shards):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _merge_shard_spectra(
    store: ReadStore,
    k: int,
    parts: list[ShardSpectrumPart],
    n_buckets: int,
) -> KmerSpectrum:
    """Merge one k's shard parts into the global spectrum.

    Per bucket: concatenate the shards' key runs for that bucket and
    ``np.unique`` them — the merged bucket is sorted, and because bucket
    ids are a prefix of the sort key (monotone over sorted keys),
    appending the buckets in ascending order yields the globally sorted
    distinct array.  Counts are summed exactly (int64 scatter-add), and
    each shard's local inverse is translated through its bucket's merge
    ranks so the concatenated occurrence stream (shard order ==
    extraction order) indexes the global distinct array — bit-identical
    to the serial build.
    """
    trans = [np.empty(p.keys.shape[0], dtype=np.int64) for p in parts]
    key_chunks: list[np.ndarray] = []
    count_chunks: list[np.ndarray] = []
    base = 0
    for b in range(n_buckets):
        seg_keys = []
        seg_counts = []
        bounds = []
        for p in parts:
            lo = int(p.bucket_starts[b])
            hi = int(p.bucket_starts[b + 1])
            bounds.append((lo, hi))
            seg_keys.append(p.keys[lo:hi])
            seg_counts.append(p.counts[lo:hi])
        cat_keys = np.concatenate(seg_keys)
        merged, inv = np.unique(cat_keys, return_inverse=True)
        inv = np.asarray(inv).ravel()
        merged_counts = np.zeros(merged.shape[0], dtype=np.int64)
        np.add.at(merged_counts, inv, np.concatenate(seg_counts))
        off = 0
        for t, (lo, hi) in zip(trans, bounds):
            n_s = hi - lo
            t[lo:hi] = inv[off : off + n_s] + base
            off += n_s
        key_chunks.append(merged)
        count_chunks.append(merged_counts)
        base += merged.shape[0]
    distinct = packedmod.keys_to_packed(np.concatenate(key_chunks), k)
    counts = np.concatenate(count_chunks)
    inverse = np.concatenate([t[p.inverse] for t, p in zip(trans, parts)])
    positions = np.concatenate([p.positions for p in parts])
    return KmerSpectrum._from_occurrences(
        store, k, distinct, counts, inverse, positions
    )


class PendingSpectraBuild:
    """In-flight sharded build: handles out, merge on :meth:`collect`.

    Created by :func:`submit_spectra_build`; the caller does its own work
    (cluster provisioning, planning) between submit and collect — that
    interval is the overlap the shard workers fill.  Any worker failure
    degrades to the serial build (bit-identical result, lost
    optimization), traced as a ``spectrum.build_fallback`` event.
    """

    def __init__(
        self,
        store: ReadStore,
        ks: tuple[int, ...],
        handles: list,
        ranges: list[tuple[int, int]],
        n_buckets: int,
        r_submit: float,
    ) -> None:
        self.store = store
        self.ks = ks
        self._handles = handles
        self._ranges = ranges
        self.n_buckets = n_buckets
        self.n_shards = len(ranges)
        self._r_submit = r_submit

    def collect(self, span_attrs: dict | None = None) -> tuple[KmerSpectrum, ...]:
        """Wait for every shard and merge; bit-identical to the serial
        build (falls back to it outright if any shard failed)."""
        outcomes = [h.outcome() for h in self._handles]
        errors = [o.error for o in outcomes if o.error is not None]
        tracer = get_tracer()
        if errors:
            tracer.event(
                "spectrum.build_fallback",
                category="spectrum",
                error=repr(errors[0]),
            )
            return build_spectra(self.store, self.ks, span_attrs=span_attrs)
        shard_results = [o.result for o in outcomes]
        with tracer.span(
            "spectrum.build",
            category="spectrum",
            mode="sharded",
            ks=list(self.ks),
            n_shards=self.n_shards,
            n_buckets=self.n_buckets,
            r_submit=self._r_submit,
            **(span_attrs or {}),
        ):
            vnow = tracer.clock.now if tracer.clock is not None else None
            for i, ((lo, hi), (_, w0, w1)) in enumerate(
                zip(self._ranges, shard_results)
            ):
                # Zero virtual width; the real interval is the worker's
                # own perf_counter window, which predates this collect —
                # the span-level proof that extraction overlapped the
                # parent's provisioning work.
                tracer.add_span(
                    "spectrum.shard",
                    v_start=vnow,
                    v_end=vnow,
                    category="spectrum",
                    r_start=w0,
                    r_end=w1,
                    shard=i,
                    reads_lo=lo,
                    reads_hi=hi,
                )
            spectra = []
            for k in self.ks:
                with tracer.span("spectrum.merge", category="spectrum", k=k):
                    spectra.append(
                        _merge_shard_spectra(
                            self.store,
                            k,
                            [parts[k] for parts, _, _ in shard_results],
                            self.n_buckets,
                        )
                    )
            return tuple(spectra)


def submit_spectra_build(
    store: ReadStore,
    ks: Iterable[int],
    executor,
    n_shards: int | None = None,
    n_buckets: int = DEFAULT_SPECTRUM_BUCKETS,
) -> PendingSpectraBuild:
    """Launch the sharded build and return immediately.

    ``n_shards`` defaults to the executor's ``max_workers`` — a
    configuration-derived value, so the span structure of a traced run is
    deterministic (never the host's core count).  The store is shared on
    first pickle; each worker attaches zero-copy and processes one
    contiguous read range into ``n_buckets`` radix buckets.
    """
    ks = tuple(sorted({int(k) for k in ks}))
    if not ks:
        raise ValueError("submit_spectra_build needs at least one k")
    if n_buckets < 1 or (n_buckets & (n_buckets - 1)):
        raise ValueError(f"n_buckets must be a power of two, got {n_buckets}")
    if n_shards is None:
        n_shards = int(getattr(executor, "max_workers", 1) or 1)
    ranges = _shard_ranges(store.n_reads, n_shards)
    r_submit = time.perf_counter()
    handles = [
        executor.submit(
            SpectrumShardWorkload(
                store=store,
                ks=ks,
                reads_lo=lo,
                reads_hi=hi,
                n_buckets=n_buckets,
            ),
            None,
        )
        for lo, hi in ranges
    ]
    return PendingSpectraBuild(store, ks, handles, ranges, n_buckets, r_submit)


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
