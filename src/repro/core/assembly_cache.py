"""Content-addressed cache of assembly results.

S2 VM reuse, pilot restart loops and repeated benchmark/MAMP sweeps all
re-run assemblies over byte-identical inputs.  Every in-tree assembler
is deterministic — the same encoded reads, parameters and rank count
always produce the same contigs *and* the same measured
:class:`~repro.parallel.usage.ResourceUsage` — so re-running one is pure
redundancy.  This cache keys raw results by

``(ReadStore.digest, assembler name, AssemblyParams, n_ranks)``

— any change to the reads' bases/qualities/ids, to any parameter, or to
the rank count changes the key and misses.  Cached values are the *raw*
(unextrapolated) :class:`~repro.assembly.contigs.AssemblyResult`;
:class:`~repro.core.multikmer.AssemblyWorkload` re-applies paper-scale
extrapolation per call, so a hit is observably identical to a re-run:
the cost model prices the same usage record and the virtual TTC stays
bit-identical.  Hits surface as ``assembly_cache.hit`` counters/events
on the active :mod:`repro.obs` tracer.

Both ``get`` and ``put`` copy the mutable result shells (contig list,
usage phases, stats dict), so callers can never poison a cached entry.

Process-pool note: workers forked from the parent inherit the current
cache contents copy-on-write, but their inserts stay in the worker.
:func:`repro.core.multikmer.collect_assembly_results` therefore records
collected results into the parent's cache, and because pools are created
lazily per executor, later fan-outs fork workers that already see them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Hashable, Iterator

from repro.assembly.contigs import AssemblyResult
from repro.parallel.usage import ResourceUsage

CacheKey = tuple[str, str, Hashable, int]


def _copy_result(result: AssemblyResult) -> AssemblyResult:
    """Defensive copy: AssemblyResult and ResourceUsage are mutable
    shells around immutable contents (Contig and PhaseUsage are frozen)."""
    usage = result.usage
    return AssemblyResult(
        assembler=result.assembler,
        k=result.k,
        contigs=list(result.contigs),
        usage=ResourceUsage(
            phases=list(usage.phases),
            peak_rank_memory_bytes=usage.peak_rank_memory_bytes,
            n_ranks=usage.n_ranks,
        ),
        stats=dict(result.stats),
    )


class AssemblyCache:
    """Thread-safe LRU cache of raw assembly results."""

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, AssemblyResult]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: CacheKey) -> AssemblyResult | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return _copy_result(entry)

    def put(self, key: CacheKey, result: AssemblyResult) -> bool:
        """Insert a raw result; an existing entry is kept (first write
        wins — results for one key are identical by determinism).
        Returns True when the result was inserted, False when kept."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return False
            self._entries[key] = _copy_result(result)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        """Side-effect-free probe: no hit/miss counted, no LRU move."""
        with self._lock:
            return key in self._entries


#: Process-wide default: on by default — hits are bit-identical to
#: re-runs, so sharing across pipeline runs in one process is safe.
_DEFAULT_CACHE = AssemblyCache()
_current: AssemblyCache | None = _DEFAULT_CACHE


def get_assembly_cache() -> AssemblyCache | None:
    """The active cache, or None when caching is disabled."""
    return _current


def set_assembly_cache(cache: AssemblyCache | None) -> AssemblyCache | None:
    """Install ``cache`` (None disables); returns the previous one."""
    global _current
    previous = _current
    _current = cache
    return previous


@contextmanager
def use_assembly_cache(cache: AssemblyCache | None) -> Iterator[AssemblyCache | None]:
    """Scoped :func:`set_assembly_cache` (None disables within the scope)."""
    previous = set_assembly_cache(cache)
    try:
        yield cache
    finally:
        set_assembly_cache(previous)
