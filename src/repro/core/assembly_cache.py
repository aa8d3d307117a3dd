"""The run cache: content-addressed results of every pipeline unit.

S2 VM reuse, pilot restart loops and repeated benchmark/MAMP sweeps all
re-run units over byte-identical inputs.  Every unit is deterministic —
the same inputs always produce the same result *and* the same measured
:class:`~repro.parallel.usage.ResourceUsage` — so re-running one is pure
redundancy.  Each result is kept under the content key its checkpoint
record uses, and any change to the reads, a parameter or the rank count
changes the key and misses:

* an assembly job's raw :class:`~repro.assembly.contigs.AssemblyResult`
  under ``(ReadStore.digest, assembler name, AssemblyParams, n_ranks)``;
  :class:`~repro.core.multikmer.AssemblyWorkload` extrapolates it to
  paper scale per call;
* a single-unit stage's result (QC, merge, quantification) under
  ``("stage:preprocess", raw digest, PreprocessParams)``,
  ``("stage:merge", fan-out keys)`` or ``("stage:quantify", filtered
  digest, fan-out keys)``; its usage is raw too, scaled by the agent.

So a hit is priced like a re-run and the virtual TTC stays bit-identical.
Both ``get`` and ``put`` copy an entry's lists, dicts, arrays and usage
record, so callers can never poison a cached entry; a QC entry's
filtered :class:`~repro.seq.readstore.ReadStore` is shared read-only, as
``ReadStore.alias()`` shares it.  ``hits`` / ``misses`` and the tracer's
``assembly_cache.*`` counters count assembly lookups (``get``) only; the
pipeline counts stage lookups (``lookup``) as ``stage_cache.hit`` /
``stage_cache.miss``.  Both kinds share one LRU bound.

Process-pool note: workers forked from the parent inherit the current
cache contents copy-on-write, but their inserts stay in the worker.
:func:`repro.core.multikmer.collect_assembly_results` therefore records
collected results into the parent's cache, and because pools are created
lazily per executor, later fan-outs fork workers that already see them.
Single-unit stages always run in the parent.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import fields, replace
from typing import TYPE_CHECKING, Hashable, Iterator

import numpy as np

from repro.parallel.usage import ResourceUsage

if TYPE_CHECKING:
    from repro.assembly.contigs import AssemblyResult
    from repro.core.merge import MergeResult
    from repro.core.preprocess import PreprocessResult
    from repro.core.quantify import QuantificationResult

    Entry = AssemblyResult | PreprocessResult | MergeResult | QuantificationResult

CacheKey = tuple[Hashable, ...]


def _copy(entry):
    """Defensive copy of a dataclass shell: its lists, dicts and arrays
    are copied and its usage record is copied the same way; what they
    hold (frozen Contig and PhaseUsage, strings, numbers) is immutable."""
    shells = {}
    for f in fields(entry):
        value = getattr(entry, f.name)
        if isinstance(value, (list, dict, np.ndarray)):
            shells[f.name] = value.copy()
        elif isinstance(value, ResourceUsage):
            shells[f.name] = _copy(value)
    return replace(entry, **shells)


class AssemblyCache:
    """Thread-safe LRU cache of raw unit results."""

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: CacheKey) -> AssemblyResult | None:
        """An assembly job's result, counted in ``hits`` / ``misses``."""
        entry = self.lookup(key)
        with self._lock:
            self.hits += entry is not None
            self.misses += entry is None
        return entry

    def lookup(self, key: CacheKey) -> Entry | None:
        """A copy of the entry under ``key`` (None if absent), made the
        most recently used; counts nothing."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
        return _copy(entry)

    def put(self, key: CacheKey, result: Entry) -> bool:
        """Insert a raw result; an existing entry is kept (first write
        wins — results for one key are identical by determinism).
        Returns True when the result was inserted, False when kept."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return False
            self._entries[key] = _copy(result)
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
