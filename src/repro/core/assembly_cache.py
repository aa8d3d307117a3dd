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
  a hit is extrapolated to paper scale by the unit's
  :class:`~repro.core.multikmer.AssemblyWorkload`, as a run is;
* a single-unit stage's result (QC, merge, quantification) under
  ``("stage:preprocess", raw digest, PreprocessParams)``,
  ``("stage:merge", fan-out keys)`` or ``("stage:quantify", filtered
  digest, fan-out keys)``; its usage is raw too, scaled by the agent.

The pilot agent is the one place a unit's key is asked about
(:meth:`~repro.pilot.agent.PilotAgent.submit`): after the checkpoint
store it looks the key up here, runs a hit inline and prices it like a
re-run, so the virtual TTC stays bit-identical; every keyed outcome it
collects is put here, in its own process, whichever backend computed it.
Both ``get`` and ``put`` copy an entry's lists, dicts, arrays and usage
record, so callers can never poison a cached entry; a QC entry's
filtered :class:`~repro.seq.readstore.ReadStore` is shared read-only, as
``ReadStore.alias()`` shares it.  A key's :func:`family` names its
counters: assembly lookups count in ``hits`` / ``misses`` and the
tracer's ``assembly_cache.*``, stage lookups as ``stage_cache.hit`` /
``stage_cache.miss`` only.  Both kinds share one LRU bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import fields, replace
from typing import TYPE_CHECKING, Hashable, Iterator

import numpy as np

from repro.obs import get_tracer
from repro.parallel.usage import ResourceUsage

if TYPE_CHECKING:
    from repro.assembly.contigs import AssemblyResult
    from repro.core.merge import MergeResult
    from repro.core.preprocess import PreprocessResult
    from repro.core.quantify import QuantificationResult

    Entry = AssemblyResult | PreprocessResult | MergeResult | QuantificationResult

CacheKey = tuple[Hashable, ...]


def family(key: CacheKey) -> str:
    """The counters a key's lookups count under: ``"stage_cache"`` for a
    single-unit stage (its key begins ``"stage:"``), else
    ``"assembly_cache"`` (an assembly key begins with a hex digest)."""
    return "stage_cache" if str(key[0]).startswith("stage:") else "assembly_cache"


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

    def get(self, key: CacheKey, **attrs) -> Entry | None:
        """A copy of the entry under ``key`` (None if absent), made the
        most recently used and counted under the key's :func:`family`;
        ``attrs`` (the unit's tags) label the ``assembly_cache.lookup``
        event."""
        name = family(key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            if name == "assembly_cache":
                self.hits += entry is not None
                self.misses += entry is None
        outcome = "miss" if entry is None else "hit"
        tracer = get_tracer()
        tracer.count(f"{name}.{outcome}")
        if name == "assembly_cache":
            tracer.event(
                "assembly_cache.lookup", category="cache", outcome=outcome, **attrs
            )
        return None if entry is None else _copy(entry)

    def put(self, key: CacheKey, result: Entry, **attrs) -> bool:
        """Insert a raw result; an existing entry is kept (first write
        wins — results for one key are identical by determinism).
        Returns True when the result was inserted, False when kept; an
        assembly put is counted either way."""
        with self._lock:
            inserted = key not in self._entries
            if inserted:
                self._entries[key] = _copy(result)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        if family(key) == "assembly_cache":
            outcome = "inserted" if inserted else "kept"
            tracer = get_tracer()
            tracer.count("assembly_cache.put")
            tracer.event(
                "assembly_cache.put", category="cache", outcome=outcome, **attrs
            )
        return inserted

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
