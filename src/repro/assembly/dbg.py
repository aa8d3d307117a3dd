"""De Bruijn graph construction and unitig extraction (packed engine).

The graph is implicit: a :class:`KmerTable` maps canonical k-mers to
coverage counts, and adjacency is discovered by membership queries on the
four possible single-base extensions — the classic hash-based DBG
(Velvet/ABySS/Ray all work this way).

K-mers live in the 2-bit packed representation of
:mod:`repro.assembly.packed`: the table stores sorted packed rows with an
aligned count column, and membership and coverage are batched
``np.searchsorted`` probes.  :func:`extract_unitigs` never probes k-mer by
k-mer: :meth:`KmerTable.unitig_links` resolves the non-branching
adjacency of the *whole* table in four batched passes (one per appended
base, over both orientations of every row), and the walk then follows
integer links seed by seed.  The invariant the tests hold it to is
equality with the sequential bytes-dict walker frozen in
``repro.assembly.reference_impl.legacy_extract_unitigs`` — same unitigs,
orientation, coverage, emission order and walk step counts — so only
real wall-time differs from the historical engine.

Orientation handling: the table stores *canonical* k-mers, but walking
operates on *oriented* k-mers; every membership test canonicalizes first.
A unitig is a maximal path along which every interior node has exactly
one successor and one predecessor.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.assembly import packed as packedmod
from repro.seq import alphabet

_BASES = (0, 1, 2, 3)

#: Resident bytes per stored k-mer.  The real assemblers pack k-mers into
#: 2-bit words with open-addressing tables (Ray ~14 B, ABySS ~16 B per
#: k-mer); memory extrapolations to paper scale use this constant, which
#: the packed layout (two uint64 words) now matches physically.
KMER_RECORD_BYTES = 16


def _pack_code_bytes(kmers: Iterable[bytes], k: int) -> np.ndarray:
    """Pack code-bytes k-mers into ``(m, W)`` rows."""
    raw = b"".join(bytes(km) for km in kmers)
    return packedmod.pack(np.frombuffer(raw, dtype=np.uint8).reshape(-1, k))


class KmerTable:
    """Canonical k-mer -> coverage count, as sorted packed rows.

    Rows are kept sorted by packed key (== bytes-lexicographic k-mer
    order), with counts in an aligned ``int64`` column.  All lookups are
    batched binary searches; the ``counts`` property materializes the
    historical ``dict[bytes, int]`` view on demand for compatibility.
    """

    def __init__(self, k: int, counts: dict[bytes, int] | None = None) -> None:
        packedmod.check_k(k)
        self.k = k
        self.words = packedmod.words_for(k)
        empty = np.zeros((0, self.words), dtype=np.uint64)
        self._set_rows(
            empty, np.zeros(0, dtype=np.int64), packedmod.keys(empty, k)
        )
        if counts:
            self.add_counts(counts)

    def _set_rows(
        self, packed_rows: np.ndarray, counts: np.ndarray, key_arr: np.ndarray
    ) -> None:
        """Install sorted rows + aligned counts/keys; every view derived
        from the previous rows (dict, unitig links) is dropped with them."""
        self._packed = np.ascontiguousarray(packed_rows)
        self._counts = counts
        self._keys = key_arr
        self._dict: dict[bytes, int] | None = None
        self._links: tuple[list[int], np.ndarray] | None = None

    @classmethod
    def from_packed(
        cls,
        k: int,
        packed_rows: np.ndarray,
        counts: np.ndarray,
        presorted: bool = False,
    ) -> "KmerTable":
        """Build from *distinct* packed rows and their counts.

        ``presorted=True`` skips the sort for rows already in ascending
        key order — the cache-served path of the fused extraction layer
        (:mod:`repro.assembly.sweep`), where the shared spectrum stores
        its distinct rows sorted once.  Sortedness is re-checked only
        under :data:`repro.assembly.packed.DEBUG_SORTED_ENV`.
        """
        t = cls(k)
        rows = np.asarray(packed_rows, dtype=np.uint64).reshape(-1, t.words)
        key_arr = packedmod.keys(rows, k)
        if presorted:
            if packedmod.debug_assert_sorted_enabled():
                packedmod.assert_sorted(key_arr)
            t._set_rows(rows, np.asarray(counts, dtype=np.int64), key_arr)
            return t
        order = np.argsort(key_arr, kind="stable")
        t._set_rows(
            rows[order],
            np.asarray(counts, dtype=np.int64)[order],
            key_arr[order],
        )
        return t

    # -- views -------------------------------------------------------------

    @property
    def packed(self) -> np.ndarray:
        """Sorted canonical rows, ``(n, W)`` uint64 (do not mutate)."""
        return self._packed

    @property
    def key_array(self) -> np.ndarray:
        """Sorted 1-D key array aligned with :attr:`packed`."""
        return self._keys

    @property
    def count_array(self) -> np.ndarray:
        """Coverage counts aligned with :attr:`packed`."""
        return self._counts

    @property
    def counts(self) -> dict[bytes, int]:
        """Read-only dict view (canonical code-bytes -> count), in sorted
        k-mer order — the historical representation, built lazily."""
        if self._dict is None:
            kms = packedmod.unpack_to_bytes(self._packed, self.k)
            self._dict = dict(zip(kms, self._counts.tolist()))
        return self._dict

    def __len__(self) -> int:
        return int(self._counts.shape[0])

    # -- batched lookups ----------------------------------------------------

    def find_keys(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact-key membership + table row index for an array of packed
        keys (the index is meaningful only where found)."""
        n = self._keys.shape[0]
        m = query.shape[0]
        if n == 0 or m == 0:
            return np.zeros(m, dtype=bool), np.zeros(m, dtype=np.int64)
        idx = np.minimum(np.searchsorted(self._keys, query), n - 1)
        return self._keys[idx] == query, idx

    def lookup_keys(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact-key membership + coverage for an array of packed keys."""
        found, idx = self.find_keys(query)
        if not found.any():
            return found, np.zeros(found.shape[0], dtype=np.int64)
        return found, np.where(found, self._counts[idx], 0)

    def has_keys(self, query: np.ndarray) -> np.ndarray:
        """Exact-key membership only."""
        return self.find_keys(query)[0]

    # -- single-k-mer compatibility API ------------------------------------

    def _lookup_oriented(self, oriented: bytes) -> tuple[bool, int]:
        row = packedmod.canonicalize(packedmod.pack_bytes_kmer(oriented), self.k)
        found, cov = self.lookup_keys(packedmod.keys(row, self.k))
        return bool(found[0]), int(cov[0])

    def __contains__(self, oriented: bytes) -> bool:
        return self._lookup_oriented(oriented)[0]

    def coverage(self, oriented: bytes) -> int:
        return self._lookup_oriented(oriented)[1]

    def add_counts(self, other: dict[bytes, int]) -> None:
        """Merge a counts dict (keys must already be canonical)."""
        if not other:
            return
        rows = _pack_code_bytes(other.keys(), self.k)
        cnt = np.fromiter(other.values(), dtype=np.int64, count=len(other))
        all_rows = np.concatenate([self._packed, rows], axis=0)
        all_cnt = np.concatenate([self._counts, cnt])
        key_arr = packedmod.keys(all_rows, self.k)
        uniq, first, inverse = np.unique(
            key_arr, return_index=True, return_inverse=True
        )
        summed = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(summed, inverse, all_cnt)
        self._set_rows(all_rows[first], summed, uniq)

    def drop_below(self, min_count: int) -> int:
        """Remove k-mers with coverage below ``min_count``; returns #removed."""
        keep = self._counts >= min_count
        removed = int(keep.size - keep.sum())
        if removed:
            self._set_rows(
                self._packed[keep], self._counts[keep], self._keys[keep]
            )
        return removed

    def memory_bytes(self) -> int:
        """Resident size a packed (real-tool) k-mer table would need."""
        return len(self) * KMER_RECORD_BYTES

    # -- adjacency ---------------------------------------------------------

    def successors(self, oriented: bytes) -> list[bytes]:
        """Oriented k-mers reachable by appending one base."""
        row = packedmod.pack_bytes_kmer(oriented)
        ext = np.concatenate(
            [packedmod.extend_right(row, self.k, b) for b in _BASES], axis=0
        )
        found = self.has_keys(
            packedmod.keys(packedmod.canonicalize(ext, self.k), self.k)
        )
        suffix = oriented[1:]
        return [suffix + bytes([b]) for b in _BASES if found[b]]

    def predecessors(self, oriented: bytes) -> list[bytes]:
        """Oriented k-mers reachable by prepending one base."""
        row = packedmod.pack_bytes_kmer(oriented)
        ext = np.concatenate(
            [packedmod.extend_left(row, self.k, b) for b in _BASES], axis=0
        )
        found = self.has_keys(
            packedmod.keys(packedmod.canonicalize(ext, self.k), self.k)
        )
        prefix = oriented[:-1]
        return [bytes([b]) + prefix for b in _BASES if found[b]]

    def unitig_links(self) -> tuple[list[int], np.ndarray]:
        """Non-branching adjacency of the whole graph, built once per
        row set and cached: ``(link, last_base)`` over ``2n`` oriented
        ids, where id ``i`` is canonical row ``i`` read forward and
        ``i + n`` its reverse complement (its *mate*).

        ``link[o]`` is the oriented id a unitig walk steps to from ``o``
        — ``o``'s only successor, which in turn has ``o`` as its only
        predecessor — or ``-1`` where the walk must stop.  Four batched
        passes, one per appended base, probe every oriented k-mer's
        extension; predecessors need no probes because the predecessors
        of ``v`` are the mates of the successors of ``mate(v)``, so
        ``indeg[v] == outdeg[mate(v)]``.  ``last_base[o]`` is the base a
        step into ``o`` appends.  A palindromic k-mer (even k) has two
        identical rows and canonicalizes to the forward id.
        """
        if self._links is None:
            self._links = self._build_links()
        return self._links

    def _build_links(self) -> tuple[list[int], np.ndarray]:
        n, k = len(self), self.k
        if n == 0:
            return [], np.zeros(0, dtype=np.uint8)
        rows = self._packed
        oriented = np.concatenate([rows, packedmod.revcomp(rows, k)])
        outdeg = np.zeros(2 * n, dtype=np.int8)
        succ = np.zeros(2 * n, dtype=np.int64)
        for b in _BASES:  # one base at a time: 2n x W transient words
            ext = packedmod.extend_right(oriented, k, b)
            canon = packedmod.canonicalize(ext, k)
            found, idx = self.find_keys(packedmod.keys(canon, k))
            idx[(canon != ext).any(axis=1)] += n
            succ[found] = idx[found]
            outdeg += found
        unique = outdeg == 1
        into_unique = unique[np.where(succ < n, succ + n, succ - n)]
        link = np.where(unique & into_unique, succ, -1)
        first = (rows[:, 0] >> np.uint64(62)).astype(np.uint8)
        last = (
            (rows[:, -1] >> np.uint64(64 * self.words - 2 * k)) & np.uint64(3)
        ).astype(np.uint8)
        return link.tolist(), np.concatenate([last, 3 - first])


def build_kmer_table(k: int, counts: dict[bytes, int]) -> KmerTable:
    """Wrap a counts dict (keys must already be canonical)."""
    return KmerTable(k=k, counts=counts)


def build_kmer_table_packed(
    k: int,
    packed_rows: np.ndarray,
    counts: np.ndarray,
    presorted: bool = False,
) -> KmerTable:
    """Wrap distinct packed canonical rows + counts without conversions."""
    return KmerTable.from_packed(k, packed_rows, counts, presorted=presorted)


class Unitig:
    """A maximal non-branching path: its sequence codes and coverage."""

    __slots__ = ("codes", "coverage", "n_kmers")

    def __init__(self, codes: np.ndarray, coverage: float, n_kmers: int):
        self.codes = codes  # uint8, length >= k
        self.coverage = coverage  # mean k-mer coverage
        self.n_kmers = n_kmers

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Unitig)
            and np.array_equal(self.codes, other.codes)
            and self.coverage == other.coverage
            and self.n_kmers == other.n_kmers
        )

    def __repr__(self) -> str:
        return (
            f"Unitig(len={len(self)}, coverage={self.coverage:.2f}, "
            f"n_kmers={self.n_kmers})"
        )

    @property
    def seq(self) -> str:
        return alphabet.decode(self.codes)


def _seed_rows(table: KmerTable, seeds) -> Sequence[int]:
    """Table row index of every seed present under its exact key, in
    seed order (duplicates kept; the walk skips them as visited)."""
    if seeds is None:
        return range(len(table))
    if isinstance(seeds, np.ndarray):
        rows = np.asarray(seeds, dtype=np.uint64).reshape(-1, table.words)
    else:
        rows = _pack_code_bytes(seeds, table.k)
    found, idx = table.find_keys(packedmod.keys(rows, table.k))
    return idx[found].tolist()


def extract_unitigs(
    table: KmerTable,
    seeds: Iterable[bytes] | np.ndarray | None = None,
    visited: set | None = None,
) -> tuple[list[Unitig], int]:
    """Extract all unitigs; returns (unitigs, total_walk_steps).

    ``seeds`` restricts the k-mers from which walks may start (used by the
    distributed assemblers to attribute work to ranks): a packed ``(m, W)``
    row array (the fast path), an iterable of code-bytes k-mers (the
    historical API), or None for every table k-mer in sorted order.
    ``visited`` may be shared across calls *on the same, unmodified table*
    so that different rank shards never emit the same unitig twice; it
    holds table row indices (a node is visited whichever strand entered
    it).

    Seeds are walked one at a time, in order, over the table's cached
    :meth:`KmerTable.unitig_links`: right from the seed, then right from
    its mate (the left arm), each arm stopping at a ``-1`` link or a
    visited node.  This is ``reference_impl.legacy_extract_unitigs`` on
    integers, and equality with it — unitigs, orientation, emission
    order, step count — is the invariant the tests hold it to.
    """
    if visited is None:
        visited = set()
    n = len(table)
    link, last_base = table.unitig_links()
    walks: list[tuple[int, list[int], list[int]]] = []
    for seed in _seed_rows(table, seeds):
        if seed in visited:
            continue
        visited.add(seed)
        arms: tuple[list[int], list[int]] = ([], [])
        for o, arm in zip((seed, seed + n), arms):
            while True:
                o = link[o]
                if o < 0:
                    break
                node = o if o < n else o - n
                if node in visited:
                    break  # loop, palindromic re-entry or an earlier walk
                visited.add(node)
                arm.append(o)
        walks.append((seed, *arms))
    if not walks:
        return [], 0

    seed_codes = packedmod.unpack(
        table.packed[[seed for seed, _, _ in walks]], table.k
    )
    counts = table.count_array
    unitigs: list[Unitig] = []
    steps = 0
    for codes, (seed, right, left) in zip(seed_codes, walks):
        path = np.array([seed, *right, *left], dtype=np.int64)
        if path.size > 1:
            codes = np.concatenate(
                [3 - last_base[left][::-1], codes, last_base[right]]
            )
        steps += path.size
        unitigs.append(
            Unitig(
                codes=codes,
                coverage=int(counts[path % n].sum()) / path.size,
                n_kmers=path.size,
            )
        )
    return unitigs, steps
