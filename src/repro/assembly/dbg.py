"""De Bruijn graph construction and unitig extraction (packed engine).

The graph is implicit: a :class:`KmerTable` maps canonical k-mers to
coverage counts, and adjacency is discovered by membership queries on the
four possible single-base extensions — the classic hash-based DBG
(Velvet/ABySS/Ray all work this way).

K-mers live in the 2-bit packed representation of
:mod:`repro.assembly.packed`: the table stores sorted packed rows with an
aligned count column, and membership and coverage are batched
``np.searchsorted`` probes.  Unitig extraction is one array kernel with
no step per k-mer (DESIGN.md §14): :meth:`KmerTable.unitig_links` joins
every oriented k-mer to its successors through one sort and one
``searchsorted``, :meth:`KmerTable.unitig_chains` ranks the links into
chains by pointer doubling, and :func:`extract_unitigs` slices, per chain
pair, the unitig of the first seed that touches it out of one buffer.
The tests hold it to equality with the sequential bytes-dict walker
``tests/assembly/kmer_reference.py::legacy_extract_unitigs``: same
unitigs, orientation, coverage, emission order and walk step counts.

The table stores *canonical* k-mers, but a unitig — a maximal path whose
every interior node has exactly one successor and one predecessor — is a
path of *oriented* k-mers: ``2n`` ids over ``n`` rows.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from repro.assembly import packed as packedmod
from repro.seq import alphabet
from repro.seq.readstore import expand_ranges

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
        self.frozen = False
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
        if self.frozen:
            raise ValueError("this KmerTable is frozen (shared read-only)")
        self._packed = np.ascontiguousarray(packed_rows)
        self._counts = counts
        self._keys = key_arr
        self._dict: dict[bytes, int] | None = None
        self._chains: UnitigChains | None = None

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
        if removed or self.frozen:
            self._set_rows(
                self._packed[keep], self._counts[keep], self._keys[keep]
            )
        return removed

    def memory_bytes(self) -> int:
        """Resident size a packed (real-tool) k-mer table would need."""
        return len(self) * KMER_RECORD_BYTES

    # -- adjacency ---------------------------------------------------------

    def _present(self, oriented: bytes, extend) -> np.ndarray:
        """Which of the four one-base ``extend`` neighbours are stored."""
        row = packedmod.pack_bytes_kmer(oriented)
        ext = np.concatenate([extend(row, self.k, b) for b in _BASES], axis=0)
        return self.has_keys(
            packedmod.keys(packedmod.canonicalize(ext, self.k), self.k)
        )

    def successors(self, oriented: bytes) -> list[bytes]:
        """Oriented k-mers reachable by appending one base."""
        found = self._present(oriented, packedmod.extend_right)
        return [oriented[1:] + bytes([b]) for b in _BASES if found[b]]

    def predecessors(self, oriented: bytes) -> list[bytes]:
        """Oriented k-mers reachable by prepending one base."""
        found = self._present(oriented, packedmod.extend_left)
        return [bytes([b]) + oriented[:-1] for b in _BASES if found[b]]

    def unitig_links(self) -> tuple[np.ndarray, np.ndarray]:
        """Non-branching adjacency of the whole graph as ``(link,
        last_base)`` over ``2n`` oriented ids: id ``i`` is canonical row
        ``i`` read forward and ``i + n`` its reverse complement (its
        *mate*).  ``link[o]`` is the id a unitig walk steps to from ``o``
        — ``o``'s only successor, which has ``o`` as its only predecessor
        — or ``-1`` where the walk stops; ``last_base[o]`` is the base a
        step into ``o`` appends.

        The two steps no walk can take are cut (DESIGN.md §14): the
        hairpin ``link[o] == mate(o)``, and the pass *through* a
        palindromic row ``p``, entered only as ``p + n`` and left only
        as ``p``.  That leaves disjoint paths and cycles, each disjoint
        from its mate chain.
        """
        n, k = len(self), self.k
        last_at = np.uint64(64 * self.words - 2 * k)  # bit offset of base k-1
        rows = self._packed
        rc = packedmod.revcomp(rows, k)
        pal = (rows == rc).all(axis=1)
        mate = np.roll(np.arange(2 * n), n)
        # Every distinct oriented k-mer once, in key order, with the id a
        # step enters it by and the id a step leaves it by.
        every = np.concatenate([rows[~pal], rc])
        key = packedmod.keys(every, k)
        by_key = np.argsort(key)
        every, key = every[by_key], key[by_key]
        into = np.concatenate([np.flatnonzero(~pal), mate[:n]])[by_key]
        out_of = np.where(np.concatenate([pal, pal])[into], mate[into], into)
        # The successors of x are the rows with the stem (all but the last
        # base) of extend_right(x, 0), which sorts first among them.
        stem = every.copy()
        stem[:, -1] &= ~(np.uint64(3) << last_at)
        stem = packedmod.keys(stem, k)
        ext = packedmod.keys(packedmod.extend_right(every, k, 0), k)
        at = np.minimum(np.searchsorted(key, ext), every.shape[0] - 1)
        more = np.append(stem[1:] == stem[:-1], False)
        single = (stem[at] == ext) & ~more[at]
        succ = into[at]
        outdeg1 = np.zeros(2 * n, dtype=bool)
        outdeg1[into] = outdeg1[out_of] = single
        step = single & outdeg1[mate[succ]] & (succ != mate[out_of])
        link = np.full(2 * n, -1, dtype=np.int64)
        link[out_of[step]] = succ[step]
        last = np.concatenate([rows[:, -1], rc[:, -1]]) >> last_at
        return link, (last & np.uint64(3)).astype(np.uint8)

    def unitig_chains(self) -> "UnitigChains":
        """:meth:`unitig_links` ranked into chains; cached per row set."""
        if self._chains is None:
            self._chains = _rank_chains(*self.unitig_links())
        return self._chains

    def freeze(self) -> "KmerTable":
        """Make this table shareable: chains ranked now, every array
        read-only, and :meth:`drop_below` / :meth:`add_counts` raising."""
        for arr in (self._packed, self._counts, self._keys, *self.unitig_chains()):
            arr.flags.writeable = False
        self.frozen = True
        return self


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


class UnitigChains(NamedTuple):
    """The paths and cycles of :meth:`KmerTable.unitig_links`, chain by
    chain.  A chain and its mate chain (the same rows read the other way)
    share one ``pair`` number; a cycle is cut at its smallest id."""

    members: np.ndarray  #: the 2n oriented ids, each chain head to tail
    chain: np.ndarray  #: chain number of each oriented id
    rank: np.ndarray  #: its distance from the head of that chain
    start: np.ndarray  #: chain c is ``members[start[c]:start[c + 1]]``
    pair: np.ndarray  #: min(chain, mate chain)
    cyclic: np.ndarray  #: whether each chain is a cut cycle
    last_base: np.ndarray  #: as in :meth:`KmerTable.unitig_links`


def _list_rank(pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(head, distance to it)`` of every node of the disjoint paths that
    predecessor pointers ``pred`` (-1 at a head) describe, by pointer
    doubling; a node on a cycle ends on a ``head`` that has a predecessor."""
    ptr = np.where(pred < 0, np.arange(pred.shape[0]), pred)
    dist = (pred >= 0).astype(np.int64)
    for _ in range(int(pred.shape[0]).bit_length()):
        hop = ptr[ptr]
        if np.array_equal(hop, ptr):
            break
        dist += dist[ptr]
        ptr = hop
    return ptr, dist


def _rank_chains(link: np.ndarray, last_base: np.ndarray) -> UnitigChains:
    size = link.shape[0]
    pred = np.full(size, -1, dtype=np.int64)
    pred[link[link >= 0]] = np.flatnonzero(link >= 0)
    head, rank = _list_rank(pred)
    on_cycle = np.flatnonzero(pred[head] >= 0)
    if on_cycle.size:
        # Cut every cycle at its smallest id: a running minimum over the
        # 2^t nodes behind each one, doubled until it spans any cycle.
        back = np.searchsorted(on_cycle, pred[on_cycle])
        low = on_cycle
        for _ in range(int(on_cycle.size).bit_length()):
            low = np.minimum(low, low[back])
            back = back[back]
        on_cycle = on_cycle[low == on_cycle]
        pred[on_cycle] = -1
        head, rank = _list_rank(pred)
    chain = (np.cumsum(pred < 0) - 1)[head]  # chains numbered by head id
    start = np.concatenate([[0], np.cumsum(np.bincount(chain))])
    members = np.empty(size, dtype=np.int64)
    members[start[chain] + rank] = np.arange(size)
    heads = members[start[:-1]]
    pair = np.minimum(chain[heads], chain[(heads + size // 2) % size])
    cyclic = np.isin(heads, on_cycle)
    return UnitigChains(members, chain, rank, start, pair, cyclic, last_base)


def _emit(
    table: KmerTable, seed_rows: np.ndarray, visited: set | None = None
) -> tuple[np.ndarray, list[Unitig]]:
    """The unitigs a sequential walk over ``seed_rows`` (table row
    indices) emits, in order, and the position in ``seed_rows`` of the
    seed that emits each: the first seed to touch a chain pair emits the
    chain holding its forward id, whole (a cycle: opened at that seed),
    and every later seed of the pair finds its row visited."""
    ch = table.unitig_chains()
    n, k, m = len(table), table.k, seed_rows.shape[0]
    # Position of the first seed of every chain pair; none if visited.
    first = np.full(ch.pair.shape[0], m)
    np.minimum.at(first, ch.pair[ch.chain[seed_rows]], np.arange(m))
    if visited:
        rows = np.fromiter(visited, dtype=np.int64, count=len(visited))
        seen = np.bincount(ch.pair[ch.chain[rows]], minlength=first.shape[0])
        if (seen[seen > 0] != np.diff(ch.start)[seen > 0]).any():
            raise ValueError("visited holds part of a unitig of this table")
        first[seen > 0] = m
    first = np.sort(first[first < m])
    seeds = seed_rows[first]
    c = ch.chain[seeds]
    lo = ch.start[c]
    size = ch.start[c + 1] - lo
    turn = np.where(ch.cyclic[c], ch.rank[seeds], 0)
    which, j = expand_ranges(0, size)
    path = ch.members[lo[which] + (turn[which] + j) % size[which]]
    path_rows = path % n
    if visited is not None:
        visited.update(path_rows.tolist())
    begin = np.cumsum(size) - size
    cov = np.add.reduceat(table.count_array[path_rows], begin) / size
    # One buffer; per unitig the first k-1 bases of its head k-mer, then
    # the last base of every k-mer on the path.
    buf = np.empty(path.shape[0] + c.shape[0] * (k - 1), dtype=np.uint8)
    buf[np.arange(path.shape[0]) + (which + 1) * (k - 1)] = ch.last_base[path]
    head_rows = table.packed[path_rows[begin]]
    flip = path[begin] >= n
    head_rows[flip] = packedmod.revcomp(head_rows[flip], k)
    begin += np.arange(c.shape[0]) * (k - 1)
    head_codes = packedmod.unpack(head_rows, k)[:, : k - 1]
    buf[begin[:, None] + np.arange(k - 1)] = head_codes
    buf.flags.writeable = False  # a spectrum's partition shares unitigs
    columns = (begin, begin + size + k - 1, cov, size)
    return first, [
        Unitig(codes=buf[a:b], coverage=v, n_kmers=s)
        for a, b, v, s in zip(*(col.tolist() for col in columns))
    ]


def extract_unitigs(
    table: KmerTable,
    seeds: Iterable[bytes] | np.ndarray | None = None,
    visited: set | None = None,
) -> tuple[list[Unitig], int]:
    """Extract all unitigs; returns (unitigs, total_walk_steps).

    ``seeds`` restricts the k-mers from which walks may start: a packed
    ``(m, W)`` row array, an iterable of code-bytes k-mers (the
    historical API), or None for every table k-mer in sorted order;
    absent seeds are skipped, of duplicates only the first can emit.
    ``visited`` may be shared across calls *on the same, unmodified
    table* so that different seed shards never emit the same unitig
    twice; it holds table row indices (a node is visited whichever
    strand entered it), always a union of whole chain pairs (anything
    else raises ``ValueError``).  No assembler passes ``seeds`` or
    ``visited`` (Ray and ABySS use :func:`extract_unitigs_by_owner`):
    they are the reference walker's interface, kept for the parity tests.

    The result equals ``kmer_reference.legacy_extract_unitigs`` walking
    the seeds one at a time (:func:`_emit` says why no walk is needed).
    """
    if seeds is None:
        seed_rows = np.arange(len(table))
    else:
        if not isinstance(seeds, np.ndarray):
            seeds = _pack_code_bytes(seeds, table.k)
        rows = np.asarray(seeds, dtype=np.uint64).reshape(-1, table.words)
        found, idx = table.find_keys(packedmod.keys(rows, table.k))
        seed_rows = idx[found]
    _, unitigs = _emit(table, seed_rows, visited)
    return unitigs, sum(u.n_kmers for u in unitigs)


def extract_unitigs_by_owner(
    table: KmerTable, owners: np.ndarray, n_ranks: int
) -> list[tuple[list[Unitig], int]]:
    """``(unitigs, walk_steps)`` of every rank from one pass: what
    ``n_ranks`` :func:`extract_unitigs` calls sharing one ``visited``
    return when rank r's seeds are the rows with ``owners == r``."""
    seed_rows = np.argsort(owners, kind="stable")
    first, unitigs = _emit(table, seed_rows)
    cuts = np.searchsorted(owners[seed_rows[first]], np.arange(n_ranks + 1))
    by_rank = [unitigs[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    return [(mine, sum(u.n_kmers for u in mine)) for mine in by_rank]
