"""De Bruijn graph construction and unitig extraction.

The graph is implicit: a :class:`KmerTable` maps canonical k-mers to
coverage counts, and an edge joins two k-mers that overlap by k-1 bases
— the classic hash-based DBG (Velvet/ABySS/Ray all work this way).

K-mers live in the 2-bit packed representation of
:mod:`repro.assembly.packed`: the table stores sorted packed rows with an
aligned count column, and coverage lookups are batched
``np.searchsorted`` probes.  Unitig extraction is one array kernel with
no step per k-mer (DESIGN.md §14): :meth:`KmerTable.unitig_links` links
every oriented k-mer to its successor through one sort of the (k-1)-mer
junctions and one ``bincount``, :meth:`KmerTable.unitig_chains` ranks
the links into chains by pointer doubling, and :func:`_emit` slices, per
chain pair, the unitig of the first seed that touches it out of one
buffer.  The two entry points are :func:`extract_unitigs` (every row a
seed, in table order: Velvet, Trinity) and
:func:`extract_unitigs_by_owner` (the seeds of each rank in turn: Ray,
ABySS).  The tests hold both to equality with
the sequential bytes-dict walker
``tests/assembly/kmer_reference.py::legacy_extract_unitigs``: same
unitigs, orientation, coverage, emission order and walk step counts.

The table stores *canonical* k-mers, but a unitig — a maximal path whose
every interior node has exactly one successor and one predecessor — is a
path of *oriented* k-mers: ``2n`` ids over ``n`` rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.assembly import packed as packedmod
from repro.seq import alphabet
from repro.seq.readstore import expand_ranges

#: Resident bytes per stored k-mer.  The real assemblers pack k-mers into
#: 2-bit words with open-addressing tables (Ray ~14 B, ABySS ~16 B per
#: k-mer); memory extrapolations to paper scale use this constant, which
#: the packed layout (two uint64 words) now matches physically.
KMER_RECORD_BYTES = 16


class KmerTable:
    """Canonical k-mer -> coverage count, as sorted packed rows.

    Rows are kept sorted by packed key (== lexicographic k-mer order),
    with counts in an aligned ``int64`` column.  All lookups are batched
    binary searches.  A new table is empty; :meth:`from_packed` fills one.
    """

    def __init__(self, k: int) -> None:
        packedmod.check_k(k)
        self.k = k
        self.words = packedmod.words_for(k)
        self.frozen = False
        self._set_rows(
            np.zeros((0, self.words), dtype=np.uint64), np.zeros(0, dtype=np.int64)
        )

    def _set_rows(self, packed_rows: np.ndarray, counts: np.ndarray) -> None:
        """Install sorted rows + aligned counts; the keys and unitig
        chains derived from the previous rows are dropped with them."""
        if self.frozen:
            raise ValueError("this KmerTable is frozen (shared read-only)")
        self._packed = np.ascontiguousarray(packed_rows)
        self._counts = counts
        self._keys: np.ndarray | None = None
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
        its distinct rows sorted once.  The order is checked in one pass
        (:func:`repro.assembly.packed.require_ascending`): rows out of
        order or repeated raise ``ValueError``.
        """
        t = cls(k)
        rows = np.asarray(packed_rows, dtype=np.uint64).reshape(-1, t.words)
        counts = np.asarray(counts, dtype=np.int64)
        if presorted:
            packedmod.require_ascending(rows)
            t._set_rows(rows, counts)
            return t
        order = np.argsort(packedmod.keys(rows, k), kind="stable")
        t._set_rows(rows[order], counts[order])
        return t

    # -- views -------------------------------------------------------------

    @property
    def packed(self) -> np.ndarray:
        """Sorted canonical rows, ``(n, W)`` uint64 (do not mutate)."""
        return self._packed

    @property
    def key_array(self) -> np.ndarray:
        """Sorted 1-D key array aligned with :attr:`packed` (read-only),
        built on first use: no kernel of a run reads it."""
        if self._keys is None:
            self._keys = packedmod.keys(self._packed, self.k)
            self._keys.flags.writeable = False
        return self._keys

    @property
    def count_array(self) -> np.ndarray:
        """Coverage counts aligned with :attr:`packed`."""
        return self._counts

    def __len__(self) -> int:
        return int(self._counts.shape[0])

    # -- batched lookups ----------------------------------------------------

    def lookup_keys(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact-key membership + coverage for an array of packed keys."""
        key_arr = self.key_array
        n, m = key_arr.shape[0], query.shape[0]
        if n == 0 or m == 0:
            return np.zeros(m, dtype=bool), np.zeros(m, dtype=np.int64)
        idx = np.minimum(np.searchsorted(key_arr, query), n - 1)
        found = key_arr[idx] == query
        return found, np.where(found, self._counts[idx], 0)

    def drop_below(self, min_count: int) -> int:
        """Remove k-mers with coverage below ``min_count``; returns #removed."""
        keep = self._counts >= min_count
        removed = int(keep.size - keep.sum())
        if removed or self.frozen:
            self._set_rows(self._packed[keep], self._counts[keep])
        return removed

    def memory_bytes(self) -> int:
        """Resident size a packed (real-tool) k-mer table would need."""
        return len(self) * KMER_RECORD_BYTES

    # -- adjacency ---------------------------------------------------------

    def unitig_links(self) -> tuple[np.ndarray, np.ndarray]:
        """Non-branching adjacency of the whole graph as ``(link,
        last_base)`` over ``2n`` oriented ids: id ``i`` is canonical row
        ``i`` read forward and ``i + n`` its reverse complement (its
        *mate*).  ``link[o]`` is the id a unitig walk steps to from ``o``
        — ``o``'s only successor, which has ``o`` as its only predecessor
        — or ``-1`` where the walk stops; ``last_base[o]`` is the base a
        step into ``o`` appends.

        Both come from the (k-1)-mer junction table
        (:func:`repro.assembly.packed.junctions`, DESIGN.md §14): a
        junction that exactly one id ends with and exactly one id starts
        with links the first to the second, and the two mates the other
        way.  The two steps no walk can take are cut: the hairpin
        ``link[o] == mate(o)``, which turns on a junction that is its own
        reverse complement, and the pass *through* a palindromic row
        ``p``, counted once, by its last bases, so that it is entered
        only as ``p + n`` and left only as ``p``.  That leaves disjoint
        paths and cycles, each disjoint from its mate chain.
        """
        n, k = len(self), self.k
        rows = self._packed
        junction, is_rc, pal = packedmod.junctions(rows, k)
        size = pal.shape[0]
        # End e (row e % n's first k-1 bases if e < n, else its last)
        # belongs to the row, or to its mate where is_rc.  Bin 2j counts
        # the ids that end with junction j, bin 2j + 1 those that start
        # with it: a first end read forward, or a last end read reversed.
        key = 2 * junction + is_rc
        key[:n] ^= 1
        # A row whose two ends share a bin is a palindrome (one junction,
        # read both ways): its first end goes to a spare bin.
        key[:n][key[:n] == key[n:]] = 2 * size
        seen = np.bincount(key, minlength=2 * size + 1)[:-1]
        ending, starting = seen.reshape(-1, 2).T
        linked = np.flatnonzero((ending == 1) & (starting == 1) & ~pal)
        entry = np.empty(2 * size + 1, dtype=np.int64)
        entry[key] = np.arange(2 * n)
        entry = entry[:-1].reshape(-1, 2)[linked]
        left, into = (entry % n + n * is_rc[entry]).T
        link = np.full(2 * n, -1, dtype=np.int64)
        link[left] = into
        link[(into + n) % (2 * n)] = (left + n) % (2 * n)
        last_at = np.uint64(64 * self.words - 2 * k)  # bit offset of base k-1
        last = np.concatenate([rows[:, -1] >> last_at, ~rows[:, 0] >> np.uint64(62)])
        return link, (last & np.uint64(3)).astype(np.uint8)

    def unitig_chains(self) -> "UnitigChains":
        """:meth:`unitig_links` ranked into chains; cached per row set."""
        if self._chains is None:
            self._chains = _rank_chains(*self.unitig_links())
        return self._chains

    def freeze(self) -> "KmerTable":
        """Make this table shareable: chains ranked now, every array
        read-only, and :meth:`drop_below` raising."""
        for arr in (self._packed, self._counts, *self.unitig_chains()):
            arr.flags.writeable = False
        self.frozen = True
        return self


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
    table: KmerTable, seed_rows: np.ndarray
) -> tuple[np.ndarray, list[Unitig]]:
    """The unitigs a sequential walk over ``seed_rows`` (table row
    indices) emits, in order, and the position in ``seed_rows`` of the
    seed that emits each: the first seed to touch a chain pair emits the
    chain holding its forward id, whole (a cycle: opened at that seed),
    and every later seed of the pair finds its row visited."""
    ch = table.unitig_chains()
    n, k, m = len(table), table.k, seed_rows.shape[0]
    # Position of the first seed of every chain pair.
    first = np.full(ch.pair.shape[0], m)
    np.minimum.at(first, ch.pair[ch.chain[seed_rows]], np.arange(m))
    first = np.sort(first[first < m])
    seeds = seed_rows[first]
    c = ch.chain[seeds]
    lo = ch.start[c]
    size = ch.start[c + 1] - lo
    turn = np.where(ch.cyclic[c], ch.rank[seeds], 0)
    which, j = expand_ranges(0, size)
    path = ch.members[lo[which] + (turn[which] + j) % size[which]]
    path_rows = path % n
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


def extract_unitigs(table: KmerTable) -> tuple[list[Unitig], int]:
    """Extract all unitigs; returns (unitigs, total_walk_steps).

    The result equals ``kmer_reference.legacy_extract_unitigs`` walking
    every table k-mer in sorted order, one at a time (:func:`_emit` says
    why no walk is needed).
    """
    _, unitigs = _emit(table, np.arange(len(table)))
    return unitigs, sum(u.n_kmers for u in unitigs)


def extract_unitigs_by_owner(
    table: KmerTable, owners: np.ndarray, n_ranks: int
) -> list[tuple[list[Unitig], int]]:
    """``(unitigs, walk_steps)`` of every rank from one pass: what the
    sequential walker returns when the ranks take turns, rank r walking
    from the rows with ``owners == r`` in table order, and every rank
    skips the rows an earlier walk visited (Ray and ABySS's shared
    ``visited``).  ``kmer_reference.legacy_extract_unitigs`` is that
    walker; the parity tests hold this to it rank by rank."""
    seed_rows = np.argsort(owners, kind="stable")
    first, unitigs = _emit(table, seed_rows)
    cuts = np.searchsorted(owners[seed_rows[first]], np.arange(n_ranks + 1))
    by_rank = [unitigs[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    return [(mine, sum(u.n_kmers for u in mine)) for mine in by_rank]
