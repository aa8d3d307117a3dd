"""Unitig extraction as an array kernel: the link table against k-mer by
k-mer adjacency, reference parity on rank-sharded seeds and hostile
topologies (both entry points), edge inputs, and cache invalidation when
a table's rows change.

The invariant is equality with the sequential bytes-dict walker frozen in
:mod:`tests.assembly.kmer_reference` — unitig list, order and step count,
call by call when several seed shards share one ``visited`` set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly import packed
from repro.assembly.dbg import (
    KmerTable,
    build_kmer_table,
    build_kmer_table_packed,
    extract_unitigs,
    extract_unitigs_by_owner,
)
from repro.assembly.kmers import (
    canonical,
    canonical_kmers_varlen,
    kmer_counts,
    kmer_owner,
    revcomp_kmer,
)
from tests.assembly.kmer_reference import (
    legacy_build_kmer_table,
    legacy_extract_unitigs,
)
from repro.seq.alphabet import decode, encode, random_dna, reverse_complement

#: One-word and two-word packed keys.
WORD_KS = (31, 33)


def assert_sharded_parity(counts: dict[bytes, int], k: int, shards) -> None:
    """Walk each seed shard in turn on both engines, sharing ``visited``
    across shards the way Ray/ABySS did across ranks; when the shards
    partition the table in table order, the one-call-all-ranks entry
    point must return the same per-rank lists and step counts."""
    t_new = build_kmer_table(k, counts)
    t_ref = legacy_build_kmer_table(k, counts)
    vis_new: set = set()
    vis_ref: set = set()
    per_rank = []
    for rank, shard in enumerate(shards):
        got_u, got_steps = extract_unitigs(t_new, seeds=iter(shard), visited=vis_new)
        ref_u, ref_steps = legacy_extract_unitigs(
            t_ref, seeds=iter(shard), visited=vis_ref
        )
        assert got_steps == ref_steps, f"rank {rank}"
        assert got_u == ref_u, f"rank {rank}"
        per_rank.append((ref_u, ref_steps))
    assert len(vis_new) == len(vis_ref)
    owner_of = {km: rank for rank, shard in enumerate(shards) for km in shard}
    in_table_order = all(list(shard) == sorted(shard) for shard in shards)
    if in_table_order and sorted(owner_of) == sorted(counts) == sorted(
        km for shard in shards for km in shard
    ):
        owners = np.array([owner_of[km] for km in sorted(counts)], dtype=np.int64)
        fresh = build_kmer_table(k, counts)
        assert extract_unitigs_by_owner(fresh, owners, len(shards)) == per_rank


def owner_shards(keys: list[bytes], k: int, n_ranks: int) -> list[list[bytes]]:
    """Sorted k-mers grouped by their hash-partition owner rank."""
    rows = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, k)
    owners = kmer_owner(rows, n_ranks).tolist()
    shards: list[list[bytes]] = [[] for _ in range(n_ranks)]
    for km, owner in zip(keys, owners):
        shards[owner].append(km)
    return shards


class TestRankShardedParity:
    @pytest.mark.parametrize("k", (25, 31, 51, 63))
    def test_paired_end_eight_ranks(self, reads_paired, k):
        # The Ray/ABySS call pattern: coverage-filtered global table, one
        # call per rank over that rank's owned k-mers in sorted order.
        rows = canonical_kmers_varlen([r.seq for r in reads_paired[:1500]], k)
        counts = {km: c for km, c in kmer_counts(rows).items() if c >= 2}
        assert len(counts) > 1000
        assert_sharded_parity(counts, k, owner_shards(sorted(counts), k, 8))


# -- planted topologies ------------------------------------------------------

_dna = st.text(alphabet="ACGT", min_size=1, max_size=40)


@st.composite
def hostile_reads(draw, k: int) -> list[str]:
    """A few short sequences with an inverted repeat (hairpin), a tandem
    repeat (cycle) and, for even k, a palindromic k-mer planted in."""
    unit = draw(st.text(alphabet="ACGT", min_size=2, max_size=k + 3))
    stem = draw(st.text(alphabet="ACGT", min_size=k // 2, max_size=k + 6))
    loop = draw(st.text(alphabet="ACGT", max_size=3))
    parts = [
        draw(_dna),
        stem + loop + reverse_complement(stem),
        draw(_dna),
        unit * (2 + (k + 4) // len(unit)),
        draw(_dna),
    ]
    if k % 2 == 0:
        half = draw(st.text(alphabet="ACGT", min_size=k // 2, max_size=k // 2))
        parts += [half + reverse_complement(half), draw(_dna)]
    order = draw(st.permutations(range(len(parts))))
    genome = "".join(parts[i] for i in order)
    cuts = draw(
        st.lists(
            st.tuples(
                st.integers(0, max(0, len(genome) - k)), st.integers(k, k + 30)
            ),
            max_size=4,
        )
    )
    return [genome] + [genome[a : a + n] for a, n in cuts]


class TestHostileTopologies:
    @pytest.mark.parametrize("k", (5, 8, 12, 33, 34))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hairpins_cycles_palindromes(self, k, data):
        reads = [r for r in data.draw(hostile_reads(k)) if len(r) >= k]
        counts = kmer_counts(canonical_kmers_varlen(reads, k))
        if not counts:
            return
        n_shards = data.draw(st.integers(1, 8))
        keys = sorted(counts)
        if data.draw(st.booleans()):
            shards = owner_shards(keys, k, n_shards)
        else:
            shards = [keys[i::n_shards] for i in range(n_shards)]
        assert_sharded_parity(counts, k, shards)

    def test_every_kmer_palindromic(self):
        # (AT)n at even k: every k-mer is its own reverse complement, so
        # both oriented ids of every row carry identical links.
        k = 6
        counts = kmer_counts(canonical_kmers_varlen(["AT" * 10, "TA" * 9], k))
        assert all(km == bytes(3 - b for b in reversed(km)) for km in counts)
        assert_sharded_parity(counts, k, [sorted(counts)])

    @pytest.mark.parametrize(
        "k,unit_len", [(5, 1), (5, 7), (8, 11), (33, 40), (34, 37)]
    )
    def test_tandem_repeat_cycle_from_every_row(self, k, unit_len):
        # A pure cycle (and its mate cycle; a homopolymer's self-loop at
        # unit_len 1): the unitig is the cycle cut at whichever row the
        # first seed is, read forward.
        rng = np.random.default_rng(k)
        for _ in range(50):  # redraw units that happen to fold back
            unit = decode(random_dna(unit_len, rng))
            counts = kmer_counts(
                canonical_kmers_varlen([unit * (3 + k // unit_len)], k)
            )
            chains = build_kmer_table(k, counts).unitig_chains()
            if len(counts) == unit_len and chains.cyclic.all():
                break
        else:
            pytest.fail("no pure cycle drawn")
        assert chains.pair.tolist() == [0, 0]
        keys = sorted(counts)
        for r in range(len(keys)):
            assert_sharded_parity(counts, k, [[km] for km in keys[r:] + keys[:r]])
        assert_sharded_parity(counts, k, [keys])

    def test_real_reads_hold_no_cycle(self, reads_paired):
        rows = canonical_kmers_varlen([r.seq for r in reads_paired[:1500]], 31)
        counts = {km: c for km, c in kmer_counts(rows).items() if c >= 2}
        assert not build_kmer_table(31, counts).unitig_chains().cyclic.any()

    @pytest.mark.parametrize("k", (5, 33))
    def test_odd_k_hairpin(self, k):
        # x = a + S with S a (k-1)-mer palindrome: the successor S + rc(a)
        # of x is its own reverse complement, link[o] == mate(o).
        rng = np.random.default_rng(k)
        half = decode(random_dna((k - 1) // 2, rng))
        read = decode(random_dna(k + 5, rng)) + half + reverse_complement(half)
        counts = kmer_counts(canonical_kmers_varlen([read], k))
        x = bytes(encode(read[-k:]))
        t = build_kmer_table(k, counts)
        assert t.successors(x) == [revcomp_kmer(x)]
        x_id = sorted(counts).index(canonical(x)) + (x != canonical(x)) * len(t)
        assert t.unitig_links()[0][x_id] == -1  # cut, not a step to its mate
        keys = sorted(counts)
        for r in range(len(keys)):
            assert_sharded_parity(counts, k, [keys[r:], keys[:r]])
            assert_sharded_parity(counts, k, [[km] for km in keys[r:] + keys[:r]])

    @pytest.mark.parametrize("k", WORD_KS)
    def test_first_seed_on_the_reverse_strand(self, k):
        # The chain comes out in the orientation that holds the first
        # seed's *canonical* k-mer, wherever in the chain that seed is.
        rng = np.random.default_rng(k + 1)
        seq = decode(random_dna(k + 40, rng))
        counts = kmer_counts(canonical_kmers_varlen([seq], k))
        path = [bytes(encode(seq[i : i + k])) for i in range(len(seq) - k + 1)]
        forward = [km for km in path if canonical(km) == km]
        reverse = [canonical(km) for km in path if canonical(km) != km]
        assert forward and reverse
        for seed, expect in ((forward[-1], seq), (reverse[0], reverse_complement(seq))):
            rest = sorted(set(counts) - {seed})
            unitigs, steps = extract_unitigs(
                build_kmer_table(k, counts), seeds=iter([seed] + rest)
            )
            assert [u.seq for u in unitigs] == [expect] and steps == len(counts)
            assert_sharded_parity(counts, k, [[seed], rest])


# -- the link table ------------------------------------------------------------


def _reference_links(table: KmerTable) -> list[int]:
    """``link`` from the definition, one oriented k-mer at a time."""
    keys = sorted(table.counts)
    row = {km: i for i, km in enumerate(keys)}
    n = len(keys)
    link = []
    for o in range(2 * n):
        x = keys[o] if o < n else revcomp_kmer(keys[o - n])
        succ = table.successors(x)
        step = -1
        if len(succ) == 1 and len(table.predecessors(succ[0])) == 1:
            y = succ[0]
            palindrome = y == revcomp_kmer(y)
            step = row[canonical(y)] + (n if y != canonical(y) or palindrome else 0)
            # the two cuts: a hairpin step, and leaving a palindrome
            # through the id that steps enter it by
            if y == revcomp_kmer(x) or (o >= n and x == revcomp_kmer(x)):
                step = -1
        link.append(step)
    return link


@pytest.mark.parametrize("k", (5, 8, 31, 33, 63))
def test_links_match_kmer_by_kmer_adjacency(k):
    rng = np.random.default_rng(100 + k)
    core = decode(random_dna(2 * k, rng))
    half = decode(random_dna(k // 2, rng))
    unit = decode(random_dna(k + 2, rng))
    reads = [
        decode(random_dna(k, rng)) + core + decode(random_dna(k, rng)),
        decode(random_dna(k, rng)) + core[k // 2 :] + decode(random_dna(k, rng)),
        decode(random_dna(k, rng)) + half + reverse_complement(half) + "ACG",
        unit * 3,
    ]
    if k <= 8:
        reads += [decode(random_dna(60, rng)) for _ in range(4)] + ["AT" * k]
    table = build_kmer_table(k, kmer_counts(canonical_kmers_varlen(reads, k)))
    link, last_base = table.unitig_links()
    assert link.tolist() == _reference_links(table)
    keys = sorted(table.counts)
    assert last_base.tolist() == [km[-1] for km in keys] + [
        revcomp_kmer(km)[-1] for km in keys
    ]


# -- edge inputs ---------------------------------------------------------------


def _path_table(k: int, seed: int = 5) -> tuple[KmerTable, dict[bytes, int]]:
    rng = np.random.default_rng(seed)
    seq = decode(random_dna(k + 40, rng))
    counts = kmer_counts(canonical_kmers_varlen([seq], k))
    return build_kmer_table(k, counts), counts


@pytest.mark.parametrize("k", WORD_KS)
class TestEdgeInputs:
    def test_empty_table(self, k):
        t = KmerTable(k)
        assert extract_unitigs(t) == ([], 0)
        assert extract_unitigs(t, seeds=iter([bytes(k)])) == ([], 0)
        empty = np.zeros((0, t.words), dtype=np.uint64)
        assert extract_unitigs(t, seeds=empty, visited=set()) == ([], 0)

    def test_empty_seed_iterable(self, k):
        t, _ = _path_table(k)
        visited: set = set()
        assert extract_unitigs(t, seeds=iter([]), visited=visited) == ([], 0)
        assert not visited

    def test_seeds_absent_from_table(self, k):
        t, counts = _path_table(k)
        absent = [km for km in _path_table(k, seed=6)[1] if km not in counts]
        assert absent
        visited: set = set()
        assert extract_unitigs(t, seeds=iter(absent), visited=visited) == ([], 0)
        absent_rows = packed.pack(
            np.frombuffer(b"".join(absent), dtype=np.uint8).reshape(-1, k)
        )
        assert extract_unitigs(t, seeds=absent_rows, visited=visited) == ([], 0)
        assert not visited
        # Absent seeds mixed in are skipped, present ones still walk.
        mixed = [absent[0], sorted(counts)[0], absent[-1]]
        got = extract_unitigs(t, seeds=iter(mixed))
        ref = legacy_extract_unitigs(
            legacy_build_kmer_table(k, counts), seeds=iter(mixed)
        )
        assert got == ref and got[1] > 0

    def test_duplicate_seed_rows(self, k):
        t, counts = _path_table(k)
        seed = sorted(counts)[len(counts) // 2]
        rows = np.repeat(packed.pack_bytes_kmer(seed), 3, axis=0)
        unitigs, steps = extract_unitigs(t, seeds=rows)
        ref = legacy_extract_unitigs(
            legacy_build_kmer_table(k, counts), seeds=iter([seed] * 3)
        )
        assert (unitigs, steps) == ref
        assert len(unitigs) == 1 and steps == unitigs[0].n_kmers

    def test_second_call_with_same_visited(self, k):
        t, counts = _path_table(k)
        visited: set = set()
        unitigs, steps = extract_unitigs(t, visited=visited)
        assert steps == len(counts) == len(visited)
        assert extract_unitigs(t, visited=visited) == ([], 0)
        assert extract_unitigs(t, seeds=t.packed, visited=visited) == ([], 0)

    def test_partly_visited_unitig_is_refused(self, k):
        # The kernel skips a visited unitig whole, where the sequential
        # walk emitted its unvisited remainder: a set no earlier call on
        # this table could have left must not be answered quietly.
        t, counts = _path_table(k)
        with pytest.raises(ValueError, match="part of a unitig"):
            extract_unitigs(t, visited={0})
        assert extract_unitigs(t, visited=set(range(len(counts)))) == ([], 0)


# -- cache invalidation --------------------------------------------------------


def _branching_counts(k: int) -> dict[bytes, int]:
    """Two overlapping sources at different depths: thresholding removes
    the shallow branch and so changes the surviving graph's links."""
    rng = np.random.default_rng(11)
    core = decode(random_dna(3 * k, rng))
    deep = decode(random_dna(k, rng)) + core + decode(random_dna(k, rng))
    shallow = decode(random_dna(k, rng)) + core[k:] + decode(random_dna(k, rng))
    return kmer_counts(canonical_kmers_varlen([deep] * 3 + [shallow], k))


@pytest.mark.parametrize("k", WORD_KS)
class TestLinkCacheInvalidation:
    def test_drop_below_rebuilds_links(self, k):
        counts = _branching_counts(k)
        t = build_kmer_table(k, counts)
        before = extract_unitigs(t)
        assert t.drop_below(2) > 0
        survivors = {km: c for km, c in counts.items() if c >= 2}
        fresh = extract_unitigs(build_kmer_table(k, survivors))
        assert extract_unitigs(t) == fresh
        assert fresh == legacy_extract_unitigs(legacy_build_kmer_table(k, survivors))
        assert len(fresh[0]) < len(before[0])

    def test_drop_below_without_removals_keeps_links(self, k):
        t = build_kmer_table(k, _branching_counts(k))
        chains = t.unitig_chains()
        assert t.drop_below(1) == 0
        assert t.unitig_chains() is chains

    def test_add_counts_rebuilds_links(self, k):
        counts = _branching_counts(k)
        deep = {km: c for km, c in counts.items() if c >= 2}
        extra = {km: c for km, c in counts.items() if c < 2}
        t = build_kmer_table(k, deep)
        assert len(extract_unitigs(t)[0]) == 1
        t.add_counts(extra)
        assert extract_unitigs(t) == extract_unitigs(build_kmer_table(k, counts))

    def test_packed_table_matches_dict_table(self, k):
        counts = _branching_counts(k)
        t = build_kmer_table(k, counts)
        shuffled = np.random.default_rng(0).permutation(len(t))
        t2 = build_kmer_table_packed(
            k, t.packed[shuffled], t.count_array[shuffled]
        )
        assert extract_unitigs(t2) == extract_unitigs(t)
