"""Unitig extraction as an array kernel: the link table against the
reference table's k-mer by k-mer adjacency, reference parity on
rank-sharded seeds and hostile topologies, edge inputs, and cache
invalidation when a table's rows change.

The invariant is equality with the sequential bytes-dict walker frozen in
:mod:`tests.assembly.kmer_reference` — unitig list, order and step count.
Sharded cases go through :func:`extract_unitigs_by_owner`, the entry
point Ray and ABySS call, rank by rank against the walker stepping
through the same shards with one shared ``visited`` set.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly import packed
from repro.assembly.dbg import (
    KmerTable,
    extract_unitigs,
    extract_unitigs_by_owner,
)
from repro.seq.alphabet import decode, encode, random_dna, reverse_complement
from tests.assembly.kmer_reference import (
    LegacyKmerTable,
    canonical,
    canonical_kmers_varlen,
    kmer_counts,
    kmer_owner,
    legacy_build_kmer_table,
    legacy_extract_unitigs,
    revcomp_kmer,
    s16_unitig_links,
    sorted_table,
)

#: One-word and two-word packed keys.
WORD_KS = (31, 33)


def packed_table(k: int, counts: dict[bytes, int]) -> KmerTable:
    """The live table holding the reference counts' k-mers, packed."""
    raw = np.frombuffer(b"".join(counts), dtype=np.uint8).reshape(-1, k)
    cov = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    return sorted_table(k, packed.pack(raw), cov)


def assert_sharded_parity(counts: dict[bytes, int], k: int, shards) -> None:
    """Rank r owns shard r: :func:`extract_unitigs_by_owner` must return,
    rank by rank, what the reference walker returns stepping through the
    shards in turn with one shared ``visited`` set, the way Ray/ABySS
    ranks did.  The shards partition the table and list their k-mers in
    table order, which is the order the owner pass walks a rank's rows."""
    keys = sorted(counts)
    assert sorted(km for shard in shards for km in shard) == keys
    assert all(list(shard) == sorted(shard) for shard in shards)
    t_ref = legacy_build_kmer_table(k, counts)
    visited: set = set()
    want = [
        legacy_extract_unitigs(t_ref, seeds=iter(shard), visited=visited)
        for shard in shards
    ]
    assert len(visited) == len(counts)
    rank_of = {km: rank for rank, shard in enumerate(shards) for km in shard}
    owners = np.array([rank_of[km] for km in keys], dtype=np.int64)
    got = extract_unitigs_by_owner(packed_table(k, counts), owners, len(shards))
    assert len(got) == len(want)
    for rank, ((got_u, got_steps), (ref_u, ref_steps)) in enumerate(zip(got, want)):
        assert got_steps == ref_steps, f"rank {rank}"
        assert got_u == ref_u, f"rank {rank}"


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
    @pytest.mark.parametrize("k", (5, 8, 12, 32, 33, 34, 50, 62))
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
            chains = packed_table(k, counts).unitig_chains()
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
        assert not packed_table(31, counts).unitig_chains().cyclic.any()

    @pytest.mark.parametrize("k", (5, 33))
    def test_odd_k_hairpin(self, k):
        # x = a + S with S a (k-1)-mer palindrome: the successor S + rc(a)
        # of x is its own reverse complement, link[o] == mate(o).
        rng = np.random.default_rng(k)
        half = decode(random_dna((k - 1) // 2, rng))
        read = decode(random_dna(k + 5, rng)) + half + reverse_complement(half)
        counts = kmer_counts(canonical_kmers_varlen([read], k))
        x = bytes(encode(read[-k:]))
        assert legacy_build_kmer_table(k, counts).successors(x) == [revcomp_kmer(x)]
        x_id = sorted(counts).index(canonical(x)) + (x != canonical(x)) * len(counts)
        t = packed_table(k, counts)
        assert t.unitig_links()[0][x_id] == -1  # cut, not a step to its mate
        keys = sorted(counts)
        for r in range(len(keys)):
            assert_sharded_parity(counts, k, [keys[r:], keys[:r]])
            assert_sharded_parity(counts, k, [[km] for km in keys[r:] + keys[:r]])
        # a + S + b with b != rc(a): x has two successors, S + b and its
        # mate S + rc(a), so nothing crosses S, whichever strand x and
        # S + b are stored on.
        for a in "ACGT":
            for b in "ACGT".replace(reverse_complement(a), ""):
                read = decode(random_dna(k, rng)) + a + half + reverse_complement(half)
                counts = kmer_counts(canonical_kmers_varlen([read + b], k))
                link = packed_table(k, counts).unitig_links()[0]
                assert link.tolist() == _reference_links(
                    legacy_build_kmer_table(k, counts)
                )

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
        table = packed_table(k, counts)
        for seed, expect in ((forward[-1], seq), (reverse[0], reverse_complement(seq))):
            rest = sorted(set(counts) - {seed})
            owners = np.array([km != seed for km in sorted(counts)], dtype=np.int64)
            (unitigs, steps), later = extract_unitigs_by_owner(table, owners, 2)
            assert [u.seq for u in unitigs] == [expect] and steps == len(counts)
            assert later == ([], 0)
            assert_sharded_parity(counts, k, [[seed], rest])


# -- the link table ------------------------------------------------------------


def _reference_links(table: LegacyKmerTable) -> list[int]:
    """``link`` from the definition, one oriented k-mer at a time, on the
    reference table's adjacency."""
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


@pytest.mark.parametrize("k", (5, 8, 31, 32, 33, 34, 50, 62, 63))
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
    counts = kmer_counts(canonical_kmers_varlen(reads, k))
    link, last_base = packed_table(k, counts).unitig_links()
    assert link.tolist() == _reference_links(legacy_build_kmer_table(k, counts))
    keys = sorted(counts)
    assert last_base.tolist() == [km[-1] for km in keys] + [
        revcomp_kmer(km)[-1] for km in keys
    ]


def _tied_reads(k: int, rng) -> list[str]:
    """Branches off one core that part after its first 32 bases, some read
    backwards, plus an odd-k hairpin arm: many oriented k-mers (and
    their junctions) share word 0 and differ only in word 1."""
    core = decode(random_dna(k + 24, rng))
    reads = [core]
    for cut in rng.integers(32, k + 24, size=2).tolist():
        for _ in range(int(rng.integers(2, 7))):
            read = core[:cut] + decode(random_dna(int(rng.integers(1, 12)), rng))
            reads.append(reverse_complement(read) if rng.random() < 0.3 else read)
    half = decode(random_dna((k - 1) // 2, rng))
    return reads + [core[:40] + half + reverse_complement(half)]


class TestIntegerWordJoin:
    """Links on integer words equal the ``S16`` string join, on tables
    whose oriented k-mers and junctions share word 0 in groups."""

    @pytest.mark.parametrize("k", (33, 40, 63))
    def test_links_equal_the_s16_join(self, k):
        rng = np.random.default_rng(k)
        longest = []
        for _ in range(40):
            counts = kmer_counts(canonical_kmers_varlen(_tied_reads(k, rng), k))
            t = packed_table(k, counts)
            oriented = np.concatenate([t.packed, packed.revcomp(t.packed, k)])
            longest.append(np.unique(oriented[:, 0], return_counts=True)[1].max())
            link, last_base = t.unitig_links()
            want_link, want_last = s16_unitig_links(t)
            assert np.array_equal(link, want_link)
            assert np.array_equal(last_base, want_last)
        # Word-0 ties in every table, runs long enough to bisect in most.
        assert min(longest) >= 2 and np.mean(np.array(longest) >= 3) > 0.5

    def test_unitig_links_builds_no_key_strings(self):
        assert "packedmod.keys(" not in inspect.getsource(KmerTable.unitig_links)


# -- edge inputs ---------------------------------------------------------------


def _path_table(k: int, seed: int = 5) -> tuple[KmerTable, dict[bytes, int]]:
    rng = np.random.default_rng(seed)
    seq = decode(random_dna(k + 40, rng))
    counts = kmer_counts(canonical_kmers_varlen([seq], k))
    return packed_table(k, counts), counts


@pytest.mark.parametrize("k", WORD_KS)
class TestEdgeInputs:
    def test_empty_table(self, k):
        t = KmerTable(k)
        assert extract_unitigs(t) == ([], 0)
        no_rows = np.zeros(0, dtype=np.int64)
        assert extract_unitigs_by_owner(t, no_rows, 3) == [([], 0)] * 3

    def test_empty_seed_iterable(self, k):
        # Ranks that own no row walk nothing, before and after the one
        # that owns them all.
        t, _ = _path_table(k)
        owners = np.ones(len(t), dtype=np.int64)
        none_first, every, none_last = extract_unitigs_by_owner(t, owners, 3)
        assert none_first == none_last == ([], 0)
        assert every == extract_unitigs(t)

    def test_duplicate_seed_rows(self, k):
        # One rank holding every row of a one-unitig path seeds that
        # unitig once per row: the first seed emits it, whole and once.
        t, counts = _path_table(k)
        ((unitigs, steps),) = extract_unitigs_by_owner(
            t, np.zeros(len(t), dtype=np.int64), 1
        )
        assert len(unitigs) == 1 and steps == unitigs[0].n_kmers == len(counts)

    def test_second_call_with_same_visited(self, k):
        # A later rank whose rows an earlier rank's walk visited emits
        # nothing: the path's one unitig goes to the rank of its middle
        # row, whole.
        t, counts = _path_table(k)
        keys = sorted(counts)
        mid = keys[len(keys) // 2]
        owners = np.array([km != mid for km in keys], dtype=np.int64)
        (unitigs, steps), later = extract_unitigs_by_owner(t, owners, 2)
        assert len(unitigs) == 1 and steps == len(counts)
        assert later == ([], 0)
        assert_sharded_parity(counts, k, [[mid], [km for km in keys if km != mid]])


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
        t = packed_table(k, counts)
        before = extract_unitigs(t)
        assert t.drop_below(2) > 0
        survivors = {km: c for km, c in counts.items() if c >= 2}
        fresh = extract_unitigs(packed_table(k, survivors))
        assert extract_unitigs(t) == fresh
        assert fresh == legacy_extract_unitigs(legacy_build_kmer_table(k, survivors))
        assert len(fresh[0]) < len(before[0])

    def test_drop_below_without_removals_keeps_links(self, k):
        t = packed_table(k, _branching_counts(k))
        chains = t.unitig_chains()
        assert t.drop_below(1) == 0
        assert t.unitig_chains() is chains

    def test_packed_table_matches_dict_table(self, k):
        counts = _branching_counts(k)
        t = packed_table(k, counts)
        shuffled = np.random.default_rng(0).permutation(len(t))
        t2 = sorted_table(k, t.packed[shuffled], t.count_array[shuffled])
        assert extract_unitigs(t2) == extract_unitigs(t)
        assert extract_unitigs(t2) == legacy_extract_unitigs(
            legacy_build_kmer_table(k, counts)
        )
