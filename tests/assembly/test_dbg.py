"""Tests for the de Bruijn graph and unitig extraction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.assembly import packed
from repro.assembly.dbg import (
    KmerTable,
    extract_unitigs,
    extract_unitigs_by_owner,
)
from repro.assembly.kmers import canonical_kmers_varlen_packed
from repro.seq.alphabet import decode, encode, reverse_complement
from tests.assembly.kmer_reference import packed_kmers, sorted_table, table_lookup


def table_from(*seqs: str, k: int) -> KmerTable:
    return sorted_table(k, canonical_kmers_varlen_packed(list(seqs), k))


def coverage(t: KmerTable, kmer: str) -> int:
    """Count of an oriented k-mer, looked up by its canonical key."""
    row = packed.canonicalize(packed.pack(encode(kmer)[None, :]), t.k)
    found, cov = table_lookup(t, row)
    return int(cov[0]) if found[0] else 0


def oriented(t: KmerTable, o: int) -> str:
    """Oriented id ``o`` of :meth:`KmerTable.unitig_links` as a string."""
    row = t.packed[o % len(t)][None, :]
    if o >= len(t):
        row = packed.revcomp(row, t.k)
    return decode(packed.unpack(row, t.k)[0])


def linked(t: KmerTable, kmer: str) -> str | None:
    """The oriented k-mer a unitig walk steps to from ``kmer``."""
    ids = {oriented(t, o): o for o in range(2 * len(t))}
    nxt = int(t.unitig_links()[0][ids[kmer]])
    return None if nxt < 0 else oriented(t, nxt)


class TestKmerTable:
    def test_membership_is_strand_blind(self):
        t = table_from("ACGTTTAA", k=4)
        assert coverage(t, "ACGT") > 0
        # reverse complement of any stored k-mer is also "in" the table
        assert coverage(t, reverse_complement("TTTA")) > 0

    def test_coverage(self):
        t = table_from("AAAAA", k=3)  # AAA x3
        assert coverage(t, "AAA") == 3
        assert coverage(t, "TTT") == 3  # canonical form
        assert coverage(t, "CCC") == 0

    def test_drop_below(self):
        t = table_from("AAAAACGT", k=3)
        removed = t.drop_below(2)
        assert removed > 0
        assert coverage(t, "AAA") == 3

    def test_successors_simple_path(self):
        t = table_from("AACCTG", k=3)
        assert linked(t, "AAC") == "ACC"
        assert linked(t, "CCT") == "CTG"
        assert linked(t, "CTG") is None  # the path's end

    def test_predecessors_simple_path(self):
        # A predecessor is the successor on the reverse strand.
        t = table_from("AACCTG", k=3)
        assert linked(t, reverse_complement("ACC")) == reverse_complement("AAC")
        assert linked(t, reverse_complement("AAC")) is None

    def test_branching_successors(self):
        # Two sequences sharing the prefix CGCTCG diverge after GCTCG.
        t = table_from("CGCTCGACTGCT", "CGCTCGTCGCGC", k=5)
        assert coverage(t, "CTCGA") and coverage(t, "CTCGT")
        assert linked(t, "CGCTC") == "GCTCG"
        assert linked(t, "GCTCG") is None

    def test_memory_estimate_scales(self):
        from repro.assembly.dbg import KMER_RECORD_BYTES

        t1 = table_from("ACGTACGTAA", k=5)
        assert t1.memory_bytes() == len(t1) * KMER_RECORD_BYTES


class TestUnitigExtraction:
    def test_single_path_reconstructed(self):
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, k=5)
        unitigs, steps = extract_unitigs(t)
        assert len(unitigs) == 1
        assert unitigs[0].seq in (seq, reverse_complement(seq))
        assert steps == len(seq) - 5 + 1  # 26 k-mers

    def test_no_duplicate_unitigs(self):
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, k=5)
        unitigs, _ = extract_unitigs(t)
        assert len(unitigs) == 1

    def test_branch_splits_unitigs(self):
        # Two sequences sharing a k-mer in the middle create a branch.
        s1 = "AACCGGTTACAGACGATA"
        s2 = "TTGGACCATACAGTTCGC"  # shares "ACAG" region differently
        t = table_from(s1, s2, k=5)
        unitigs, _ = extract_unitigs(t)
        joined = {u.seq for u in unitigs}
        # every unitig must be a substring of one input (either strand)
        for u in joined:
            assert any(
                u in s or reverse_complement(u) in s for s in (s1, s2)
            ), u

    def test_coverage_recorded(self):
        t = table_from("ACGTACG", k=4)
        unitigs, _ = extract_unitigs(t)
        assert all(u.coverage >= 1 for u in unitigs)

    def test_visited_shared_prevents_duplicates(self):
        # Ranks owning alternate rows of one path: the first walk visits
        # every row, so the path is emitted once, by rank 0.
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, k=5)
        owners = np.arange(len(t)) % 2
        (u1, _), (u2, _) = extract_unitigs_by_owner(t, owners, 2)
        assert len(u1) == 1
        assert u2 == []

    def test_seed_restriction(self):
        # Walks start only from a rank's own rows: one that owns none
        # emits nothing.
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, k=5)
        owners = np.ones(len(t), dtype=np.int64)
        assert extract_unitigs_by_owner(t, owners, 2)[0] == ([], 0)

    def test_circular_sequence_terminates(self):
        # A circular k-mer set (every node unique in/out) must not loop.
        seq = "ACGTACGTACGTACGTACGT"
        t = table_from(seq, k=5)
        unitigs, _ = extract_unitigs(t)
        assert unitigs  # terminated and produced something

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="ACGT", min_size=12, max_size=80))
    def test_unitig_kmers_subset_of_input(self, seq):
        """Every unitig's k-mer set is a subset of the input k-mer set,
        and all input k-mers are covered by some unitig."""
        k = 7
        t = table_from(seq, k=k)
        input_kmers = set(packed.keys(t.packed, k).tolist())
        unitigs, _ = extract_unitigs(t)
        out_kmers = set()
        for u in unitigs:
            rows = packed_kmers(u.codes, k)
            out_kmers.update(packed.keys(rows, k).tolist())
        assert out_kmers == input_kmers

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="ACGT", min_size=12, max_size=80))
    def test_unitigs_are_substrings(self, seq):
        k = 7
        # Graph edges are implied by (k-1)-overlaps, not observed.  The only
        # k-mer with an unobserved successor is the last one of a strand, so
        # a path can spell a sequence the input never contained only where a
        # strand's final (k-1)-mer recurs (cycle, equal ends, end hairpin).
        both = [seq, reverse_complement(seq)]
        stems = [s[i : i + k - 1] for s in both for i in range(len(s) - k + 2)]
        assume(all(stems.count(s[len(s) - k + 1 :]) == 1 for s in both))
        t = table_from(seq, k=k)
        unitigs, _ = extract_unitigs(t)
        for u in unitigs:
            assert u.seq in seq or reverse_complement(u.seq) in seq
