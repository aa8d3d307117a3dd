"""Tests for the de Bruijn graph and unitig extraction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.assembly.dbg import KmerTable, build_kmer_table, extract_unitigs
from repro.assembly.kmers import canonical_kmers, kmer_counts
from repro.seq.alphabet import encode, reverse_complement


def table_from(seq: str, k: int) -> KmerTable:
    return build_kmer_table(k, kmer_counts(canonical_kmers(encode(seq), k)))


class TestKmerTable:
    def test_membership_is_strand_blind(self):
        t = table_from("ACGTTTAA", 4)
        assert bytes(encode("ACGT")) in t
        # reverse complement of any stored k-mer is also "in" the table
        assert bytes(encode(reverse_complement("ACGT"))) in t

    def test_coverage(self):
        t = table_from("AAAAA", 3)  # AAA x3
        assert t.coverage(bytes(encode("AAA"))) == 3
        assert t.coverage(bytes(encode("TTT"))) == 3  # canonical form
        assert t.coverage(bytes(encode("CCC"))) == 0

    def test_drop_below(self):
        t = table_from("AAAAACGT", 3)
        removed = t.drop_below(2)
        assert removed > 0
        assert t.coverage(bytes(encode("AAA"))) == 3

    def test_successors_simple_path(self):
        t = table_from("ACGTA", 3)
        succ = t.successors(bytes(encode("ACG")))
        assert [bytes(s) for s in succ] == [bytes(encode("CGT"))]

    def test_predecessors_simple_path(self):
        t = table_from("ACGTA", 3)
        pred = t.predecessors(bytes(encode("CGT")))
        assert [bytes(p) for p in pred] == [bytes(encode("ACG"))]

    def test_branching_successors(self):
        # Two sequences sharing the prefix CGCTCG diverge after GCTCG.
        t = build_kmer_table(
            5,
            kmer_counts(
                np.concatenate(
                    [
                        canonical_kmers(encode("CGCTCGACTGCT"), 5),
                        canonical_kmers(encode("CGCTCGTCGCGC"), 5),
                    ]
                )
            ),
        )
        succ = t.successors(bytes(encode("GCTCG")))
        assert len(succ) == 2

    def test_memory_estimate_scales(self):
        from repro.assembly.dbg import KMER_RECORD_BYTES

        t1 = table_from("ACGTACGTAA", 5)
        assert t1.memory_bytes() == len(t1) * KMER_RECORD_BYTES


class TestUnitigExtraction:
    def test_single_path_reconstructed(self):
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, 5)
        unitigs, steps = extract_unitigs(t)
        assert len(unitigs) == 1
        assert unitigs[0].seq in (seq, reverse_complement(seq))
        assert steps == len(seq) - 5 + 1  # 26 k-mers

    def test_no_duplicate_unitigs(self):
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, 5)
        unitigs, _ = extract_unitigs(t)
        assert len(unitigs) == 1

    def test_branch_splits_unitigs(self):
        # Two sequences sharing a k-mer in the middle create a branch.
        s1 = "AACCGGTTACAGACGATA"
        s2 = "TTGGACCATACAGTTCGC"  # shares "ACAG" region differently
        rows = np.concatenate(
            [canonical_kmers(encode(s1), 5), canonical_kmers(encode(s2), 5)]
        )
        t = build_kmer_table(5, kmer_counts(rows))
        unitigs, _ = extract_unitigs(t)
        joined = {u.seq for u in unitigs}
        # every unitig must be a substring of one input (either strand)
        for u in joined:
            assert any(
                u in s or reverse_complement(u) in s for s in (s1, s2)
            ), u

    def test_coverage_recorded(self):
        t = table_from("ACGTACG", 4)
        unitigs, _ = extract_unitigs(t)
        assert all(u.coverage >= 1 for u in unitigs)

    def test_visited_shared_prevents_duplicates(self):
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, 5)
        visited: set[int] = set()  # table row indices
        u1, _ = extract_unitigs(t, visited=visited)
        u2, _ = extract_unitigs(t, visited=visited)
        assert len(u1) == 1
        assert u2 == []

    def test_seed_restriction(self):
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, 5)
        unitigs, _ = extract_unitigs(t, seeds=iter([]))
        assert unitigs == []

    def test_circular_sequence_terminates(self):
        # A circular k-mer set (every node unique in/out) must not loop.
        seq = "ACGTACGTACGTACGTACGT"
        t = table_from(seq, 5)
        unitigs, _ = extract_unitigs(t)
        assert unitigs  # terminated and produced something

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="ACGT", min_size=12, max_size=80))
    def test_unitig_kmers_subset_of_input(self, seq):
        """Every unitig's k-mer set is a subset of the input k-mer set,
        and all input k-mers are covered by some unitig."""
        k = 7
        t = table_from(seq, k)
        input_kmers = set(t.counts.keys())
        unitigs, _ = extract_unitigs(t)
        out_kmers = set()
        for u in unitigs:
            rows = canonical_kmers(u.codes, k)
            out_kmers.update(bytes(r) for r in rows)
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
        t = table_from(seq, k)
        unitigs, _ = extract_unitigs(t)
        for u in unitigs:
            assert u.seq in seq or reverse_complement(u.seq) in seq
