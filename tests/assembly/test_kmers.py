"""Tests for k-mer extraction, canonicalization, counting and partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.kmers import (
    canonical,
    canonical_kmers,
    canonical_kmers_varlen,
    kmer_counts,
    kmer_owner,
    owner_of,
    reads_to_code_matrix,
    revcomp_kmer,
)
from repro.seq.alphabet import decode, encode, reverse_complement
from repro.seq.fastq import FastqRecord

dna = st.text(alphabet="ACGT", min_size=1, max_size=120)


def rec(seq):
    return FastqRecord("r", seq, "I" * len(seq))


class TestCodeMatrix:
    def test_basic(self):
        m = reads_to_code_matrix([rec("ACGT"), rec("TTTT")])
        assert m.shape == (2, 4)
        assert decode(m[0]) == "ACGT"

    def test_empty(self):
        assert reads_to_code_matrix([]).shape == (0, 0)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            reads_to_code_matrix([rec("ACGT"), rec("AC")])


class TestCanonicalKmers:
    def test_simple_extraction(self):
        rows = canonical_kmers(encode("ACGTA"), 3)
        assert rows.shape == (3, 3)

    def test_canonical_choice(self):
        # "TTT" canonicalizes to "AAA"
        rows = canonical_kmers(encode("TTT"), 3)
        assert decode(rows[0]) == "AAA"

    def test_palindrome_stable(self):
        # "ACGT" is its own reverse complement
        rows = canonical_kmers(encode("ACGT"), 4)
        assert decode(rows[0]) == "ACGT"

    def test_n_windows_dropped(self):
        rows = canonical_kmers(encode("ACGNACG"), 3)
        # windows covering the N (positions 1..3) are dropped
        assert rows.shape[0] == 2

    def test_too_short_sequence(self):
        assert canonical_kmers(encode("AC"), 3).shape == (0, 3)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            canonical_kmers(encode("ACGT"), 2)

    def test_matrix_input(self):
        m = reads_to_code_matrix([rec("ACGTA"), rec("GGGGG")])
        rows = canonical_kmers(m, 3)
        assert rows.shape == (6, 3)

    def test_varlen(self):
        rows = canonical_kmers_varlen(["ACGTA", "GG", "TTTT"], 3)
        assert rows.shape == (5, 3)  # 3 + 0 + 2

    def test_varlen_empty(self):
        assert canonical_kmers_varlen([], 5).shape == (0, 5)

    @given(dna)
    def test_strand_invariance(self, s):
        """The canonical k-mer multiset is identical for a sequence and
        its reverse complement — the core DBG invariant."""
        k = min(7, len(s))
        if k < 3:
            return
        fwd = canonical_kmers(encode(s), k)
        rev = canonical_kmers(encode(reverse_complement(s)), k)
        key = lambda rows: sorted(map(bytes, rows))
        assert key(fwd) == key(rev)

    @given(dna)
    def test_count_conservation(self, s):
        k = 5
        if len(s) < k:
            return
        rows = canonical_kmers(encode(s), k)
        assert rows.shape[0] == len(s) - k + 1


class TestSingleKmerOps:
    def test_revcomp_kmer(self):
        assert revcomp_kmer(bytes(encode("ACG"))) == bytes(encode("CGT"))

    @given(st.binary(max_size=80))
    def test_revcomp_kmer_matches_numpy_formula(self, km):
        # Any byte value, not just ACGT: N (4) wraps to 255 like uint8.
        ref = bytes((3 - np.frombuffer(km, dtype=np.uint8))[::-1])
        assert revcomp_kmer(km) == ref

    def test_revcomp_kmer_edge_codes(self):
        assert revcomp_kmer(b"") == b""
        assert revcomp_kmer(bytes([0, 4, 255])) == bytes([4, 255, 3])

    def test_canonical_single(self):
        t = bytes(encode("TTT"))
        a = bytes(encode("AAA"))
        assert canonical(t) == a
        assert canonical(a) == a

    @given(dna)
    def test_canonical_idempotent(self, s):
        km = bytes(encode(s))
        assert canonical(canonical(km)) == canonical(km)

    @given(dna)
    def test_canonical_strand_symmetric(self, s):
        km = bytes(encode(s))
        assert canonical(km) == canonical(revcomp_kmer(km))


class TestCounting:
    def test_counts(self):
        rows = canonical_kmers(encode("AAAA"), 3)  # AAA twice
        counts = kmer_counts(rows)
        assert counts == {bytes(encode("AAA")): 2}

    def test_empty(self):
        assert kmer_counts(np.zeros((0, 3), dtype=np.uint8)) == {}

    @given(dna)
    def test_total_count_preserved(self, s):
        k = 4
        if len(s) < k:
            return
        rows = canonical_kmers(encode(s), k)
        counts = kmer_counts(rows)
        assert sum(counts.values()) == rows.shape[0]
        assert all(len(key) == k for key in counts)


class TestPartitioning:
    def test_owner_range(self):
        rows = canonical_kmers(encode("ACGTACGTACGTAAAGGGCCC"), 7)
        owners = kmer_owner(rows, 5)
        assert ((owners >= 0) & (owners < 5)).all()

    def test_owner_deterministic(self):
        rows = canonical_kmers(encode("ACGTACGTACGT"), 5)
        a = kmer_owner(rows, 4)
        b = kmer_owner(rows, 4)
        assert (a == b).all()

    def test_owner_of_matches_vectorized(self):
        rows = canonical_kmers(encode("ACGTACGTAAACCC"), 5)
        owners = kmer_owner(rows, 7)
        for i in range(rows.shape[0]):
            assert owner_of(bytes(rows[i]), 7) == owners[i]

    def test_single_rank(self):
        rows = canonical_kmers(encode("ACGTACGT"), 5)
        assert (kmer_owner(rows, 1) == 0).all()

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            kmer_owner(np.zeros((1, 3), dtype=np.uint8), 0)

    def test_empty(self):
        assert kmer_owner(np.zeros((0, 5), dtype=np.uint8), 3).shape == (0,)

    def test_balance(self):
        """Hash partition spreads a large random k-mer set roughly evenly."""
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 4, size=(20_000, 21)).astype(np.uint8)
        owners = kmer_owner(rows, 8)
        counts = np.bincount(owners, minlength=8)
        assert counts.min() > 0.8 * counts.mean()
        assert counts.max() < 1.2 * counts.mean()
