"""Tests for k-mer extraction, canonicalization, counting and partitioning."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.assembly import packed
from repro.assembly.kmers import canonical_kmers_varlen_packed, kmer_owner_packed
from repro.seq.alphabet import decode, encode, reverse_complement
from tests.assembly.kmer_reference import canonical, revcomp_kmer

dna = st.text(alphabet="ACGT", min_size=1, max_size=120)


def as_strings(rows: np.ndarray, k: int) -> list[str]:
    return [decode(r) for r in packed.unpack(rows, k)]


class TestCanonicalKmers:
    def test_simple_extraction(self):
        rows = canonical_kmers_varlen_packed(["ACGTA"], 3)
        assert rows.shape == (3, 1)

    def test_canonical_choice(self):
        # "TTT" canonicalizes to "AAA"
        rows = canonical_kmers_varlen_packed(["TTT"], 3)
        assert as_strings(rows, 3) == ["AAA"]

    def test_palindrome_stable(self):
        # "ACGT" is its own reverse complement
        rows = canonical_kmers_varlen_packed(["ACGT"], 4)
        assert as_strings(rows, 4) == ["ACGT"]

    def test_n_windows_dropped(self):
        rows = canonical_kmers_varlen_packed(["ACGNACG"], 3)
        # windows covering the N (positions 1..3) are dropped
        assert rows.shape[0] == 2

    def test_too_short_sequence(self):
        assert canonical_kmers_varlen_packed(["AC"], 3).shape == (0, 1)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            canonical_kmers_varlen_packed(["ACGT"], 2)

    def test_varlen(self):
        rows = canonical_kmers_varlen_packed(["ACGTA", "GG", "TTTT"], 3)
        assert rows.shape == (5, 1)  # 3 + 0 + 2

    def test_varlen_empty(self):
        assert canonical_kmers_varlen_packed([], 5).shape == (0, 1)

    @given(dna)
    def test_strand_invariance(self, s):
        """The canonical k-mer multiset is identical for a sequence and
        its reverse complement — the core DBG invariant."""
        k = min(7, len(s))
        if k < 3:
            return
        fwd = canonical_kmers_varlen_packed([s], k)
        rev = canonical_kmers_varlen_packed([reverse_complement(s)], k)
        assert sorted(as_strings(fwd, k)) == sorted(as_strings(rev, k))

    @given(dna)
    def test_count_conservation(self, s):
        k = 5
        if len(s) < k:
            return
        rows = canonical_kmers_varlen_packed([s], k)
        assert rows.shape[0] == len(s) - k + 1


class TestSingleKmerOps:
    """The frozen oracle's single code-bytes k-mer helpers, which the
    reference walker, cleanup and Contrail run on."""

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
        rows = canonical_kmers_varlen_packed(["AAAA"], 3)  # AAA twice
        distinct, _, counts = packed.unique_inverse_counts(rows, 3)
        assert as_strings(distinct, 3) == ["AAA"]
        assert counts.tolist() == [2]

    def test_empty(self):
        distinct, inverse, counts = packed.unique_inverse_counts(
            np.zeros((0, 1), dtype=np.uint64), 3
        )
        assert distinct.shape == (0, 1) and inverse.size == counts.size == 0

    @given(dna)
    def test_total_count_preserved(self, s):
        k = 4
        if len(s) < k:
            return
        rows = canonical_kmers_varlen_packed([s], k)
        distinct, inverse, counts = packed.unique_inverse_counts(rows, k)
        assert counts.sum() == rows.shape[0]
        assert np.array_equal(distinct[inverse], rows)


class TestPartitioning:
    def test_owner_range(self):
        rows = canonical_kmers_varlen_packed(["ACGTACGTACGTAAAGGGCCC"], 7)
        owners = kmer_owner_packed(rows, 7, 5)
        assert ((owners >= 0) & (owners < 5)).all()

    def test_owner_deterministic(self):
        rows = canonical_kmers_varlen_packed(["ACGTACGTACGT"], 5)
        a = kmer_owner_packed(rows, 5, 4)
        b = kmer_owner_packed(rows, 5, 4)
        assert (a == b).all()

    def test_single_rank(self):
        rows = canonical_kmers_varlen_packed(["ACGTACGT"], 5)
        assert (kmer_owner_packed(rows, 5, 1) == 0).all()

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            kmer_owner_packed(np.zeros((1, 1), dtype=np.uint64), 3, 0)

    def test_empty(self):
        assert kmer_owner_packed(np.zeros((0, 1), dtype=np.uint64), 5, 3).shape == (0,)

    def test_balance(self):
        """Hash partition spreads a large random k-mer set roughly evenly."""
        rng = np.random.default_rng(0)
        rows = packed.pack(rng.integers(0, 4, size=(20_000, 21)).astype(np.uint8))
        owners = kmer_owner_packed(rows, 21, 8)
        counts = np.bincount(owners, minlength=8)
        assert counts.min() > 0.8 * counts.mean()
        assert counts.max() < 1.2 * counts.mean()
