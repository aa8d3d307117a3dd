"""Unit and property tests for the 2-bit packed k-mer codec.

Every operation is checked against the straightforward byte-level
definition, and the read -> k-mer pipeline against the bytes-of-codes
primitives of the frozen oracle :mod:`tests.assembly.kmer_reference`: pack/unpack roundtrips, reverse complement,
canonicalization (including palindromes), key ordering, and the word
boundaries k=32/33 and the k=63 ceiling.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.assembly import packed
from repro.assembly.kmers import canonical_kmers_varlen_packed, kmer_owner_packed
from repro.seq.alphabet import encode
from tests.assembly.kmer_reference import (
    _canonicalize,
    canonical_kmers,
    canonical_kmers_varlen,
    kmer_counts,
    kmer_owner,
    packed_kmers,
    packed_to_ints,
)

BOUNDARY_KS = (3, 31, 32, 33, 63)

dna = st.text(alphabet="ACGT", min_size=0, max_size=200)
dna_with_n = st.text(alphabet="ACGTN", min_size=0, max_size=200)


def _as_bytes(rows, k):
    """Packed rows as code-bytes k-mers, the oracle's representation."""
    return [r.tobytes() for r in packed.unpack(rows, k)]


def _random_windows(rng, n, k):
    return rng.integers(0, 4, size=(n, k)).astype(np.uint8)


class TestCheckK:
    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            packed.check_k(2)

    def test_rejects_beyond_max(self):
        with pytest.raises(ValueError):
            packed.check_k(64)

    def test_words_for_boundary(self):
        assert packed.words_for(32) == 1
        assert packed.words_for(33) == 2
        assert packed.words_for(63) == 2


class TestPackFlat:
    """The doubling packer against the column-loop ``pack`` over a
    sliding window view, at every k the layout holds."""

    @staticmethod
    def reference(codes, k):
        if codes.shape[0] < k:
            return np.zeros((0, packed.words_for(k)), dtype=np.uint64)
        view = np.lib.stride_tricks.sliding_window_view(codes & 3, k)
        return packed.pack(view)

    @pytest.mark.parametrize("k", range(1, packed.MAX_K + 1))
    def test_equals_pack_of_the_window_view(self, k):
        rng = np.random.default_rng(k)
        codes = rng.integers(0, 5, size=300).astype(np.uint8)  # with Ns
        for T in (0, 1, k - 1, k, k + 1, 31, 32, 33, 64, 65, 300):
            got = packed.pack_flat(codes[:T], k)
            want = self.reference(codes[:T], k)
            assert got.dtype == np.uint64 and got.shape == want.shape
            assert np.array_equal(got, want), (k, T)

    @given(dna_with_n, st.integers(1, packed.MAX_K))
    def test_equals_pack_on_any_sequence(self, seq, k):
        codes = encode(seq)
        assert np.array_equal(
            packed.pack_flat(codes, k), self.reference(codes, k)
        )

    @pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 8, 9, 16, 17, 31, 32))
    def test_flat_windows_are_the_right_aligned_words(self, k):
        codes = np.random.default_rng(k).integers(0, 5, size=200).astype(np.uint8)
        wins = packed.flat_windows(codes, k)
        assert wins.dtype.itemsize * 8 >= 2 * k
        want = self.reference(codes, k)[:, 0] >> np.uint64(64 - 2 * k)
        assert np.array_equal(wins.astype(np.uint64), want)

    def test_flat_windows_rejects_two_word_k(self):
        with pytest.raises(ValueError):
            packed.flat_windows(np.zeros(40, dtype=np.uint8), 33)

    def test_input_is_not_modified(self):
        codes = np.array([4, 1, 2, 3, 4, 0, 1] * 10, dtype=np.uint8)
        before = codes.copy()
        packed.pack_flat(codes, 33)
        assert np.array_equal(codes, before)


class TestRoundtrip:
    @pytest.mark.parametrize("k", BOUNDARY_KS)
    def test_pack_unpack_roundtrip(self, k):
        rng = np.random.default_rng(k)
        win = _random_windows(rng, 64, k)
        assert np.array_equal(packed.unpack(packed.pack(win), k), win)

    @pytest.mark.parametrize("k", BOUNDARY_KS)
    def test_slack_bits_are_zero(self, k):
        # Canonical form: everything below the 2k payload bits is zero,
        # so packed equality == k-mer equality.
        rng = np.random.default_rng(k + 100)
        rows = packed.pack(_random_windows(rng, 32, k))
        W = packed.words_for(k)
        slack = 64 * W - 2 * k
        if slack:
            assert not (rows[:, W - 1] & ((np.uint64(1) << np.uint64(slack)) - np.uint64(1))).any()

    def test_empty_input(self):
        empty = np.zeros((0, 33), dtype=np.uint8)
        rows = packed.pack(empty)
        assert rows.shape == (0, 2)
        assert packed.unpack(rows, 33).shape == (0, 33)


class TestRevcompCanonical:
    @pytest.mark.parametrize("k", BOUNDARY_KS)
    def test_revcomp_matches_bytes_definition(self, k):
        rng = np.random.default_rng(k + 7)
        win = _random_windows(rng, 64, k)
        rc = (3 - win)[:, ::-1]
        got = packed.unpack(packed.revcomp(packed.pack(win), k), k)
        assert np.array_equal(got, rc)

    @pytest.mark.parametrize("k", BOUNDARY_KS)
    def test_revcomp_involution(self, k):
        rng = np.random.default_rng(k + 13)
        rows = packed.pack(_random_windows(rng, 64, k))
        assert np.array_equal(packed.revcomp(packed.revcomp(rows, k), k), rows)

    @pytest.mark.parametrize("k", BOUNDARY_KS)
    def test_canonicalize_matches_bytes_path(self, k):
        rng = np.random.default_rng(k + 23)
        win = _random_windows(rng, 128, k)
        expect = _canonicalize(win)
        got = packed.unpack(packed.canonicalize(packed.pack(win), k), k)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("k", (4, 32, 62))
    def test_palindromes_are_fixed_points(self, k):
        # Even-length DNA palindromes equal their own revcomp; canonical
        # form must pick the forward orientation and stay stable.
        rng = np.random.default_rng(k)
        half = rng.integers(0, 4, size=(16, k // 2)).astype(np.uint8)
        win = np.concatenate([half, (3 - half)[:, ::-1]], axis=1)
        rows = packed.pack(win)
        assert np.array_equal(packed.revcomp(rows, k), rows)
        assert np.array_equal(packed.canonicalize(rows, k), rows)


class TestKeysAndOrder:
    @pytest.mark.parametrize("k", BOUNDARY_KS)
    def test_key_sort_matches_lexicographic_bytes_sort(self, k):
        rng = np.random.default_rng(k + 31)
        win = _random_windows(rng, 200, k)
        rows = packed.pack(win)
        order = np.argsort(packed.keys(rows, k), kind="stable")
        as_bytes = [bytes(r.tolist()) for r in win]
        assert [as_bytes[i] for i in order] == sorted(as_bytes)

    @pytest.mark.parametrize("k", BOUNDARY_KS)
    def test_int_roundtrip(self, k):
        rng = np.random.default_rng(k + 41)
        win = _random_windows(rng, 50, k)
        ints = packed_to_ints(packed.pack(win), k)
        # Base i sits 2*(i+1) bits below the top of the 64*W-bit value.
        bits = 64 * packed.words_for(k)
        assert ints == [
            sum(int(c) << (bits - 2 * (i + 1)) for i, c in enumerate(row))
            for row in win
        ]

    @pytest.mark.parametrize("k", (31, 33))
    def test_extend_right_matches_byte_shifts(self, k):
        rng = np.random.default_rng(k)
        win = _random_windows(rng, 40, k)
        rows = packed.pack(win)
        for b in range(4):
            right = np.concatenate(
                [win[:, 1:], np.full((win.shape[0], 1), b, dtype=np.uint8)], axis=1
            )
            assert np.array_equal(
                packed.unpack(packed.extend_right(rows, k, b), k), right
            )


def _s16_unique(rows, k):
    """The key-string oracle: ``np.unique`` of the ``S16`` memcmp keys
    (``return_index`` picks the distinct rows)."""
    _, first, inverse, counts = np.unique(
        packed.keys(rows, k),
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    return np.ascontiguousarray(rows)[first], inverse, counts


def _assert_unique_matches_oracle(rows, k):
    got = packed.unique_inverse_counts(rows, k)
    for g, w in zip(got, _s16_unique(rows, k)):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
    distinct, inverse, counts = got
    assert np.array_equal(distinct[inverse], rows)
    assert counts.sum() == rows.shape[0]


#: Few word values, the extremes among them, so rows tie on word 0, on
#: word 1, on both and on neither.
_WORD = st.sampled_from(
    [0, 1, 2, 5, (1 << 62) + 3, (1 << 63), (1 << 64) - 4, (1 << 64) - 1]
)


def _two_word_rows(words, k):
    """``(n, 2)`` rows with the slack bits of a k-mer cleared."""
    rows = np.array(words, dtype=np.uint64).reshape(-1, 2)
    rows[:, 1] &= np.uint64(((1 << 64) - 1) ^ ((1 << (128 - 2 * k)) - 1))
    return rows


_TOP = (1 << 64) - 1

#: Orders the one sort of word 0 cannot finish on its own.
ADVERSARIAL_TIES = {
    "share_word0_differ_word1": [(7, w) for w in (9 << 40, 3 << 40, 5 << 40, 3 << 40, 1 << 40)]
    + [(2, w << 40) for w in range(20, 0, -1)],
    "share_word1_differ_word0": [(w, 1 << 63) for w in (9, 3, 5, 3, 1, _TOP, 0)],
    "all_equal": [(5, 1 << 62)] * 17,
    "strictly_descending": [(w0, w1 << 40) for w0 in (9, 4, 1) for w1 in (6, 5, 2)],
    "two_mixed_runs_apart": [(1, 4 << 40), (3, 0), (1, 2 << 40), (8, 9 << 40), (8, 1 << 40), (3, 0)],
    "empty": [],
    "one_row": [(_TOP, 1 << 63)],
}


#: Row counts either side of powers of two: the index width ``b`` (and
#: with it the digit width ``64 - b`` and every digit boundary) moves.
RADIX_NS = (0, 1, 2, 3, 7, 8, 9, 255, 256, 257, 4095, 4096, 4097)


def _flip(rows, bit):
    """Flip bit ``bit`` of every row's 128-bit value ``word 0 : word 1``."""
    word = 1 if bit < 64 else 0
    rows[:, word] ^= np.uint64(1 << bit % 64)


def _near_twins(n, k, slack):
    """``n`` two-word rows drawn from a few random k-mers, each as drawn
    or with one bit of its 128-bit value flipped: the lowest significant
    bit, or a bit just below or above a radix digit boundary for ``n``
    rows.  With ``slack`` the drawn k-mers have random slack bits."""
    rng = np.random.default_rng([n, k, slack])
    base = packed.pack(_random_windows(rng, max(1, n // 4), k))
    if slack:
        base[:, 1] |= rng.integers(0, 1 << (128 - 2 * k), base.shape[0], dtype=np.uint64)
    rows = base[rng.integers(0, base.shape[0], n)]
    digit = 64 - max(1, (n - 1).bit_length())
    bits = [128 - 2 * k, digit - 1, digit, 2 * digit - 1, 2 * digit]
    pick = rng.integers(0, len(bits) + 1, n)  # the last choice flips nothing
    for i, bit in enumerate(bits):
        _flip(rows[pick == i], bit)
    return rows


class TestUniqueInverseCounts:
    @pytest.mark.parametrize("k", (33, 51, 63))
    @given(words=st.lists(st.tuples(_WORD, _WORD), min_size=0, max_size=40))
    @example(words=[])
    @example(words=[(5, 1 << 63)])
    def test_two_word_rows_match_key_string_sort(self, k, words):
        rows = _two_word_rows(words, k)
        _assert_unique_matches_oracle(rows, k)
        distinct, _, counts = packed.unique_inverse_counts(rows, k)
        assert distinct.shape == (counts.shape[0], 2)
        assert distinct.dtype == np.uint64

    @given(
        k=st.integers(33, 63),
        words=st.lists(
            st.tuples(_WORD | st.integers(0, _TOP), _WORD | st.integers(0, _TOP)),
            max_size=60,
        ),
    )
    @example(k=51, words=[(5, 1 << 63), (5, 1 << 62), (2, 0), (5, 1 << 63)])
    def test_every_two_word_k(self, k, words):
        _assert_unique_matches_oracle(_two_word_rows(words, k), k)

    @pytest.mark.parametrize("k", (33, 48, 63))
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_TIES))
    def test_adversarial_ties(self, name, k):
        rows = _two_word_rows(ADVERSARIAL_TIES[name], k)
        _assert_unique_matches_oracle(rows, k)
        _assert_unique_matches_oracle(np.asfortranarray(rows), k)

    @pytest.mark.parametrize("k", (33, 63))
    @pytest.mark.parametrize("store_name", ("store_single", "store_paired"))
    def test_real_rows_of_the_conftest_stores(self, request, store_name, k):
        store = request.getfixturevalue(store_name)
        rows = packed_kmers(store.codes, k)
        # 50 bp single-end reads hold no 63-mer: the empty input, for real.
        assert rows.shape[0] > 1000 or (store_name, k) == ("store_single", 63)
        _assert_unique_matches_oracle(rows, k)

    @pytest.mark.parametrize("slack", (False, True))
    @pytest.mark.parametrize("k", (33, 34, 47, 51, 63))
    @pytest.mark.parametrize("n", RADIX_NS)
    def test_near_twins_at_every_digit_split(self, n, k, slack):
        rows = _near_twins(n, k, slack)
        _assert_unique_matches_oracle(rows, k)
        _assert_unique_matches_oracle(np.asfortranarray(rows), k)

    def test_flipped_bits_make_distinct_rows(self):
        rows = np.zeros((130, 2), dtype=np.uint64)
        for bit in range(128):
            _flip(rows[bit + 2 :], bit)  # row i has the low i - 1 bits set
        counts = packed.unique_inverse_counts(rows, 63)[2]
        assert counts.tolist() == [2] + [1] * 128
        _assert_unique_matches_oracle(rows[::-1], 63)

    def test_real_rows_above_two_to_the_seventeen(self, store_paired):
        rows = packed_kmers(store_paired.codes, 51)
        assert rows.shape[0] > 1 << 17
        _assert_unique_matches_oracle(rows, 51)

    @pytest.mark.parametrize("k", (3, 25, 32))
    @given(words=st.lists(_WORD, min_size=0, max_size=40))
    def test_one_word_rows_match_plain_unique(self, k, words):
        rows = np.array(words, dtype=np.uint64).reshape(-1, 1)
        got = packed.unique_inverse_counts(rows, k)
        for g, w in zip(got, _s16_unique(rows, k)):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("k", (33, 63))
    def test_real_kmers_with_duplicates(self, k):
        rng = np.random.default_rng(k)
        rows = packed.pack(_random_windows(rng, 300, k))
        rows = rows[rng.integers(0, 300, size=2000)]
        for g, w in zip(
            packed.unique_inverse_counts(rows, k), _s16_unique(rows, k)
        ):
            assert np.array_equal(g, w)


class TestPipelineParity:
    """The packed read->k-mer pipeline must agree with the oracle's bytes
    pipeline."""

    @given(dna_with_n, st.sampled_from(BOUNDARY_KS))
    def test_canonical_extraction_parity(self, seq, k):
        rows = canonical_kmers_varlen_packed([seq], k)
        expect = canonical_kmers(encode(seq), k)
        assert rows.shape == (expect.shape[0], packed.words_for(k))
        assert _as_bytes(rows, k) == [
            bytes(r.tolist()) for r in expect
        ]

    @given(st.lists(dna_with_n, max_size=8), st.sampled_from((31, 33)))
    def test_varlen_parity(self, seqs, k):
        rows = canonical_kmers_varlen_packed(seqs, k)
        expect = canonical_kmers_varlen(seqs, k)
        assert _as_bytes(rows, k) == [
            bytes(r.tolist()) for r in expect
        ]

    @given(st.lists(dna, min_size=1, max_size=6), st.sampled_from((31, 63)))
    def test_counts_parity(self, seqs, k):
        brows = canonical_kmers_varlen(seqs, k)
        prows, _, pcounts = packed.unique_inverse_counts(
            canonical_kmers_varlen_packed(seqs, k), k
        )
        expect = kmer_counts(brows)
        got = dict(zip(_as_bytes(prows, k), pcounts.tolist()))
        assert got == expect

    @given(dna)
    def test_owner_parity(self, seq):
        # The packed hash (one table gather per two bytes) against the per-base
        # bytes hash, on the read's canonical k-mers plus four rows of one
        # code repeated: canonical rows alone never hold T at every position.
        for k in (3, 25, 31, 32, 33, 51, 63):
            uniform = np.repeat(np.arange(4, dtype=np.uint8)[:, None], k, axis=1)
            brows = np.concatenate([canonical_kmers(encode(seq), k), uniform])
            prows = np.concatenate(
                [canonical_kmers_varlen_packed([seq], k), packed.pack(uniform)]
            )
            for n_ranks in (1, 2, 3, 8):
                owners = kmer_owner_packed(prows, k, n_ranks)
                assert np.array_equal(owners, kmer_owner(brows, n_ranks))
                assert owners.dtype == np.int64 and owners.max() < n_ranks

    @pytest.mark.parametrize("k", range(packed.MIN_K, packed.MAX_K + 1))
    def test_owner_parity_at_every_k(self, k):
        # Every digit count and every partial last digit of the pair table.
        rng = np.random.default_rng(k)
        uniform = np.repeat(np.arange(4, dtype=np.uint8)[:, None], k, axis=1)
        win = np.concatenate([_random_windows(rng, 300, k), uniform])
        for n_ranks in (2, 3, 8):
            owners = kmer_owner_packed(packed.pack(win), k, n_ranks)
            assert np.array_equal(owners, kmer_owner(win, n_ranks))

    def test_empty_reads(self):
        for k in BOUNDARY_KS:
            assert canonical_kmers_varlen_packed([], k).shape == (
                0,
                packed.words_for(k),
            )
            assert canonical_kmers_varlen_packed(["", "AC"], k).shape[0] == 0
            rows, _, counts = packed.unique_inverse_counts(
                canonical_kmers_varlen_packed([], k), k
            )
            assert rows.shape[0] == 0 and counts.shape[0] == 0

    def test_all_n_read_yields_nothing(self):
        assert canonical_kmers_varlen_packed(["N" * 80], 31).shape[0] == 0
