"""Unit and property tests for repro.seq.alphabet."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.seq import alphabet
from repro.seq.alphabet import (
    A,
    C,
    G,
    N,
    T,
    complement,
    decode,
    encode,
    gc_content,
    random_dna,
    reverse_complement,
)

dna_strings = st.text(alphabet="ACGTN", max_size=300)
dna_strings_nonempty = st.text(alphabet="ACGT", min_size=1, max_size=300)


class TestEncodeDecode:
    def test_encode_basic(self):
        assert encode("ACGTN").tolist() == [A, C, G, T, N]

    def test_encode_lowercase(self):
        assert encode("acgtn").tolist() == [A, C, G, T, N]

    def test_encode_unknown_maps_to_n(self):
        assert encode("XYZ-").tolist() == [N, N, N, N]

    def test_encode_empty(self):
        assert encode("").shape == (0,)

    def test_encode_bytes_input(self):
        assert encode(b"ACGT").tolist() == [A, C, G, T]

    def test_decode_basic(self):
        assert decode(np.array([A, C, G, T, N], dtype=np.uint8)) == "ACGTN"

    def test_decode_empty(self):
        assert decode(np.array([], dtype=np.uint8)) == ""

    def test_decode_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            decode(np.array([0, 9], dtype=np.uint8))

    @given(dna_strings)
    def test_roundtrip(self, s):
        assert decode(encode(s)) == s

    def test_every_byte_maps_as_the_lut(self):
        codes = encode(bytes(range(256)))
        assert codes.dtype == np.uint8
        assert codes.tolist() == alphabet._ENCODE_LUT.tolist()

    def test_non_ascii_str_raises(self):
        with pytest.raises(UnicodeEncodeError):
            encode("AC\u00e9T")


class TestComplement:
    def test_complement_pairs(self):
        assert decode(complement(encode("ACGTN"))) == "TGCAN"

    def test_reverse_complement_str(self):
        assert reverse_complement("AACGTT") == "AACGTT"
        assert reverse_complement("ATGC") == "GCAT"
        assert reverse_complement("ANT") == "ANT"

    def test_reverse_complement_array_returns_array(self):
        out = reverse_complement(encode("ACGT"))
        assert isinstance(out, np.ndarray)
        assert decode(out) == "ACGT"

    @given(dna_strings)
    def test_revcomp_involution(self, s):
        assert reverse_complement(reverse_complement(s)) == s

    @given(dna_strings_nonempty)
    def test_revcomp_preserves_length_and_alphabet(self, s):
        rc = reverse_complement(s)
        assert len(rc) == len(s)
        assert set(rc) <= set("ACGT")

    @given(dna_strings_nonempty, dna_strings_nonempty)
    def test_revcomp_antihomomorphism(self, a, b):
        # rc(a + b) == rc(b) + rc(a)
        assert reverse_complement(a + b) == reverse_complement(
            b
        ) + reverse_complement(a)


def _array_path(s: str) -> str:
    """The str path's oracle: what it computed through code arrays."""
    return decode(complement(encode(s))[::-1])


class TestStrTranslation:
    """``reverse_complement`` on a ``str`` is a translation table; it must
    equal ``encode`` -> ``complement`` -> reverse -> ``decode``."""

    def test_every_ascii_code(self):
        every = "".join(map(chr, range(128)))
        assert reverse_complement(every) == _array_path(every)
        for c in every:
            assert reverse_complement(c) == _array_path(c)

    def test_mixed_case(self):
        # encode is case-insensitive, so lower case complements too and
        # comes out upper case; anything outside ACGTN becomes N.
        s = "acgtnACGTNaCgTnXx-"
        assert reverse_complement(s) == _array_path(s) == "NNNNACGTNACGTNACGT"

    def test_empty(self):
        assert reverse_complement("") == _array_path("") == ""

    @pytest.mark.parametrize("s", ["é", "ACGTé", "AC—GT", "\U0001f9ec"])
    def test_non_ascii_raises_like_the_array_path(self, s):
        with pytest.raises(UnicodeEncodeError) as want:
            _array_path(s)
        with pytest.raises(UnicodeEncodeError) as got:
            reverse_complement(s)
        assert str(got.value) == str(want.value)

    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=200))
    def test_any_ascii_text(self, s):
        assert reverse_complement(s) == _array_path(s)


class TestGC:
    def test_gc_half(self):
        assert gc_content("ACGT") == pytest.approx(0.5)

    def test_gc_all(self):
        assert gc_content("GGCC") == pytest.approx(1.0)

    def test_gc_ignores_n(self):
        assert gc_content("GN") == pytest.approx(1.0)

    def test_gc_empty_and_all_n(self):
        assert gc_content("") == 0.0
        assert gc_content("NNN") == 0.0

    @given(dna_strings)
    def test_gc_bounds(self, s):
        assert 0.0 <= gc_content(s) <= 1.0

    @given(dna_strings)
    def test_gc_revcomp_invariant(self, s):
        # G+C count is preserved under reverse complement.
        assert gc_content(s) == pytest.approx(gc_content(reverse_complement(s)))


class TestRandomDNA:
    def test_length_and_validity(self):
        rng = np.random.default_rng(0)
        seq = random_dna(1000, rng, gc=0.6)
        assert seq.shape == (1000,)
        assert seq.max() < N

    def test_gc_target_respected(self):
        rng = np.random.default_rng(1)
        seq = random_dna(50_000, rng, gc=0.7)
        assert gc_content(seq) == pytest.approx(0.7, abs=0.02)

    def test_invalid_gc_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_dna(10, rng, gc=1.5)

    def test_deterministic_for_seed(self):
        a = random_dna(100, np.random.default_rng(7))
        b = random_dna(100, np.random.default_rng(7))
        assert (a == b).all()

    def test_zero_length(self):
        assert random_dna(0, np.random.default_rng(0)).shape == (0,)


class TestValidity:
    def test_module_constants(self):
        assert alphabet.BASES == "ACGTN"
        assert (A, C, G, T, N) == (0, 1, 2, 3, 4)
