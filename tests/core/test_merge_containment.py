"""Containment parity: the bitmask seed index vs the set-based oracle.

``repro.core.merge._remove_contained`` ORs one Python-int bitmask of
kept contigs per seed; ``merge_reference.remove_contained`` is the
list-and-``set`` loop it replaced.  Every case requires the same kept
contigs in the same order, the same ``contained_removed`` and the same
charged containment work.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.contigs import Contig
from repro.core.merge import SEED_K, MergeResult, _remove_contained, merge_contigs
from repro.parallel.usage import ResourceUsage

from .merge_reference import _revcomp, remove_contained


def contigs(seqs):
    return [Contig(f"c{i}", s, 1.0, 31, "x") for i, s in enumerate(seqs)]


def assert_parity(seqs):
    cs = contigs(seqs)
    result = MergeResult(transcripts=[], usage=ResourceUsage(n_ranks=1))
    kept = _remove_contained(cs, result)
    want_kept, want_removed, want_work = remove_contained(cs)
    assert [c.contig_id for c in kept] == [c.contig_id for c in want_kept]
    assert result.contained_removed == want_removed
    (phase,) = result.usage.phases
    assert (phase.critical_compute, phase.total_compute, phase.serial_compute) == (
        float(want_work),
    ) * 3
    return kept, result


@st.composite
def contig_sets(draw):
    """Random contigs (some shorter than SEED_K, up to a hundred, so the
    masks cross a machine word) and contigs cut from them: exact and
    reverse-complement copies, forward and reverse-complement pieces
    (some shorter than SEED_K), and one-base variants."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    seqs = [
        "".join(rng.choices("ACGT", k=rng.randint(5, 90)))
        for _ in range(draw(st.integers(1, 100)))
    ]
    kinds = ["duplicate", "revcomp", "piece", "rc_piece", "short", "variant"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        src = rng.choice(seqs)
        a = rng.randrange(len(src))
        piece = src[a : rng.randint(a + 1, len(src))]
        if kind == "duplicate":
            seqs.append(src)
        elif kind == "revcomp":
            seqs.append(_revcomp(src))
        elif kind == "piece":
            seqs.append(piece)
        elif kind == "rc_piece":
            seqs.append(_revcomp(piece))
        elif kind == "short":
            short = piece[: SEED_K - 1]
            seqs.append(_revcomp(short) if rng.random() < 0.5 else short)
        else:
            i = rng.randrange(len(src))
            base = rng.choice([b for b in "ACGT" if b != src[i]])
            seqs.append(src[:i] + base + src[i + 1 :])
    return seqs


@given(contig_sets())
@settings(max_examples=120, deadline=None)
def test_matches_set_based_oracle(seqs):
    assert_parity(seqs)


def test_container_beyond_the_first_machine_word():
    """100 kept contigs longer than the pieces; the containers of the
    pieces are kept[64:] (bits 64 and up of every mask)."""
    rng = random.Random(7)
    long = ["".join(rng.choices("ACGT", k=300 - i)) for i in range(100)]
    pieces = []
    for src in long[64:]:
        pieces += [src[10:60], _revcomp(src[100:140]), src[5:15]]
    kept, result = assert_parity(long + pieces)
    assert [c.seq for c in kept] == long
    assert result.contained_removed == len(pieces)


def test_seed_held_by_two_kept_contigs():
    """A piece of two kept one-base variants is a candidate of both."""
    rng = random.Random(5)
    s = "".join(rng.choices("ACGT", k=120))
    variant = s[:100] + ("A" if s[100] != "A" else "C") + s[101:]
    _, result = assert_parity([s, variant, s[10:60]])
    assert result.contained_removed == 1
    assert result.usage.phases[0].total_compute == 120 + (1 + 120) + (2 + 50)


class TestShortContigs:
    """A contig shorter than SEED_K used to be kept whatever held it:
    its one seed (itself) never equals a 21-base index key."""

    S = "ACGTTGCAAGGCTTAACCGGATCTTGACCATGGTAACG"  # 38 bp

    def test_short_forward_substring_dropped(self):
        kept, result = assert_parity([self.S, self.S[5:20]])
        assert [c.seq for c in kept] == [self.S]
        assert result.contained_removed == 1

    def test_short_revcomp_substring_dropped(self):
        kept, result = assert_parity([self.S, _revcomp(self.S[5:20])])
        assert [c.seq for c in kept] == [self.S]
        assert result.contained_removed == 1

    def test_short_inside_short_kept_contig_dropped(self):
        kept, result = assert_parity([self.S[:18], self.S[3:10], "GGGG"])
        assert [c.seq for c in kept] == [self.S[:18], "GGGG"]
        assert result.contained_removed == 1

    def test_short_contig_charged_for_every_kept_contig(self):
        # three kept 38/37/36 bp contigs with no shared seed, then one
        # 10 bp contig held by none of them: 3 candidates + 10 bases
        rng = random.Random(3)
        seqs = ["".join(rng.choices("ACGT", k=38 - i)) for i in range(3)]
        _, result = assert_parity(seqs + ["A" * 10])
        assert result.usage.phases[0].total_compute == float(38 + 37 + 36 + 3 + 10)


class TestCopies:
    """Equal contigs are adjacent in containment order and take no seed
    query: a copy is contained, and books its predecessor's candidates
    plus the predecessor itself when that one was kept."""

    rng = random.Random(11)
    L = "".join(rng.choices("ACGT", k=120))
    X = "".join(rng.choices("ACGT", k=60))  # held by nothing before it

    @pytest.mark.parametrize("n", (2, 3))
    def test_copies_of_a_kept_contig(self, n):
        kept, result = assert_parity([self.L] + [self.X] * n)
        assert [c.seq for c in kept] == [self.L, self.X]
        assert result.contained_removed == n - 1
        # X finds no candidate; each copy has X itself, the one kept.
        assert result.usage.phases[0].total_compute == 120 + 60 + (1 + 60) * (n - 1)

    @pytest.mark.parametrize("n", (2, 3))
    def test_copies_of_a_contained_contig(self, n):
        piece = self.L[30:90]
        kept, result = assert_parity([self.L] + [piece] * n)
        assert [c.seq for c in kept] == [self.L]
        assert result.contained_removed == n
        # Every copy has L as its one candidate, as the first did.
        assert result.usage.phases[0].total_compute == 120 + (1 + 60) * n

    @pytest.mark.parametrize("held", (False, True), ids=("kept", "contained"))
    @pytest.mark.parametrize("n", (2, 3))
    def test_copies_shorter_than_the_seed(self, held, n):
        short = self.L[50 : 50 + SEED_K - 4] if held else "T" * (SEED_K - 4)
        kept, result = assert_parity([self.L] + [short] * n)
        assert [c.seq for c in kept] == [self.L] + ([] if held else [short])
        assert result.contained_removed == n - (not held)

    def test_a_reverse_complement_is_queried(self):
        """rc(X) sorts apart from X, so it takes the seed query."""
        rc = _revcomp(self.X)
        assert rc != self.X
        kept, result = assert_parity([self.X, rc, self.X])
        assert [c.seq for c in kept] == [min(self.X, rc)]
        assert result.contained_removed == 2


@given(contig_sets())
@settings(max_examples=40, deadline=None)
def test_merging_every_set_twice_merges_it_once(seqs):
    """A second copy of every contig set changes no transcript: each
    copy is contained, and only the copies are."""
    rng = random.Random(len(seqs))
    cs = contigs(seqs)
    sets = [cs[i : i + 7] for i in range(0, len(cs), 7)]
    rng.shuffle(sets)
    once, twice = merge_contigs(sets), merge_contigs(sets + sets)
    assert twice.transcripts == once.transcripts
    assert twice.joins == once.joins
    assert twice.contained_removed == once.contained_removed + len(cs)
