"""The merge joins what overlaps (ROADMAP 16(b)).

Generated transcripts are cut into pieces whose neighbours overlap by
40 to 400 bp: chains of two to four pieces, so a middle piece overlaps
two, each piece on either strand.  The O(n^2) greedy longest-overlap
reference of ``merge_reference`` merges every transcript back; the
pipeline's ``merge_contigs`` joins only overlaps of exactly
``MIN_OVERLAP`` bases, so its test is a strict xfail until the merge
joins the longest overlap (ROADMAP 9(a)).
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.assembly.contigs import Contig
from repro.core.merge import MIN_OVERLAP, merge_contigs

from .merge_reference import _revcomp, join_longest_overlaps


@st.composite
def cut_transcripts(draw):
    """``(transcripts, pieces)``: one to three random transcripts, each
    cut into a chain of pieces; piece i holds its left overlap, at least
    20 bases of its own and its right overlap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transcripts, pieces = [], []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 4))
        overlap = st.integers(MIN_OVERLAP, 400)
        overlaps = draw(st.lists(overlap, min_size=n - 1, max_size=n - 1))
        own = draw(st.lists(st.integers(20, 300), min_size=n, max_size=n))
        codes = rng.integers(0, 4, sum(own) + sum(overlaps))
        seq = "".join("ACGT"[b] for b in codes)
        start = 0
        for i in range(n):
            left = overlaps[i - 1] if i else 0
            right = overlaps[i] if i < n - 1 else 0
            piece = seq[start : start + left + own[i] + right]
            pieces.append(_revcomp(piece) if draw(st.booleans()) else piece)
            start += left + own[i]
        transcripts.append(seq)
    return transcripts, pieces


def _strandless(seqs):
    return sorted(min(s, _revcomp(s)) for s in seqs)


#: No shrinking: the xfail's first failing example is enough.
CASES = settings(
    max_examples=30, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.generate),
)


@CASES
@given(case=cut_transcripts())
def test_the_reference_merges_every_transcript_back(case):
    transcripts, pieces = case
    assert _strandless(join_longest_overlaps(pieces, MIN_OVERLAP)) == _strandless(
        transcripts
    )


@CASES
@given(case=cut_transcripts())
def merge_joins_every_transcript_back(case):
    transcripts, pieces = case
    contigs = [Contig(f"p{i}", s, 1.0, 31, "x") for i, s in enumerate(pieces)]
    merged = merge_contigs([contigs]).transcripts
    assert _strandless(c.seq for c in merged) == _strandless(transcripts)


@pytest.mark.xfail(strict=True, reason="ROADMAP 9(a): only exact 40-bp overlaps join")
def test_the_merge_joins_every_transcript_back():
    # Called, not collected: a known failure of a collected @given test
    # makes Hypothesis's pytest plugin write an @example patch every run.
    merge_joins_every_transcript_back()
