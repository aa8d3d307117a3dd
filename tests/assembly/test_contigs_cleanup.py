"""Tests for contig records, stats and graph cleanup."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.assembly.base import AssemblyParams, unitigs_to_contigs
from repro.assembly.cleanup import clean_unitigs, clip_tips, pop_bubbles
from repro.assembly.contigs import AssemblyResult, Contig, assembly_stats, n50
from repro.assembly.dbg import Unitig
from repro.parallel.usage import ResourceUsage
from repro.seq.alphabet import encode, reverse_complement


def unitig(seq: str, cov: float) -> Unitig:
    codes = encode(seq)
    return Unitig(codes=codes, coverage=cov, n_kmers=max(len(seq) - 4, 1))


class TestN50:
    def test_empty(self):
        assert n50([]) == 0

    def test_single(self):
        assert n50([100]) == 100

    def test_classic(self):
        # total 90; half 45; cumulative 30, 55 -> N50 = 25
        assert n50([10, 20, 25, 30, 5]) == 25

    @given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1))
    def test_n50_is_a_length(self, lengths):
        assert n50(lengths) in lengths

    @given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1))
    def test_n50_at_least_median_length_mass(self, lengths):
        value = n50(lengths)
        covered = sum(l for l in lengths if l >= value)
        assert covered >= sum(lengths) / 2


class TestContig:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Contig("c", "", 1.0, 31, "x")

    def test_codes(self):
        c = Contig("c", "ACGT", 1.0, 3, "x")
        assert c.codes.tolist() == [0, 1, 2, 3]
        assert len(c) == 4

    def test_stats(self):
        contigs = [
            Contig("a", "A" * 100, 10.0, 31, "x"),
            Contig("b", "C" * 300, 20.0, 31, "x"),
        ]
        s = assembly_stats(contigs)
        assert s["n_contigs"] == 2
        assert s["total_bp"] == 400
        assert s["n50"] == 300
        assert s["max_len"] == 300
        assert s["mean_coverage"] == pytest.approx(15.0)

    def test_stats_empty(self):
        s = assembly_stats([])
        assert s["n_contigs"] == 0
        assert s["n50"] == 0

    def test_result_totals(self):
        res = AssemblyResult(
            assembler="x", k=31,
            contigs=[Contig("a", "ACGTT", 1.0, 3, "x")],
            usage=ResourceUsage(),
        )
        assert res.total_bp == 5
        assert len(res) == 1


class TestUnitigsToContigs:
    @given(
        st.lists(st.text(alphabet="ACGT", min_size=3, max_size=12), max_size=12),
        st.integers(3, 8),
    )
    def test_strand_and_order_chosen_on_codes_as_on_letters(self, seqs, min_len):
        # Same-length ties, a palindrome and both strands of one sequence
        # ride along with whatever is drawn.
        seqs = seqs + ["ACGT", "AAAC", "GTTT", "TTTTT"]
        unitigs = [unitig(s, float(i)) for i, s in enumerate(seqs)]
        params = AssemblyParams(k=3, min_contig_length=min_len)
        kept = [
            (min(u.seq, reverse_complement(u.seq)), u)
            for u in unitigs
            if len(u) >= min_len
        ]
        kept.sort(key=lambda pair: (-len(pair[0]), pair[0]))
        got = unitigs_to_contigs(unitigs, params, "x")
        assert [(c.seq, c.coverage) for c in got] == [
            (seq, u.coverage) for seq, u in kept
        ]
        assert [c.contig_id for c in got] == [
            f"x_k3_c{i:06d}" for i in range(len(kept))
        ]


class TestUnitigGraph:
    def test_graph_edges_one_per_unitig(self):
        # ``work`` counts the condensed graph: the bubble pass one
        # operation per edge (= unitig), the tip pass edges + junctions.
        us = [unitig("ACGTACGTAC", 5.0), unitig("GGGGCCCCAA", 3.0)]
        assert pop_bubbles(us, 5)[1].work == 2
        assert clip_tips(us, 5)[1].work == 2 + 4


class TestClipTips:
    def make_tip_scenario(self):
        """A long high-coverage backbone with a short low-coverage tip
        sharing the backbone's start junction."""
        backbone = "ACGGTCACTGATTGCCGTAAGGCTAGCTAA"
        tip = backbone[:4] + "TTCTG"  # shares left junction (k=5 -> j=4bp)
        return [unitig(backbone, 50.0), unitig(tip, 2.0)]

    def test_tip_removed(self):
        us = self.make_tip_scenario()
        kept, stats = clip_tips(us, k=5)
        assert stats.tips_removed == 1
        assert len(kept) == 1
        assert kept[0].coverage == 50.0

    def test_high_coverage_tip_kept(self):
        us = self.make_tip_scenario()
        us[1] = unitig(us[1].seq, 45.0)  # comparable coverage: not an error
        kept, stats = clip_tips(us, k=5)
        assert stats.tips_removed == 0
        assert len(kept) == 2

    def test_long_tip_kept(self):
        backbone = "ACGGTCACTGATTGCCGTAAGGCTAGCTAA"
        long_branch = backbone[:4] + "TTCTGAAGTCCATGCA"  # >= 2k
        us = [unitig(backbone, 50.0), unitig(long_branch, 2.0)]
        kept, stats = clip_tips(us, k=5, max_tip_length=10)
        assert stats.tips_removed == 0

    def test_isolated_contig_kept(self):
        us = [unitig("ACGGTCACTGATTGCCGTAAGG", 1.0)]
        kept, stats = clip_tips(us, k=5)
        assert len(kept) == 1
        assert stats.tips_removed == 0

    def test_empty(self):
        kept, stats = clip_tips([], k=5)
        assert kept == []


class TestPopBubbles:
    def make_bubble(self):
        """Two parallel unitigs with identical junctions, one low coverage."""
        a = "ACGGTCACTGATTGCCGTAA"
        b = a[:4] + "TTTCAGGACCCA" + a[-4:]  # same end junctions, similar len
        return [unitig(a, 40.0), unitig(b, 3.0)]

    def test_bubble_popped(self):
        us = self.make_bubble()
        kept, stats = pop_bubbles(us, k=5, length_tolerance=0.2)
        assert stats.bubbles_popped == 1
        assert len(kept) == 1
        assert kept[0].coverage == 40.0

    def test_different_lengths_not_popped(self):
        a = "ACGGTCACTGATTGCCGTAA"
        b = a[:4] + "T" * 40 + a[-4:]
        us = [unitig(a, 40.0), unitig(b, 3.0)]
        kept, stats = pop_bubbles(us, k=5, length_tolerance=0.1)
        assert stats.bubbles_popped == 0

    def test_empty(self):
        kept, stats = pop_bubbles([], k=5)
        assert kept == []


class TestCleanCombined:
    def test_clean_runs_both(self):
        us = TestClipTips().make_tip_scenario() + TestPopBubbles().make_bubble()
        kept, stats = clean_unitigs(us, k=5)
        assert stats.tips_removed >= 1
        assert len(kept) < len(us)

    def test_flags_disable(self):
        us = TestClipTips().make_tip_scenario()
        kept, stats = clean_unitigs(us, k=5, clip=False, pop=False)
        assert len(kept) == len(us)
