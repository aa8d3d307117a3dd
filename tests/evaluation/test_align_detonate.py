"""Tests for the seed-and-vote aligner and the DETONATE metric analogs."""

import numpy as np
import pytest

from repro.assembly.contigs import Contig
from repro.evaluation.align import AlignmentIndex, align_contig
from repro.evaluation.detonate import evaluate
from repro.seq.alphabet import decode, random_dna, reverse_complement
from repro.seq.transcriptome import Transcript, Transcriptome
from repro.seq.alphabet import encode


def make_refs(n=3, length=400, seed=0):
    rng = np.random.default_rng(seed)
    return [decode(random_dna(length, rng)) for _ in range(n)]


def contig(seq, cid="c0"):
    return Contig(cid, seq, 10.0, 31, "test")


def txome(refs, weights=None):
    n = len(refs)
    weights = weights or [1.0 / n] * n
    return Transcriptome(
        "ref",
        [
            Transcript(f"t{i}", encode(s), w)
            for i, (s, w) in enumerate(zip(refs, weights))
        ],
    )


class TestAligner:
    def test_exact_substring_aligns_perfectly(self):
        refs = make_refs()
        index = AlignmentIndex(refs)
        aln = align_contig(index, refs[1][50:250])
        assert aln is not None
        assert aln.transcript_index == 1
        assert aln.ref_start == 50
        assert aln.length == 200
        assert aln.matches == aln.length
        assert aln.strand == 1

    def test_reverse_strand_detected(self):
        refs = make_refs()
        index = AlignmentIndex(refs)
        aln = align_contig(index, reverse_complement(refs[0][10:210]))
        assert aln is not None
        assert aln.transcript_index == 0
        assert aln.strand == -1
        assert aln.matches == aln.length

    def test_mismatches_counted(self):
        refs = make_refs()
        index = AlignmentIndex(refs)
        piece = list(refs[2][100:300])
        piece[50] = "A" if piece[50] != "A" else "C"
        piece[120] = "G" if piece[120] != "G" else "T"
        aln = align_contig(index, "".join(piece))
        assert aln is not None
        assert aln.matches == 198
        assert aln.length == 200

    def test_unrelated_sequence_no_alignment(self):
        refs = make_refs(seed=0)
        index = AlignmentIndex(refs)
        rng = np.random.default_rng(99)
        junk = decode(random_dna(150, rng))
        aln = align_contig(index, junk)
        assert aln is None or aln.matches < 0.5 * aln.length

    def test_seed_k_validation(self):
        with pytest.raises(ValueError):
            AlignmentIndex(["ACGT"], seed_k=4)

    def test_contig_overhang_clipped(self):
        refs = make_refs()
        index = AlignmentIndex(refs)
        rng = np.random.default_rng(5)
        overhang = decode(random_dna(30, rng))
        aln = align_contig(index, overhang + refs[0][:100])
        assert aln is not None
        assert aln.transcript_index == 0
        # alignment restricted to the overlapping window
        assert aln.length <= 130


class TestDetonate:
    def test_perfect_assembly(self):
        refs = make_refs(n=2, length=300)
        scores = evaluate([contig(r, f"c{i}") for i, r in enumerate(refs)],
                          txome(refs))
        assert scores.precision == pytest.approx(1.0)
        assert scores.recall == pytest.approx(1.0)
        assert scores.f1 == pytest.approx(1.0)
        assert scores.weighted_kmer_recall == pytest.approx(1.0)
        assert scores.kc_score <= scores.weighted_kmer_recall

    def test_half_assembly_recall(self):
        refs = make_refs(n=2, length=300)
        scores = evaluate([contig(refs[0])], txome(refs))
        assert scores.precision == pytest.approx(1.0)
        assert scores.recall == pytest.approx(0.5, abs=0.02)
        assert 0.4 < scores.weighted_kmer_recall < 0.6

    def test_weighting_matters(self):
        """Covering only the abundant transcript scores higher WKR than
        covering only the rare one."""
        refs = make_refs(n=2, length=300)
        t = txome(refs, weights=[0.9, 0.1])
        high = evaluate([contig(refs[0])], t)
        low = evaluate([contig(refs[1])], t)
        assert high.weighted_kmer_recall > low.weighted_kmer_recall
        # unweighted nucleotide recall is identical
        assert high.recall == pytest.approx(low.recall, abs=0.02)

    def test_junk_contig_lowers_precision(self):
        refs = make_refs(n=1, length=400)
        rng = np.random.default_rng(7)
        junk = decode(random_dna(400, rng))
        clean = evaluate([contig(refs[0])], txome(refs))
        dirty = evaluate([contig(refs[0]), contig(junk, "junk")], txome(refs))
        assert dirty.precision < clean.precision
        assert dirty.recall == pytest.approx(clean.recall, abs=0.01)

    def test_kc_penalizes_bloat(self):
        refs = make_refs(n=1, length=400)
        rng = np.random.default_rng(8)
        bloat = [contig(decode(random_dna(400, rng)), f"b{i}") for i in range(5)]
        lean = evaluate([contig(refs[0])], txome(refs), total_read_kmers=10_000)
        fat = evaluate([contig(refs[0])] + bloat, txome(refs),
                       total_read_kmers=10_000)
        assert fat.kc_score < lean.kc_score
        assert fat.weighted_kmer_recall == pytest.approx(
            lean.weighted_kmer_recall, abs=0.01
        )

    def test_empty_assembly(self):
        refs = make_refs(n=1)
        scores = evaluate([], txome(refs))
        assert scores.precision == 0.0
        assert scores.recall == 0.0
        assert scores.f1 == 0.0
        assert scores.n_contigs == 0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], Transcriptome("e", []))

    def test_score_bounds(self):
        refs = make_refs(n=3)
        scores = evaluate(
            [contig(refs[0][:200]), contig(refs[1][100:250], "c1")], txome(refs)
        )
        for v in (scores.precision, scores.recall, scores.f1,
                  scores.weighted_kmer_recall):
            assert 0.0 <= v <= 1.0

    def test_tuple_accessor(self):
        refs = make_refs(n=1)
        scores = evaluate([contig(refs[0])], txome(refs))
        assert scores.nucleotide_tuple() == (
            scores.precision, scores.recall, scores.f1,
        )
