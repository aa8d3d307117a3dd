"""Tests for transcriptome construction and RNA-seq read simulation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.seq import transcriptome as tx
from repro.seq.alphabet import encode, decode, reverse_complement
from repro.seq.genome import GenomeSpec, synthesize_genome
from repro.seq.reads import ADAPTER, ReadSimSpec, ReadSimulator
from repro.seq.transcriptome import Transcript, Transcriptome, expression_profile


@pytest.fixture(scope="module")
def genome():
    return synthesize_genome(GenomeSpec(name="g", size_bp=80_000, n_genes=40, seed=3))


@pytest.fixture(scope="module")
def txome(genome):
    return tx.from_genome(genome, np.random.default_rng(0))


class TestExpressionProfile:
    def test_normalized(self):
        p = expression_profile(100, np.random.default_rng(0))
        assert p.sum() == pytest.approx(1.0)
        assert (p > 0).all()

    def test_empty(self):
        assert expression_profile(0, np.random.default_rng(0)).shape == (0,)

    def test_skew_increases_with_sigma(self):
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        flat = expression_profile(1000, rng1, sigma=0.1)
        skewed = expression_profile(1000, rng2, sigma=2.5)
        assert skewed.max() > flat.max()


class TestTranscriptome:
    def test_from_genome_subset(self, genome, txome):
        assert 0 < len(txome) <= len(genome.genes)
        assert txome.abundances().sum() == pytest.approx(1.0)

    def test_transcript_sequences_match_genes(self, genome):
        t = tx.from_genome(genome, np.random.default_rng(1), expressed_fraction=1.0)
        gene_seqs = {decode(genome.gene_sequence(g)) for g in genome.genes}
        for tr in t:
            assert tr.seq in gene_seqs

    def test_sampling_weights_favor_long_abundant(self):
        t = Transcriptome(
            "x",
            [
                Transcript("a", encode("A" * 100), 0.5),
                Transcript("b", encode("C" * 1000), 0.5),
            ],
        )
        w = t.read_sampling_weights()
        assert w.sum() == pytest.approx(1.0)
        assert w[1] > w[0]

    def test_empty_weights_raise(self):
        t = Transcriptome("x", [Transcript("a", encode("ACGT"), 0.0)])
        with pytest.raises(ValueError):
            t.read_sampling_weights()

    def test_expressed_fraction_validation(self, genome):
        with pytest.raises(ValueError):
            tx.from_genome(genome, np.random.default_rng(0), expressed_fraction=0.0)

    def test_total_bp(self):
        t = Transcriptome("x", [Transcript("a", encode("ACGT"), 1.0)])
        assert t.total_bp == 4


class TestReadSimulator:
    def test_single_end_run(self, txome):
        spec = ReadSimSpec(read_length=50, n_reads=500, paired=False, seed=1)
        run = ReadSimulator(txome, spec).run()
        assert len(run.reads) == 500
        assert not run.mates
        assert all(len(r) == 50 for r in run.reads)
        assert len(run.origins) == 500

    def test_paired_end_run(self, txome):
        spec = ReadSimSpec(read_length=100, n_reads=300, paired=True, seed=1)
        run = ReadSimulator(txome, spec).run()
        assert len(run.reads) == len(run.mates) == 300
        assert all(r.id.endswith("/1") for r in run.reads)
        assert all(r.id.endswith("/2") for r in run.mates)
        assert run.all_reads() == [
            r for pair in zip(run.reads, run.mates) for r in pair
        ]

    def test_all_reads_rejects_a_lost_mate(self, txome):
        spec = ReadSimSpec(read_length=60, n_reads=50, paired=True, seed=3)
        run = ReadSimulator(txome, spec).run()
        lopsided = replace(run, mates=run.mates[:-1])
        with pytest.raises(ValueError, match="50 reads but 49 mates"):
            lopsided.all_reads()

    def test_reads_trace_to_origin(self, txome):
        spec = ReadSimSpec(
            read_length=50, n_reads=200, seed=2,
            error_rate_start=0.0, error_rate_end=0.0, n_rate=0.0,
            duplicate_fraction=0.0,
        )
        run = ReadSimulator(txome, spec).run()
        for rec, origin in zip(run.reads[:50], run.origins[:50]):
            t = txome.transcripts[origin.transcript_index]
            frag = t.seq[origin.offset : origin.offset + origin.length]
            if origin.strand == -1:
                frag = reverse_complement(frag)
            # Error-free read 1 is a prefix of its fragment (adapter-padded
            # only when the fragment is shorter than the read).
            if len(frag) >= 50:
                assert rec.seq == frag[:50]

    def test_error_rate_nonzero(self, txome):
        spec = ReadSimSpec(
            read_length=50, n_reads=300, seed=3,
            error_rate_start=0.1, error_rate_end=0.1, n_rate=0.0,
            duplicate_fraction=0.0,
        )
        run = ReadSimulator(txome, spec).run()
        mismatches = 0
        total = 0
        for rec, origin in zip(run.reads, run.origins):
            t = txome.transcripts[origin.transcript_index]
            frag = t.seq[origin.offset : origin.offset + origin.length]
            if origin.strand == -1:
                frag = reverse_complement(frag)
            if len(frag) < 50:
                continue
            mismatches += sum(a != b for a, b in zip(rec.seq, frag[:50]))
            total += 50
        assert total > 0
        assert 0.05 < mismatches / total < 0.15

    def test_n_bases_injected(self, txome):
        spec = ReadSimSpec(read_length=50, n_reads=400, n_rate=0.05, seed=4)
        run = ReadSimulator(txome, spec).run()
        n_frac = sum(r.seq.count("N") for r in run.reads) / (400 * 50)
        assert 0.02 < n_frac < 0.1

    def test_duplicates_present(self, txome):
        spec = ReadSimSpec(
            read_length=50, n_reads=1000, duplicate_fraction=0.2, seed=5
        )
        run = ReadSimulator(txome, spec).run()
        assert len(run.reads) == 1000
        seqs = [r.seq for r in run.reads]
        assert len(set(seqs)) < len(seqs)

    def test_quality_ramp_decreases(self, txome):
        spec = ReadSimSpec(read_length=100, n_reads=50, seed=6)
        run = ReadSimulator(txome, spec).run()
        ph = np.mean([r.phred() for r in run.reads], axis=0)
        assert ph[:10].mean() > ph[-10:].mean()

    def test_adapter_on_short_fragments(self, txome):
        spec = ReadSimSpec(
            read_length=100, n_reads=500, fragment_mean=60, fragment_sd=10,
            seed=7, error_rate_start=0.0, error_rate_end=0.0, n_rate=0.0,
        )
        run = ReadSimulator(txome, spec).run()
        with_adapter = [r for r in run.reads if ADAPTER in r.seq]
        assert with_adapter, "short fragments must show adapter read-through"

    def test_deterministic(self, txome):
        spec = ReadSimSpec(read_length=50, n_reads=100, seed=9)
        r1 = ReadSimulator(txome, spec).run()
        r2 = ReadSimulator(txome, spec).run()
        assert [x.seq for x in r1.reads] == [x.seq for x in r2.reads]

    def test_empty_transcriptome_rejected(self):
        with pytest.raises(ValueError):
            ReadSimulator(Transcriptome("e", []), ReadSimSpec())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ReadSimSpec(read_length=5)
        with pytest.raises(ValueError):
            ReadSimSpec(paired=True, read_length=100, fragment_mean=50)
        with pytest.raises(ValueError):
            ReadSimSpec(n_reads=-1)

    def test_total_bases(self, txome):
        spec = ReadSimSpec(read_length=50, n_reads=100, seed=0)
        run = ReadSimulator(txome, spec).run()
        assert sum(map(len, run.all_reads())) == 100 * 50
