"""Tests for synthetic genome generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.alphabet import N, decode, gc_content, reverse_complement
from repro.seq.genome import Exon, Gene, Genome, GenomeSpec, synthesize_genome


def is_valid_codes(codes: np.ndarray) -> bool:
    """Every element a legal base code (0..4)."""
    return bool((np.asarray(codes) <= N).all())


def mrna_length(g: Gene) -> int:
    return sum(len(ex) for ex in g.exons)


def small_spec(**kw):
    defaults = dict(name="t", size_bp=60_000, n_genes=30, seed=1)
    defaults.update(kw)
    return GenomeSpec(**defaults)


class TestExonGene:
    def test_exon_validation(self):
        with pytest.raises(ValueError):
            Exon(5, 5)
        with pytest.raises(ValueError):
            Exon(-1, 3)
        assert len(Exon(2, 10)) == 8

    def test_gene_validation_strand(self):
        with pytest.raises(ValueError):
            Gene("g", 0, 10, 0, (Exon(0, 10),))

    def test_gene_validation_overlapping_exons(self):
        with pytest.raises(ValueError):
            Gene("g", 0, 100, 1, (Exon(0, 50), Exon(40, 90)))

    def test_gene_validation_exon_past_locus(self):
        with pytest.raises(ValueError):
            Gene("g", 0, 10, 1, (Exon(0, 20),))

    def test_gene_lengths(self):
        g = Gene("g", 100, 300, 1, (Exon(0, 50), Exon(100, 200)))
        genome = Genome("x", np.zeros(400, dtype=np.uint8), [g])
        assert genome.gene_sequence(g).shape == (150,) and mrna_length(g) == 150


class TestSynthesize:
    def test_basic_properties(self):
        genome = synthesize_genome(small_spec())
        assert len(genome) == 60_000
        assert len(genome.genes) == 30
        assert is_valid_codes(genome.sequence)

    def test_genes_sorted_non_overlapping(self):
        genome = synthesize_genome(small_spec())
        prev_end = 0
        for g in genome.genes:
            assert g.start >= prev_end
            assert g.end <= len(genome)
            prev_end = g.end

    def test_gc_content(self):
        genome = synthesize_genome(small_spec(gc=0.68, size_bp=100_000))
        assert gc_content(genome.sequence) == pytest.approx(0.68, abs=0.02)

    def test_deterministic(self):
        g1 = synthesize_genome(small_spec(seed=5))
        g2 = synthesize_genome(small_spec(seed=5))
        assert (g1.sequence == g2.sequence).all()
        assert g1.genes == g2.genes

    def test_seed_changes_output(self):
        g1 = synthesize_genome(small_spec(seed=5))
        g2 = synthesize_genome(small_spec(seed=6))
        assert not (g1.sequence == g2.sequence).all()

    def test_does_not_fit_raises(self):
        with pytest.raises(ValueError):
            synthesize_genome(small_spec(size_bp=5_000, n_genes=30))

    def test_zero_genes(self):
        genome = synthesize_genome(small_spec(n_genes=0))
        assert genome.genes == []

    def test_minus_strand_mrna_is_revcomp(self):
        genome = synthesize_genome(small_spec())
        minus = [g for g in genome.genes if g.strand == -1 and len(g.exons) == 1]
        assert minus, "expected at least one single-exon minus-strand gene"
        g = minus[0]
        locus = decode(genome.sequence[g.start : g.end])
        assert decode(genome.gene_sequence(g)) == reverse_complement(locus)

    def test_plus_strand_single_exon_mrna_matches_locus(self):
        genome = synthesize_genome(small_spec())
        plus = [g for g in genome.genes if g.strand == 1 and len(g.exons) == 1]
        assert plus
        g = plus[0]
        assert decode(genome.gene_sequence(g)) == decode(
            genome.sequence[g.start : g.end][: mrna_length(g)]
        )

    def test_introns_create_multi_exon_genes(self):
        genome = synthesize_genome(
            small_spec(intron_rate=3.0, size_bp=120_000, mean_gene_length=1500)
        )
        multi = [g for g in genome.genes if len(g.exons) > 1]
        assert multi, "intron_rate=3.0 should produce multi-exon genes"
        for g in multi:
            assert mrna_length(g) < g.end - g.start

    def test_no_introns_when_rate_zero(self):
        genome = synthesize_genome(small_spec(intron_rate=0.0))
        assert all(len(g.exons) == 1 for g in genome.genes)
        assert all(mrna_length(g) == g.end - g.start for g in genome.genes)

    def test_operons_group_adjacent_genes_same_strand(self):
        genome = synthesize_genome(
            small_spec(operon_fraction=0.8, n_genes=60, size_bp=120_000)
        )
        by_operon: dict[str, list] = {}
        for g in genome.genes:
            if g.operon_id:
                by_operon.setdefault(g.operon_id, []).append(g)
        multi = [gs for gs in by_operon.values() if len(gs) >= 2]
        assert multi, "expected multi-gene operons at operon_fraction=0.8"
        for genes in multi:
            strands = {g.strand for g in genes}
            assert len(strands) == 1, "operon genes must share strand"

    def test_gene_min_length_respected(self):
        genome = synthesize_genome(small_spec(min_gene_length=300))
        assert all(mrna_length(g) >= 300 for g in genome.genes)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GenomeSpec(name="x", size_bp=0, n_genes=1)
        with pytest.raises(ValueError):
            GenomeSpec(name="x", size_bp=100, n_genes=1, mean_gene_length=10,
                       min_gene_length=50)

    @settings(max_examples=15, deadline=None)
    @given(
        n_genes=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=1000),
        intron_rate=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_generation_invariants(self, n_genes, seed, intron_rate):
        spec = GenomeSpec(
            name="p", size_bp=90_000, n_genes=n_genes, seed=seed,
            intron_rate=intron_rate,
        )
        genome = synthesize_genome(spec)
        assert len(genome) == spec.size_bp
        assert len(genome.genes) == n_genes
        prev = 0
        for g in genome.genes:
            assert prev <= g.start < g.end <= spec.size_bp
            prev = g.end
            mrna = genome.gene_sequence(g)
            assert mrna.shape[0] == mrna_length(g)
            assert is_valid_codes(mrna)
