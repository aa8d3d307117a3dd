"""Tests for the paper's data-set analogs (Table II)."""

import pytest

from repro.seq.datasets import (
    B_GLUMAE,
    P_CRISPA,
    GB,
    generate_dataset,
    tiny_dataset,
)


class TestSpecs:
    def test_table2_bglumae_constants(self):
        assert B_GLUMAE.genome_size_bp == 6_700_000
        assert B_GLUMAE.n_protein_genes == 5_223
        assert B_GLUMAE.read_length == 50
        assert B_GLUMAE.n_reads == 16_263_310
        assert not B_GLUMAE.paired
        assert B_GLUMAE.kmer_list == (35, 37, 39, 41, 43, 45, 47)
        assert B_GLUMAE.organism_type == "bacteria"

    def test_table2_pcrispa_constants(self):
        assert P_CRISPA.genome_size_bp == 34_500_000
        assert P_CRISPA.n_protein_genes == 13_617
        assert P_CRISPA.read_length == 100
        assert P_CRISPA.paired
        assert P_CRISPA.kmer_list == (51, 55, 59, 63)
        assert P_CRISPA.total_read_records == 2 * 54_168_576

    def test_data_sizes_match_paper(self):
        assert B_GLUMAE.fastq_bytes == pytest.approx(3.8 * GB, rel=0.01)
        assert P_CRISPA.fastq_bytes == pytest.approx(26.2 * GB, rel=0.01)
        assert P_CRISPA.preprocess_memory_bytes == 40 * GB

    def test_pcrispa_has_introns_bglumae_operons(self):
        assert P_CRISPA.intron_rate > 0
        assert B_GLUMAE.operon_fraction > 0
        assert B_GLUMAE.intron_rate == 0


class TestGeneration:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            generate_dataset(B_GLUMAE, scale=0.0)
        with pytest.raises(ValueError):
            generate_dataset(B_GLUMAE, scale=1.5)

    def test_tiny_single_end(self):
        ds = tiny_dataset(paired=False, seed=0)
        assert not ds.spec.paired
        assert ds.run.spec.read_length == 50
        assert not ds.run.mates
        assert len(ds.genome.genes) >= 5

    def test_tiny_paired_end(self):
        ds = tiny_dataset(paired=True, seed=0)
        assert ds.spec.paired
        assert ds.run.spec.read_length == 100
        assert len(ds.run.mates) == len(ds.run.reads)

    def test_coverage_preserved_across_scales(self):
        # Reads and transcriptome scale together, so coverage is stable.
        d1 = generate_dataset(B_GLUMAE, scale=0.001, seed=1)
        d2 = generate_dataset(B_GLUMAE, scale=0.002, seed=1)
        cov1 = d1.run.total_bases / max(d1.transcriptome.total_bp, 1)
        cov2 = d2.run.total_bases / max(d2.transcriptome.total_bp, 1)
        assert cov1 == pytest.approx(cov2, rel=0.5)

    def test_coverage_boost(self):
        d1 = generate_dataset(B_GLUMAE, scale=0.001, seed=1)
        d2 = generate_dataset(B_GLUMAE, scale=0.001, seed=1, coverage_boost=2.0)
        assert d2.run.n_fragments == pytest.approx(2 * d1.run.n_fragments, rel=0.01)

    def test_paper_scale_extrapolation(self):
        ds = generate_dataset(B_GLUMAE, scale=0.001, seed=0)
        assert ds.paper_scale_bytes(1000) == 1_000_000
        assert ds.sim_fastq_bytes > 0

    def test_read_scale_counts_reads_and_mates_without_interleaving(
        self, ds_paired, monkeypatch
    ):
        def interleave():
            raise AssertionError("read_scale must not build the record list")

        monkeypatch.setattr(ds_paired.run, "all_reads", interleave)
        records = 2 * ds_paired.run.n_fragments
        assert ds_paired.read_scale == records / ds_paired.spec.total_read_records
        assert ds_paired.spec.total_read_records == 2 * ds_paired.spec.n_reads

    def test_deterministic(self):
        a = generate_dataset(B_GLUMAE, scale=0.001, seed=3)
        b = generate_dataset(B_GLUMAE, scale=0.001, seed=3)
        assert [r.seq for r in a.run.reads[:20]] == [r.seq for r in b.run.reads[:20]]
