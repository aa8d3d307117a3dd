"""Bit-parity of the spectrum engine against the frozen dict/bytes engine.

The packed-integer, count-once engine is a pure representation change:
assembled contigs, k-mer tables, unitig walks, and every
virtual-accounting quantity (charged work, collective bytes, message
counts, peak memory, MapReduce stats) must be identical to the original
implementation — per-job extraction, a payload-carrying ``alltoall``, an
executed count job — which is preserved verbatim in
:mod:`tests.assembly.kmer_reference`.
"""

import numpy as np
import pytest

from repro.assembly import packed as packedmod
from repro.assembly.abyss import AbyssAssembler
from repro.assembly.base import AssemblyParams
from repro.assembly.contrail import ContrailAssembler
from repro.assembly.dbg import extract_unitigs
from repro.assembly.ray import RayAssembler
from repro.assembly.sweep import resolve_spectrum
from repro.assembly.velvet import VelvetAssembler
from repro.parallel.mapreduce import MapReduceEngine
from repro.seq.alphabet import decode, random_dna
from repro.seq.readstore import ReadStore
from tests.assembly.kmer_reference import (
    canonical_kmers_varlen,
    kmer_counts,
    legacy_build_kmer_table,
    legacy_extract_unitigs,
    reference_abyss_assemble,
    reference_kmer_count_job,
    reference_ray_assemble,
    reference_velvet_assemble,
)
from tests.assembly.test_unitig_walk import assert_sharded_parity, packed_table
from tests.parallel.exec_reference import ExecEngine


def _rand_seq(rng, length: int) -> str:
    return decode(random_dna(length, rng))


def assert_results_identical(got, ref):
    """Contigs, stats and the full usage record must match bit-for-bit."""
    assert [c.seq for c in got.contigs] == [c.seq for c in ref.contigs]
    assert [c.coverage for c in got.contigs] == [
        c.coverage for c in ref.contigs
    ]
    assert got.stats == ref.stats
    assert got.usage.n_ranks == ref.usage.n_ranks
    assert got.usage.peak_rank_memory_bytes == ref.usage.peak_rank_memory_bytes
    # PhaseUsage is a frozen dataclass: == compares every accounting field
    # (critical/total/serial compute, comm_bytes, collectives, messages).
    assert got.usage.phases == ref.usage.phases


PARAMS = AssemblyParams(k=31, min_contig_length=100)


class TestAssemblerParity:
    def test_velvet(self, reads_single, store_single):
        got = VelvetAssembler().assemble(store_single, PARAMS)
        ref = reference_velvet_assemble(reads_single, PARAMS)
        assert_results_identical(got, ref)

    @pytest.mark.parametrize("n_ranks", (2, 8))
    def test_ray(self, reads_single, store_single, n_ranks):
        got = RayAssembler().assemble(store_single, PARAMS, n_ranks=n_ranks)
        ref = reference_ray_assemble(reads_single, PARAMS, n_ranks=n_ranks)
        assert_results_identical(got, ref)

    @pytest.mark.parametrize("n_ranks", (2, 8))
    def test_abyss(self, reads_single, store_single, n_ranks):
        got = AbyssAssembler().assemble(store_single, PARAMS, n_ranks=n_ranks)
        ref = reference_abyss_assemble(reads_single, PARAMS, n_ranks=n_ranks)
        assert_results_identical(got, ref)

    def test_ray_k63(self, reads_single, store_single):
        params = AssemblyParams(k=63, min_contig_length=100)
        got = RayAssembler().assemble(store_single, params, n_ranks=4)
        ref = reference_ray_assemble(reads_single, params, n_ranks=4)
        assert_results_identical(got, ref)


class TestContrailCountJobParity:
    def test_counts_and_stats(self, reads_single):
        params = AssemblyParams(k=31)
        reads = reads_single[:400]

        engine_new = MapReduceEngine(1)
        store = ReadStore.from_reads(reads)
        spectrum = resolve_spectrum(store, params.k)
        solid = ContrailAssembler()._derive_kmer_count(
            engine_new, store, params, spectrum
        )
        got = dict(
            zip(
                map(bytes, packedmod.unpack(spectrum.distinct[solid], params.k)),
                spectrum.counts[solid].tolist(),
            )
        )
        engine_ref = ExecEngine(1)
        ref = reference_kmer_count_job(engine_ref, reads, params)

        assert got == ref
        s_new, s_ref = engine_new.job_stats[0], engine_ref.job_stats[0]
        assert s_new.map_input_records == s_ref.map_input_records
        assert s_new.map_output_records == s_ref.map_output_records
        assert s_new.combine_output_records == s_ref.combine_output_records
        assert s_new.shuffle_bytes == s_ref.shuffle_bytes
        assert s_new.reduce_input_groups == s_ref.reduce_input_groups
        assert s_new.reduce_output_records == s_ref.reduce_output_records
        # Single-worker partition memory is also identical (with several
        # workers the deterministic int-key partitioner may distribute
        # groups differently from the PYTHONHASHSEED-randomized bytes
        # partitioner; the pricing formula itself is unchanged).
        assert engine_new.usage.peak_rank_memory_bytes == (
            engine_ref.usage.peak_rank_memory_bytes
        )


class TestWalkParity:
    """Randomized unitig-extraction parity across k and topology."""

    @pytest.mark.parametrize("k", (15, 31, 33, 63))
    def test_random_read_sets(self, k):
        rng = np.random.default_rng(k)
        for trial in range(6):
            n_src = int(rng.integers(1, 4))
            sources = [
                _rand_seq(rng, int(rng.integers(k + 1, 500)))
                for _ in range(n_src)
            ]
            reads = []
            for src in sources:
                for _ in range(30):
                    a = int(rng.integers(0, max(1, len(src) - k)))
                    reads.append(src[a : a + int(rng.integers(k, k + 70))])
            counts = kmer_counts(canonical_kmers_varlen(reads, k))
            if not counts:
                continue
            t_new = packed_table(k, counts)
            t_ref = legacy_build_kmer_table(k, counts)
            got_u, got_steps = extract_unitigs(t_new)
            ref_u, ref_steps = legacy_extract_unitigs(t_ref)
            assert got_steps == ref_steps
            assert got_u == ref_u

    def test_palindromic_hairpin(self):
        # A sequence ending in its own reverse complement produces a walk
        # that folds back through canonical duplicates.
        k = 15
        rng = np.random.default_rng(99)
        stem = _rand_seq(rng, 60)
        from repro.seq.alphabet import reverse_complement

        seq = stem + reverse_complement(stem)
        counts = kmer_counts(canonical_kmers_varlen([seq] * 3, k))
        got = extract_unitigs(packed_table(k, counts))
        ref = legacy_extract_unitigs(legacy_build_kmer_table(k, counts))
        assert got[1] == ref[1]
        assert got[0] == ref[0]

    def test_cycle(self):
        # A circular sequence: the walk must terminate via the
        # own-visited check, exactly like the sequential walker.
        k = 15
        rng = np.random.default_rng(7)
        core = _rand_seq(rng, 120)
        seq = core + core[: k + 5]
        counts = kmer_counts(canonical_kmers_varlen([seq] * 2, k))
        got = extract_unitigs(packed_table(k, counts))
        ref = legacy_extract_unitigs(legacy_build_kmer_table(k, counts))
        assert got[1] == ref[1]
        assert got[0] == ref[0]

    def test_sharded_seed_parity(self):
        # Ray/ABySS walk per-rank seed subsets against the global table
        # with a shared visited set; order and dedup must match.
        k = 31
        rng = np.random.default_rng(3)
        src = _rand_seq(rng, 800)
        reads = [
            src[a : a + 70]
            for a in rng.integers(0, 730, size=120).tolist()
        ]
        counts = kmer_counts(canonical_kmers_varlen(reads, k))
        keys = sorted(counts)
        assert_sharded_parity(counts, k, [keys[i::3] for i in range(3)])
