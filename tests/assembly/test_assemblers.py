"""Integration tests across the five assemblers.

The central correctness oracle: contigs must be (near-)substrings of the
ground-truth transcripts the reads were simulated from.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.abyss import AbyssAssembler
from repro.assembly.base import AssemblyParams
from repro.assembly.contrail import ContrailAssembler, ContrailInputError
from repro.assembly.dbg import build_kmer_table_packed
from repro.assembly.kmers import (
    canonical_kmers_packed,
    canonical_kmers_store_packed,
    kmer_counts_packed,
)
from repro.assembly.packed import keys
from repro.assembly.ray import RayAssembler
from repro.assembly.sweep import resolve_spectrum
from repro.assembly.registry import (
    ASSEMBLERS,
    TABLE1_ASSEMBLERS,
    get_assembler,
)
from repro.assembly.trinity import TRINITY_K, TrinityAssembler
from repro.assembly.velvet import VelvetAssembler
from repro.seq.alphabet import encode, reverse_complement
from repro.seq.fastq import FastqRecord
from repro.seq.readstore import ReadStore

PARAMS = AssemblyParams(k=31, min_contig_length=100)


def substring_fraction(contigs, transcripts) -> float:
    """Fraction of contigs that are exact substrings of some transcript."""
    if not contigs:
        return 0.0
    seqs = [t.seq for t in transcripts]
    hits = 0
    for c in contigs:
        rc = reverse_complement(c.seq)
        if any(c.seq in s or rc in s for s in seqs):
            hits += 1
    return hits / len(contigs)


@st.composite
def trinity_reads(draw):
    """Overlapping reads off one short source (so loci saturate), some
    shorter than Trinity's k, some with an N, under random quality
    strings: low-quality tails of every length, low bases inside a read."""
    source = draw(st.text(alphabet="ACGT", min_size=35, max_size=50))
    reads = []
    for i in range(draw(st.integers(min_value=1, max_value=15))):
        start = draw(st.integers(min_value=0, max_value=len(source) - 25))
        length = draw(st.integers(min_value=18, max_value=45))
        seq = list(source[start : start + length])
        for pos in draw(st.lists(st.integers(0, len(seq) - 1), max_size=1)):
            seq[pos] = "N"
        # '!' and '#' are below Trinity's hard-trim quality, '(' and 'I' above.
        qual = draw(
            st.lists(st.sampled_from("!#(III"), min_size=len(seq), max_size=len(seq))
        )
        reads.append(FastqRecord(f"r{i}", "".join(seq), "".join(qual)))
    return reads


def prepare_by_dict(asm, store):
    """Trinity's preparation the direct way: trim each read, extract the
    trimmed read's own k-mers, keep normalisation depth in a dict keyed
    by k-mer.  Returns the kept reads' indices and their k-mer stream."""
    depth: dict[int, int] = {}
    kept, stream = [], []
    for i in range(store.n_reads):
        ph = store.phred(i)
        end = int(ph.size)
        while end > 0 and ph[end - 1] < asm.hard_trim_quality:
            end -= 1
        if end < TRINITY_K:
            continue
        rows = canonical_kmers_packed(store.read_codes(i)[:end], TRINITY_K)
        if rows.shape[0] == 0:
            continue
        kmers = keys(rows, TRINITY_K).tolist()
        counts = sorted(depth.get(key, 0) for key in kmers)
        if counts[len(counts) // 2] >= asm.normalize_depth:
            continue  # locus already saturated
        kept.append(i)
        stream.append(rows)
        for key in kmers:
            depth[key] = depth.get(key, 0) + 1
    if not stream:
        return kept, np.zeros((0, 1), dtype=np.uint64)
    return kept, np.concatenate(stream)


@pytest.fixture(scope="module")
def velvet_result(store_single):
    return VelvetAssembler().assemble(store_single, PARAMS)


class TestVelvet:
    def test_produces_contigs(self, velvet_result):
        assert len(velvet_result.contigs) > 5
        assert velvet_result.total_bp > 1000

    def test_contigs_are_true_substrings(self, velvet_result, ds_single):
        frac = substring_fraction(
            velvet_result.contigs, ds_single.transcriptome.transcripts
        )
        assert frac > 0.9

    def test_min_length_respected(self, velvet_result):
        assert all(len(c) >= PARAMS.min_contig_length for c in velvet_result.contigs)

    def test_usage_has_phases(self, velvet_result):
        names = [p.name for p in velvet_result.usage.phases]
        assert names == ["kmer_count", "graph_build", "unitig_walk"]
        assert velvet_result.usage.peak_rank_memory_bytes > 0

    def test_contig_ids_unique(self, velvet_result):
        ids = [c.contig_id for c in velvet_result.contigs]
        assert len(set(ids)) == len(ids)

    def test_deterministic(self, store_single, velvet_result):
        again = VelvetAssembler().assemble(store_single, PARAMS)
        assert [c.seq for c in again.contigs] == [
            c.seq for c in velvet_result.contigs
        ]


class TestDistributedEquivalence:
    """Ray and ABySS walk the same k-mer spectrum as the serial reference;
    their contig sets must match it exactly (independent of rank count)."""

    @pytest.mark.parametrize("n_ranks", [1, 3, 8])
    def test_ray_matches_velvet(self, store_single, velvet_result, n_ranks):
        res = RayAssembler().assemble(store_single, PARAMS, n_ranks=n_ranks)
        assert sorted(c.seq for c in res.contigs) == sorted(
            c.seq for c in velvet_result.contigs
        )

    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_abyss_matches_velvet(self, store_single, velvet_result, n_ranks):
        res = AbyssAssembler().assemble(store_single, PARAMS, n_ranks=n_ranks)
        assert sorted(c.seq for c in res.contigs) == sorted(
            c.seq for c in velvet_result.contigs
        )


class TestContigProperties:
    """What a DBG contig must satisfy whichever assembler walked it, at a
    one-word and a two-word k (ROADMAP item 6b)."""

    @pytest.fixture(scope="class", params=(31, 51))
    def case(self, request, store_paired):
        k = request.param
        spectrum = build_kmer_table_packed(
            k,
            *kmer_counts_packed(canonical_kmers_store_packed(store_paired, k), k),
            presorted=True,
        )
        return store_paired, AssemblyParams(k=k, min_contig_length=100), spectrum

    @pytest.mark.parametrize(
        "case, assembler",
        [
            (k, assembler)
            for k in (31, 51)
            for assembler in (
                VelvetAssembler,
                RayAssembler,
                AbyssAssembler,
                ContrailAssembler,
            )
        ]
        # Trinity ignores the sweep k and prunes at its own, higher floor.
        + [(TRINITY_K, TrinityAssembler)],
        indirect=["case"],
    )
    def test_every_contig_kmer_is_solid(self, case, assembler):
        store, params, spectrum = case
        floor = 3 if assembler is TrinityAssembler else params.min_count
        contigs = assembler().assemble(store, params).contigs
        assert len(contigs) > 5
        for c in contigs:
            rows = canonical_kmers_packed(encode(c.seq), params.k)
            assert rows.shape[0] == len(c.seq) - params.k + 1
            found, cov = spectrum.lookup_keys(keys(rows, params.k))
            assert found.all() and cov.min() >= floor, c.contig_id

    @pytest.mark.parametrize("assembler", (RayAssembler, AbyssAssembler))
    def test_contigs_byte_identical_across_rank_counts(self, case, assembler):
        store, params, _ = case
        runs = [
            [
                (c.contig_id, c.seq, c.coverage)
                for c in assembler()
                .assemble(store, params, n_ranks=n_ranks)
                .contigs
            ]
            for n_ranks in (1, 3, 8)
        ]
        assert runs[0] == runs[1] == runs[2] and runs[0]


class TestRayUsage:
    def test_messages_grow_with_ranks(self, store_single):
        u2 = RayAssembler().assemble(store_single, PARAMS, n_ranks=2).usage
        u8 = RayAssembler().assemble(store_single, PARAMS, n_ranks=8).usage
        assert u8.n_messages > u2.n_messages

    def test_comm_bytes_positive_multirank(self, store_single):
        u = RayAssembler().assemble(store_single, PARAMS, n_ranks=4).usage
        assert u.comm_bytes > 0

    def test_single_rank_no_offnode_traffic(self, store_single):
        u = RayAssembler().assemble(store_single, PARAMS, n_ranks=1).usage
        assert u.comm_bytes == 0

    def test_critical_path_shrinks_with_ranks(self, store_single):
        u1 = RayAssembler().assemble(store_single, PARAMS, n_ranks=1).usage
        u8 = RayAssembler().assemble(store_single, PARAMS, n_ranks=8).usage
        assert u8.critical_compute < u1.critical_compute

    def test_memory_per_rank_shrinks(self, store_single):
        u1 = RayAssembler().assemble(store_single, PARAMS, n_ranks=1).usage
        u8 = RayAssembler().assemble(store_single, PARAMS, n_ranks=8).usage
        assert u8.peak_rank_memory_bytes < u1.peak_rank_memory_bytes


class TestAbyssUsage:
    def test_serial_merge_constant_across_ranks(self, store_single):
        u2 = AbyssAssembler().assemble(store_single, PARAMS, n_ranks=2).usage
        u8 = AbyssAssembler().assemble(store_single, PARAMS, n_ranks=8).usage
        assert u2.serial_compute == pytest.approx(u8.serial_compute, rel=0.05)
        assert u2.serial_compute > 0

    def test_fewer_messages_than_ray(self, store_single):
        """ABySS aggregates probe traffic per round; Ray is fine-grained."""
        ua = AbyssAssembler().assemble(store_single, PARAMS, n_ranks=4).usage
        ur = RayAssembler().assemble(store_single, PARAMS, n_ranks=4).usage
        assert 0 < ua.n_messages < ur.n_messages


class TestContrail:
    @pytest.fixture(scope="class")
    def contrail_result(self, store_single):
        return ContrailAssembler().assemble(store_single, PARAMS, n_ranks=4)

    def test_produces_true_contigs(self, contrail_result, ds_single):
        assert len(contrail_result.contigs) > 5
        frac = substring_fraction(
            contrail_result.contigs, ds_single.transcriptome.transcripts
        )
        assert frac > 0.9

    def test_many_mr_jobs(self, contrail_result):
        # count + pair/merge rounds: the Hadoop job-chain signature.
        assert contrail_result.stats["mr_jobs"] >= 5
        assert contrail_result.usage.n_jobs == contrail_result.stats["mr_jobs"]

    def test_close_to_reference_assembly(self, contrail_result, velvet_result):
        """Contrail's stricter junction rule may fragment slightly, but the
        bulk of the assembly must agree with the serial reference."""
        assert contrail_result.total_bp > 0.6 * velvet_result.total_bp

    def test_fails_on_n_when_strict(self, store_single):
        assert store_single.contains_n()
        with pytest.raises(ContrailInputError):
            ContrailAssembler().assemble(
                store_single, PARAMS, n_ranks=2, fail_on_n=True
            )

    def test_worker_count_invariant_output(self, store_single, contrail_result):
        res2 = ContrailAssembler().assemble(store_single, PARAMS, n_ranks=8)
        assert sorted(c.seq for c in res2.contigs) == sorted(
            c.seq for c in contrail_result.contigs
        )


class TestTrinity:
    @pytest.fixture(scope="class")
    def trinity_result(self, store_single):
        return TrinityAssembler().assemble(store_single)

    def test_produces_contigs(self, trinity_result):
        assert len(trinity_result.contigs) > 5

    def test_uses_its_own_k(self, trinity_result):
        assert trinity_result.k == 25

    def test_lower_precision_than_pipeline(
        self, trinity_result, velvet_result, ds_single
    ):
        """Trinity keeps error branches -> more non-substring contigs."""
        tx = ds_single.transcriptome.transcripts
        assert substring_fraction(trinity_result.contigs, tx) <= substring_fraction(
            velvet_result.contigs, tx
        )

    @given(reads=trinity_reads())
    @settings(max_examples=60, deadline=None)
    def test_prepare_fused_matches_dict_normalisation(self, reads):
        """Reading a trimmed read's k-mers off the whole-read spectrum
        (windows ending at or before the cut) keeps the same reads and
        the same k-mer stream as extracting each trimmed read."""
        asm = TrinityAssembler()
        asm.normalize_depth = 2  # saturate loci within a handful of reads
        store = ReadStore.from_reads(reads)
        spectrum = resolve_spectrum(store, TRINITY_K)
        occ_sel = asm._prepare_fused(store, spectrum)
        want_kept, want_stream = prepare_by_dict(asm, store)
        assert np.unique(spectrum.occ_read()[occ_sel]).tolist() == want_kept
        np.testing.assert_array_equal(
            spectrum.distinct[spectrum.inverse[occ_sel]], want_stream
        )


class TestRegistry:
    def test_table1_members(self):
        assert TABLE1_ASSEMBLERS == ("ray", "abyss", "contrail")
        for name in TABLE1_ASSEMBLERS:
            info = ASSEMBLERS[name]
            assert info.scalable
            assert info.graph_type == "DBG"

    def test_table1_impls(self):
        assert ASSEMBLERS["ray"].distributed_impl == "MPI"
        assert ASSEMBLERS["abyss"].distributed_impl == "MPI"
        assert ASSEMBLERS["contrail"].distributed_impl == "Hadoop MapReduce"

    def test_get_assembler(self):
        assert get_assembler("velvet").name == "velvet"
        assert get_assembler("ray").name == "ray"

    def test_unknown_assembler(self):
        with pytest.raises(KeyError):
            get_assembler("soapdenovo")

    def test_versions_recorded(self):
        assert "2.3.1" in ASSEMBLERS["ray"].analog_of_version
        assert "1.9.0" in ASSEMBLERS["abyss"].analog_of_version
        assert "0.8.2" in ASSEMBLERS["contrail"].analog_of_version


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            AssemblyParams(k=2)
        with pytest.raises(ValueError):
            AssemblyParams(k=31, min_count=0)
        with pytest.raises(ValueError):
            AssemblyParams(k=31, min_contig_length=10)
