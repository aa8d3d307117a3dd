"""Count-once fusion and cross-stage overlap at the pipeline level.

The contract under test: ``fused_extraction`` and ``run_many`` overlap
change *only* real wall time.  Contigs, stats, usage, virtual TTCs and
dollar costs are bit-identical to the unfused / sequential paths, on
the serial and process backends alike.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.assembly.base import AssemblyParams
from repro.assembly.sweep import (
    KmerTableCache,
    build_spectra,
    use_kmer_table_cache,
)
from repro.assembly.trinity import TRINITY_K
from repro.core.assembly_cache import AssemblyCache, use_assembly_cache
from repro.core.multikmer import (
    AssemblyWorkload,
    assembly_unit_descriptions,
    collect_assembly_results,
)
from repro.core.planner import plan_assembly
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.obs import Tracer, use_tracer
from repro.seq.datasets import tiny_dataset
from repro.seq.readstore import ReadStore


def _fingerprint(res):
    return (
        {
            key: (
                [c.seq for c in r.contigs],
                r.stats,
                tuple(r.usage.phases),
                r.usage.peak_rank_memory_bytes,
                r.usage.n_ranks,
            )
            for key, r in res.assemblies.items()
        },
        [(s.name, s.ttc) for s in res.stages],
        res.total_ttc,
        res.total_cost,
        [c.seq for c in res.transcripts],
    )


def _run(dataset, fused, executor="serial", tracer=None):
    config = PipelineConfig(
        assemblers=("ray", "abyss", "velvet", "trinity"),
        kmer_list=(25, 31),
        executor=executor,
        fused_extraction=fused,
    )
    with use_assembly_cache(AssemblyCache()), use_kmer_table_cache(
        KmerTableCache()
    ):
        return RnnotatorPipeline(tracer=tracer).run(dataset, config)


class TestFusedPipelineParity:
    @pytest.fixture(scope="class")
    def dataset(self):
        return tiny_dataset(seed=0)

    @pytest.fixture(scope="class")
    def baseline(self, dataset):
        return _fingerprint(_run(dataset, fused=False))

    def test_serial_backend_bit_identical(self, dataset, baseline):
        assert _fingerprint(_run(dataset, fused=True)) == baseline

    def test_process_backend_bit_identical(self, dataset, baseline):
        assert (
            _fingerprint(_run(dataset, fused=True, executor="process"))
            == baseline
        )

    def test_fusion_counters_surface(self, dataset):
        tracer = Tracer()
        _run(dataset, fused=True, tracer=tracer)
        counters = tracer.metrics.snapshot()["counters"]
        # 4 assemblers x 2 k + trinity's fixed 25 need the spectra of
        # k = 25 and 31: a cold run asks the table cache for both in
        # vain, builds them in one pass and adds them; no job goes near
        # the cache.
        assert counters["kmer_table.miss"] == 2
        assert "kmer_table.hit" not in counters
        assert counters["kmer_table.bytes"] > 0
        assert counters["assembly_cache.put"] >= 1
        (build,) = [s for s in tracer.spans if s.name == "spectrum.build"]
        assert build.attrs["ks"] == [25, 31]


class TestRunManyOverlap:
    def test_overlap_bit_identical_and_really_overlaps(self):
        datasets = [tiny_dataset(seed=0), tiny_dataset(seed=7)]
        config = PipelineConfig(
            assemblers=("ray", "velvet"), kmer_list=(25,), executor="thread"
        )
        tracer = Tracer()
        with use_assembly_cache(None):
            results = RnnotatorPipeline(tracer=tracer).run_many(
                datasets, config
            )
        with use_assembly_cache(None):
            sequential = [
                RnnotatorPipeline().run(d, config) for d in datasets
            ]
        for got, want in zip(results, sequential):
            assert _fingerprint(got) == _fingerprint(want)

        # The trace must prove the overlap: run 2's pre-processing
        # executed (real clock) inside run 1's assembly stage.
        prefetch = [s for s in tracer.spans if s.name == "preprocess.prefetch"]
        assert len(prefetch) == 1
        assembly_1 = next(
            s for s in tracer.spans if s.name == "stage:transcript-assembly"
        )
        p = prefetch[0]
        assert p.r_start < assembly_1.r_end
        assert p.r_end > assembly_1.r_start
        # Virtually the prefetch is a zero-width marker: it must never
        # move a virtual quantity.
        assert p.v_start == p.v_end

    def test_serial_backend_skips_overlap(self):
        datasets = [tiny_dataset(seed=0), tiny_dataset(seed=7)]
        config = PipelineConfig(assemblers=("velvet",), kmer_list=(25,))
        tracer = Tracer()
        with use_assembly_cache(None):
            results = RnnotatorPipeline(tracer=tracer).run_many(
                datasets, config
            )
        assert len(results) == 2
        assert not [
            s for s in tracer.spans if s.name == "preprocess.prefetch"
        ]

    def test_overlap_flag_off(self):
        datasets = [tiny_dataset(seed=0), tiny_dataset(seed=7)]
        config = PipelineConfig(
            assemblers=("velvet",), kmer_list=(25,), executor="thread"
        )
        tracer = Tracer()
        with use_assembly_cache(None):
            RnnotatorPipeline(tracer=tracer).run_many(
                datasets, config, overlap=False
            )
        assert not [
            s for s in tracer.spans if s.name == "preprocess.prefetch"
        ]


class TestWorkloadSpectrumWiring:
    def test_unit_descriptions_select_matching_spectrum(self):
        ds = tiny_dataset(seed=0)
        reads = ds.run.all_reads()[:300]
        store = ReadStore.from_reads(reads)
        spec = ds.spec
        plan = plan_assembly(
            spec, (25, 31), ("ray", "trinity"), "c3.2xlarge"
        )
        spectra = build_spectra(store, [TRINITY_K, 25, 31])
        try:
            descs = assembly_unit_descriptions(
                plan, spec, store, ds, spectra=spectra
            )
            for d in descs:
                work = d.work
                assert isinstance(work, AssemblyWorkload)
                want_k = (
                    TRINITY_K
                    if work.assembler_name == "trinity"
                    else work.params.k
                )
                assert [sp.k for sp in work.spectra] == [want_k]
                resolved = work._resolve_spectrum()
                assert resolved is not None and resolved.k == want_k
        finally:
            for sp in spectra:
                sp.close()
            store.close()

    def test_resolve_spectrum_routes_through_cache(self):
        """A workload uses the spectrum it was handed and looks nowhere
        else: the table cache is the pipeline's business, not a job's."""
        reads = tiny_dataset(seed=0).run.all_reads()[:200]
        store = ReadStore.from_reads(reads)
        spectra = build_spectra(store, [25])
        (cached,) = build_spectra(store, [25])
        try:
            work = AssemblyWorkload(
                assembler_name="velvet",
                params=AssemblyParams(k=25),
                n_ranks=1,
                store=store,
                spectra=spectra,
            )
            cache = KmerTableCache()
            cache.put(cached)
            with use_kmer_table_cache(cache):
                assert work._resolve_spectrum() is spectra[0]
                # Nothing handed -> nothing used, whatever is cached.
                assert replace(work, spectra=())._resolve_spectrum() is None
            assert (cache.hits, cache.misses) == (0, 0)
            # A closed spectrum is never handed to an assembler.
            spectra[0].share()
            spectra[0].close()
            assert work._resolve_spectrum() is None
        finally:
            for sp in spectra:
                sp.close()
            store.close()


class TestCollectDuplicateKeys:
    def _unit(self, name, assembler, k, result="res"):
        return SimpleNamespace(
            result=result,
            description=SimpleNamespace(
                name=name,
                work=None,
                tags={"assembler": assembler, "k": k},
            ),
        )

    def test_duplicate_key_raises(self):
        units = [
            self._unit("ray_k25", "ray", 25),
            self._unit("ray_k25_again", "ray", 25),
        ]
        with pytest.raises(ValueError, match="duplicate assembly result"):
            collect_assembly_results(units)

    def test_distinct_keys_collect(self):
        units = [
            self._unit("ray_k25", "ray", 25, result="a"),
            self._unit("ray_k31", "ray", 31, result="b"),
            self._unit("velvet_k25", "velvet", 25, result="c"),
        ]
        out = collect_assembly_results(units)
        assert out == {
            ("ray", 25): "a",
            ("ray", 31): "b",
            ("velvet", 25): "c",
        }


class TestCachePutCounting:
    def test_collect_counts_parent_side_puts(self):
        reads = tiny_dataset(seed=0).run.all_reads()[:200]
        store = ReadStore.from_reads(reads)
        try:
            work = AssemblyWorkload(
                assembler_name="velvet",
                params=AssemblyParams(k=25),
                n_ranks=1,
                store=store,
            )
            with use_assembly_cache(None):
                result, _usage = work._execute(Tracer())
            tracer = Tracer()
            with use_assembly_cache(AssemblyCache()), use_tracer(tracer):
                work.record_result(result)  # inserted
                work.record_result(result)  # kept (first write wins)
            counters = tracer.metrics.snapshot()["counters"]
            assert counters["assembly_cache.put"] == 2
            outcomes = [
                e.attrs["outcome"]
                for e in tracer.events
                if e.name == "assembly_cache.put"
            ]
            assert outcomes == ["inserted", "kept"]
        finally:
            store.close()
