"""Count-once spectra at the pipeline level.

The contract under test: the executor backend changes *only* real
wall time.  Contigs, stats, usage, virtual TTCs and dollar costs are
bit-identical across backends, and a job reads the spectrum it was handed or builds that one
spectrum itself (:func:`repro.assembly.sweep.resolve_spectrum`).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.assembly.base import AssemblyParams
from repro.assembly.sweep import (
    KmerTableCache,
    build_spectra,
    resolve_spectrum,
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
from tests.core.test_assembly_cache import run_unit


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


def _run(dataset, executor="serial", tracer=None):
    """One cold run: fresh cache scopes every time."""
    config = PipelineConfig(
        assemblers=("ray", "abyss", "velvet", "trinity"),
        kmer_list=(25, 31),
        executor=executor,
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
        return _fingerprint(_run(dataset))

    def test_serial_backend_bit_identical(self, dataset, baseline):
        assert _fingerprint(_run(dataset)) == baseline

    def test_process_backend_bit_identical(self, dataset, baseline):
        assert _fingerprint(_run(dataset, executor="process")) == baseline

    def test_fusion_counters_surface(self, dataset):
        tracer = Tracer()
        _run(dataset, tracer=tracer)
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
                assert work.spectrum in spectra and work.spectrum.k == want_k
            # A job whose k was not counted is handed nothing.
            descs = assembly_unit_descriptions(
                plan, spec, store, ds, spectra=spectra[:1]
            )
            assert [d.work.spectrum for d in descs if d.name == "ray_k31"] == [None]
        finally:
            for sp in spectra:
                sp.close()
            store.close()

    def test_resolve_spectrum_routes_through_cache(self):
        """A job uses the spectrum it was handed and looks nowhere else:
        the table cache is the pipeline's business, not a job's.  Without
        a live spectrum of its store at its k it builds exactly that one,
        locally."""
        reads = tiny_dataset(seed=0).run.all_reads()
        store = ReadStore.from_reads(reads[:200])
        other = ReadStore.from_reads(reads[200:400])
        (handed,) = build_spectra(store, [25])
        (cached,) = build_spectra(store, [25])
        (foreign,) = build_spectra(other, [25])
        (wrong_k,) = build_spectra(store, [31])
        try:
            cache = KmerTableCache()
            cache.put(cached)
            tracer = Tracer()
            with use_kmer_table_cache(cache), use_tracer(tracer):
                assert resolve_spectrum(store, 25, handed) is handed
                assert not tracer.spans  # nothing built
                # Nothing handed, a wrong k, another store's spectrum: the
                # job counts its own k-mers, whatever is cached.
                for miss in (None, foreign, wrong_k):
                    built = resolve_spectrum(store, 25, miss)
                    assert built is not cached and built is not miss
                    assert (built.k, built.store_digest) == (25, store.digest)
                    assert not built.shared
                    np.testing.assert_array_equal(built.distinct, handed.distinct)
                    np.testing.assert_array_equal(built.counts, handed.counts)
                    np.testing.assert_array_equal(built.inverse, handed.inverse)
                # A closed spectrum is never read.
                handed.share()
                handed.close()
                assert resolve_spectrum(store, 25, handed) is not handed
            assert (cache.hits, cache.misses, len(cache)) == (0, 0, 1)
            builds = [s for s in tracer.spans if s.name == "spectrum.build"]
            assert [s.attrs["ks"] for s in builds] == [[25]] * 4
        finally:
            handed.close()
            store.close()
            other.close()


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
        """The agent puts every collected assembly outcome, a hit's too:
        first write wins, and both puts are counted."""
        reads = tiny_dataset(seed=0).run.all_reads()[:200]
        store = ReadStore.from_reads(reads)
        try:
            work = AssemblyWorkload(
                assembler_name="velvet",
                params=AssemblyParams(k=25),
                n_ranks=1,
                store=store,
            )
            tracer = Tracer()
            with use_tracer(tracer):
                cache = AssemblyCache()
                run_unit(work, cache)  # inserted
                run_unit(work, cache)  # kept (first write wins)
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
