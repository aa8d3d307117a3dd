"""Content-addressed AssemblyCache: semantics, key sensitivity, workload
integration, trace visibility, and the O(1)-pickle workload regression."""

import pickle

import pytest

from repro.assembly.base import AssemblyParams
from repro.assembly.sweep import build_spectra
from repro.core.assembly_cache import (
    AssemblyCache,
    get_assembly_cache,
    set_assembly_cache,
    use_assembly_cache,
)
from repro.core.multikmer import (
    AssemblyWorkload,
    collect_assembly_results,
    make_assembly_workload,
)
from repro.obs import Tracer, use_tracer
from repro.seq.readstore import ReadStore


@pytest.fixture
def store(reads_single):
    s = ReadStore.from_reads(reads_single[:800])
    yield s
    s.close()


@pytest.fixture
def fresh_cache():
    cache = AssemblyCache()
    previous = set_assembly_cache(cache)
    yield cache
    set_assembly_cache(previous)


def _work(store, assembler="velvet", k=21, n_ranks=1, **kw):
    return AssemblyWorkload(
        assembler_name=assembler,
        params=AssemblyParams(k=k),
        n_ranks=n_ranks,
        store=store,
        **kw,
    )


class TestCacheSemantics:
    def test_hit_miss_counters_and_len(self, store, fresh_cache):
        work = _work(store)
        key = work.cache_key()
        assert fresh_cache.get(key) is None
        assert (fresh_cache.hits, fresh_cache.misses) == (0, 1)
        result, _ = work()
        assert key in fresh_cache and len(fresh_cache) == 1
        assert fresh_cache.get(key) is not None
        assert fresh_cache.hits == 1

    def test_defensive_copies_both_ways(self, store, fresh_cache):
        work = _work(store)
        result, _ = work()
        # mutating what the caller got must not poison the cache ...
        result.contigs.clear()
        result.stats["poisoned"] = True
        cached = fresh_cache.get(work.cache_key())
        assert cached.contigs and "poisoned" not in cached.stats
        # ... and mutating what was put must not either (put copies too)
        cached.usage.phases.clear()
        again = fresh_cache.get(work.cache_key())
        assert again.usage.phases

    def test_first_write_wins(self, fresh_cache, store):
        work = _work(store)
        result, _ = work()
        other = _copy_with_marker(result)
        fresh_cache.put(work.cache_key(), other)
        assert "marker" not in fresh_cache.get(work.cache_key()).stats

    def test_lru_eviction(self):
        cache = AssemblyCache(max_entries=2)
        results = {}
        for name in ("a", "b", "c"):
            results[name] = _dummy_result(name)
            cache.put(("d", name, 31, 1), results[name])
        assert len(cache) == 2
        assert ("d", "a", 31, 1) not in cache  # oldest evicted
        assert ("d", "c", 31, 1) in cache

    def test_contains_probe_is_invisible(self):
        """The pipeline's demand probe: ``in`` moves no counter and no
        LRU position, for present and absent keys alike."""
        cache = AssemblyCache(max_entries=3)
        for name in ("a", "b", "c"):
            cache.put(("d", name, 31, 1), _dummy_result(name))
        cache.get(("d", "b", 31, 1))  # hit: b becomes most recent
        cache.get(("d", "zz", 31, 1))  # miss
        before = (cache.hits, cache.misses, list(cache._entries))
        assert ("d", "a", 31, 1) in cache  # least recent: stays there
        assert ("d", "b", 31, 1) in cache
        assert ("d", "nope", 31, 1) not in cache
        assert (cache.hits, cache.misses, list(cache._entries)) == before
        # 'a' is still the eviction victim, so the probe never touched it.
        cache.put(("d", "e", 31, 1), _dummy_result("e"))
        assert ("d", "a", 31, 1) not in cache

    def test_clear_resets_counters(self, fresh_cache, store):
        work = _work(store)
        work()
        fresh_cache.get(work.cache_key())
        fresh_cache.clear()
        assert len(fresh_cache) == 0
        assert (fresh_cache.hits, fresh_cache.misses) == (0, 0)

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            AssemblyCache(max_entries=0)


class TestKeySensitivity:
    def test_key_components(self, store, reads_single):
        base = _work(store).cache_key()
        assert _work(store, k=25).cache_key() != base
        assert _work(store, n_ranks=4).cache_key() != base
        assert _work(store, assembler="ray").cache_key() != base
        other = ReadStore.from_reads(reads_single[:801])
        try:
            assert _work(other).cache_key() != base
        finally:
            other.close()
        # same content, fresh store object → same key
        clone = ReadStore.from_reads(reads_single[:800])
        try:
            assert _work(clone).cache_key() == base
        finally:
            clone.close()

    def test_exactly_one_input_form(self):
        """The store is the only input form, and it is required."""
        with pytest.raises(TypeError):
            AssemblyWorkload(
                assembler_name="velvet",
                params=AssemblyParams(k=31),
                n_ranks=1,
            )


class TestWorkloadIntegration:
    def test_second_call_hits_and_is_bit_identical(self, store, fresh_cache):
        work = _work(store, read_scale=8.0, graph_scale=3.0)
        r1, u1 = work()
        assert fresh_cache.hits == 0
        r2, u2 = work()
        assert fresh_cache.hits == 1
        assert r2.contigs == r1.contigs
        assert r2.stats == r1.stats
        # extrapolation re-applied on the hit → same virtual quantities
        assert u2 == u1
        assert u2.phases == u1.phases

    def test_disable_via_none(self, store, fresh_cache):
        with use_assembly_cache(None):
            assert get_assembly_cache() is None
            work = _work(store)
            work()
            work()
        assert get_assembly_cache() is fresh_cache
        assert len(fresh_cache) == 0 and fresh_cache.hits == 0

    def test_tracer_sees_miss_then_hit(self, store, fresh_cache):
        tracer = Tracer()
        work = _work(store)
        with use_tracer(tracer):
            work()
            work()
        lookups = [e for e in tracer.events if e.name == "assembly_cache.lookup"]
        assert [e.attrs["outcome"] for e in lookups] == ["miss", "hit"]
        assert lookups[0].attrs["assembler"] == "velvet"
        assert tracer.metrics.counter("assembly_cache.miss").value == 1
        assert tracer.metrics.counter("assembly_cache.hit").value == 1
        spans = [s for s in tracer.spans if s.name == "assembly_workload"]
        assert len(spans) == 2

    def test_collect_populates_parent_cache(self, store, fresh_cache):
        """collect_assembly_results records raw results so worker-computed
        outcomes become parent-side hits."""

        class _Unit:
            def __init__(self, work, result):
                self.result = result

                class _Desc:
                    pass

                self.description = _Desc()
                self.description.work = work
                self.description.tags = {
                    "assembler": work.assembler_name,
                    "k": work.params.k,
                }

        work = _work(store)
        with use_assembly_cache(None):
            result, _ = work()  # computed with no cache in play
        assert len(fresh_cache) == 0
        out = collect_assembly_results([_Unit(work, result)])
        assert out[("velvet", 21)] is result
        assert work.cache_key() in fresh_cache
        _, u = work()
        assert fresh_cache.hits == 1


class TestWorkloadPickleSize:
    def test_pickled_workload_is_o1_in_read_count(self, ds_single, reads_single):
        """Satellite regression: the workload must not embed the reads —
        nor its spectrum: both ride as compact shared-memory handles."""
        sizes = []
        held = []
        for n in (50, 2000):
            s = ReadStore.from_reads(reads_single[:n])
            (sp,) = build_spectra(s, [31])
            held += [sp, s]
            w = make_assembly_workload(
                "velvet", s, AssemblyParams(k=31), 1, dataset=ds_single, spectrum=sp
            )
            sizes.append(
                len(pickle.dumps(w, protocol=pickle.HIGHEST_PROTOCOL))
            )
        for h in held:
            h.close()
        assert abs(sizes[1] - sizes[0]) <= 16
        assert abs(sizes[1] - 654) <= 16  # what a pipeline job ships (PR 18)


def _dummy_result(name):
    from repro.assembly.contigs import AssemblyResult
    from repro.parallel.usage import ResourceUsage

    return AssemblyResult(
        assembler=name, k=31, contigs=[], usage=ResourceUsage(), stats={}
    )


def _copy_with_marker(result):
    from repro.assembly.contigs import AssemblyResult

    return AssemblyResult(
        assembler=result.assembler,
        k=result.k,
        contigs=list(result.contigs),
        usage=result.usage,
        stats={**result.stats, "marker": True},
    )
