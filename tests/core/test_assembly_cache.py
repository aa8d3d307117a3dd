"""Content-addressed AssemblyCache: semantics, key sensitivity, the pilot
agent's lookups and puts, trace visibility, and the O(1)-pickle workload
regression."""

import pickle

import pytest

from repro.assembly.base import AssemblyParams
from repro.assembly.sweep import build_spectra
from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.ec2 import EC2Region
from repro.core.assembly_cache import (
    AssemblyCache,
    get_assembly_cache,
    set_assembly_cache,
    use_assembly_cache,
)
from repro.core.multikmer import (
    AssemblyWorkload,
    content_key,
    make_assembly_workload,
)
from repro.obs import Tracer, use_tracer
from repro.pilot import PilotDescription, PilotManager, UnitDescription, UnitManager
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


def _key(work):
    return content_key(work.store, work.assembler_name, work.params, work.n_ranks)


def run_unit(work, cache, executor="serial"):
    """``work`` as one keyed unit through a unit manager holding
    ``cache``, on a fresh one-node pilot; returns the finished unit."""
    clock = SimClock()
    events = EventQueue(clock)
    pm = PilotManager(EC2Region(clock), events)
    pilot = pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 1)))
    um = UnitManager(events, executor=executor, cache=cache)
    um.add_pilot(pilot)
    desc = UnitDescription(
        name=f"{work.assembler_name}_k{work.params.k}",
        work=work,
        checkpoint_key=_key(work),
        tags={"assembler": work.assembler_name, "k": work.params.k},
    )
    try:
        (unit,) = um.run(um.submit_units([desc]))
    finally:
        um.close()
    return unit


class TestCacheSemantics:
    def test_hit_miss_counters_and_len(self, store, fresh_cache):
        work = _work(store)
        key = _key(work)
        assert fresh_cache.get(key) is None
        assert (fresh_cache.hits, fresh_cache.misses) == (0, 1)
        result, _ = work()
        fresh_cache.put(key, result)
        assert key in fresh_cache and len(fresh_cache) == 1
        assert fresh_cache.get(key) is not None
        assert fresh_cache.hits == 1

    def test_defensive_copies_both_ways(self, store, fresh_cache):
        work = _work(store)
        result, _ = work()
        fresh_cache.put(_key(work), result)
        # mutating what was put must not poison the cache ...
        result.contigs.clear()
        result.stats["poisoned"] = True
        cached = fresh_cache.get(_key(work))
        assert cached.contigs and "poisoned" not in cached.stats
        # ... and mutating what a caller got must not either (get copies too)
        cached.usage.phases.clear()
        again = fresh_cache.get(_key(work))
        assert again.usage.phases

    def test_first_write_wins(self, fresh_cache, store):
        work = _work(store)
        result, _ = work()
        assert fresh_cache.put(_key(work), result)
        other = _copy_with_marker(result)
        assert not fresh_cache.put(_key(work), other)
        assert "marker" not in fresh_cache.get(_key(work)).stats

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
        fresh_cache.put(_key(work), work()[0])
        fresh_cache.get(_key(work))
        fresh_cache.clear()
        assert len(fresh_cache) == 0
        assert (fresh_cache.hits, fresh_cache.misses) == (0, 0)

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            AssemblyCache(max_entries=0)


class TestKeySensitivity:
    def test_key_components(self, store, reads_single):
        base = _key(_work(store))
        assert _key(_work(store, k=25)) != base
        assert _key(_work(store, n_ranks=4)) != base
        assert _key(_work(store, assembler="ray")) != base
        other = ReadStore.from_reads(reads_single[:801])
        try:
            assert _key(_work(other)) != base
        finally:
            other.close()
        # same content, fresh store object → same key
        clone = ReadStore.from_reads(reads_single[:800])
        try:
            assert _key(_work(clone)) == base
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
    """The pilot agent asks the cache it was given about a unit's key and
    puts what it collects; the workload itself only computes."""

    def test_second_call_hits_and_is_bit_identical(self, store, fresh_cache):
        work = _work(store, read_scale=8.0, graph_scale=3.0)
        first = run_unit(work, fresh_cache)
        assert fresh_cache.hits == 0
        second = run_unit(work, fresh_cache)
        assert fresh_cache.hits == 1
        assert second.result.contigs == first.result.contigs
        assert second.result.stats == first.result.stats
        # extrapolation re-applied on the hit → same virtual quantities
        assert second.usage == first.usage
        assert second.usage.phases == first.usage.phases
        assert second.ttc == first.ttc

    def test_disable_via_none(self, store, fresh_cache):
        tracer = Tracer()
        with use_assembly_cache(None), use_tracer(tracer):
            assert get_assembly_cache() is None
            work = _work(store)
            run_unit(work, get_assembly_cache())
            run_unit(work, get_assembly_cache())
        assert get_assembly_cache() is fresh_cache
        assert len(fresh_cache) == 0 and fresh_cache.hits == 0
        spans = [s for s in tracer.spans if s.name == "assembly_workload"]
        assert len(spans) == 2
        assert not any("assembly_cache" in e.name for e in tracer.events)

    def test_tracer_sees_miss_then_hit(self, store, fresh_cache):
        tracer = Tracer()
        work = _work(store)
        with use_tracer(tracer):
            run_unit(work, fresh_cache)
            run_unit(work, fresh_cache)
        lookups = [e for e in tracer.events if e.name == "assembly_cache.lookup"]
        assert [e.attrs["outcome"] for e in lookups] == ["miss", "hit"]
        assert lookups[0].attrs["assembler"] == "velvet"
        assert lookups[0].attrs["k"] == 21
        assert tracer.metrics.counter("assembly_cache.miss").value == 1
        assert tracer.metrics.counter("assembly_cache.hit").value == 1
        # A hit runs no workload body.
        spans = [s for s in tracer.spans if s.name == "assembly_workload"]
        assert len(spans) == 1

    def test_collect_populates_parent_cache(self, store):
        """An outcome computed in a pool worker is put by the agent, in
        this process, into the cache it was given."""

        class Recording:
            def __init__(self):
                self.gets, self.puts = [], []

            def get(self, key, **attrs):
                self.gets.append(key)
                return None

            def put(self, key, result, **attrs):
                self.puts.append((key, result, attrs))
                return True

        fake = Recording()
        work = _work(store)
        unit = run_unit(work, fake, executor="process")
        assert fake.gets == [_key(work)]
        ((key, result, attrs),) = fake.puts
        assert key == _key(work)
        assert result.contigs == unit.result.contigs
        assert attrs == {"assembler": "velvet", "k": 21}


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
