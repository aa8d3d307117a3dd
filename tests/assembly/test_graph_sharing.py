"""Graph once per k: the jobs at one k share one spectrum's graph products.

``KmerSpectrum.table(min_count)`` and ``KmerSpectrum.partition(p,
min_count)`` are what Velvet, Ray and ABySS derive from a spectrum.  A
spectrum told it has several planned readers (``plan_readers``) keeps each
product its first reader derives, read-only, until ``close``; one with a
single reader (the default), or read in a process other than the one that
planned (a pool worker), keeps nothing.  Whatever the readers' order and
concurrency, every result must equal the one the assembler gets reading
the spectrum alone — each still books its own phases on its own world.
"""

import gc
import itertools
import os
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

from repro.assembly import sweep
from repro.assembly.abyss import AbyssAssembler
from repro.assembly.base import AssemblyParams
from repro.assembly.dbg import KmerTable
from repro.assembly.ray import RayAssembler
from repro.assembly.sweep import KmerTableCache, build_spectra, use_kmer_table_cache
from repro.assembly.velvet import VelvetAssembler
from repro.core.assembly_cache import use_assembly_cache
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.parallel.executor import ProcessExecutor, ThreadExecutor
from repro.seq.datasets import tiny_dataset
from tests.assembly.test_parity import assert_results_identical

K = 31
N_RANKS = 8
PARAMS = AssemblyParams(k=K, min_contig_length=100)
ASSEMBLERS = {"ray": RayAssembler, "abyss": AbyssAssembler, "velvet": VelvetAssembler}
ORDERS = list(itertools.permutations(ASSEMBLERS))


def _assemble(name, store, spectrum):
    kwargs = {} if name == "velvet" else {"n_ranks": N_RANKS}
    return ASSEMBLERS[name]().assemble(store, PARAMS, spectrum=spectrum, **kwargs)


def _workload(name, store, spectrum):
    return _assemble(name, store, spectrum), None


def _same_table_twice(spectrum):
    return (spectrum.table(2) is spectrum.table(2), os.getpid()), None


@pytest.fixture(scope="module")
def alone(store_single):
    """Each assembler's result on a spectrum only it reads."""
    out = {}
    for name in ASSEMBLERS:
        (sp,) = build_spectra(store_single, (K,))
        out[name] = _assemble(name, store_single, sp)
    return out


@pytest.fixture
def shared(store_single):
    """A spectrum the three assemblers plan to read."""
    (sp,) = build_spectra(store_single, (K,))
    sp.plan_readers(3)
    yield sp
    sp.close()


@pytest.fixture
def derivations(monkeypatch):
    """Every table frozen and every by-owner walk made, as they happen;
    a freeze sleeps so that a reader racing the first one would overlap
    it."""
    made = {"tables": [], "walks": 0}
    freeze, walk = KmerTable.freeze, sweep.extract_unitigs_by_owner

    def slow_freeze(table):
        made["tables"].append(table)
        time.sleep(0.05)
        return freeze(table)

    def counted_walk(*args):
        made["walks"] += 1
        return walk(*args)

    monkeypatch.setattr(KmerTable, "freeze", slow_freeze)
    monkeypatch.setattr(sweep, "extract_unitigs_by_owner", counted_walk)
    return made


class TestSharedReaders:
    @pytest.mark.parametrize("order", ORDERS, ids="-".join)
    def test_every_order_reads_what_it_reads_alone(
        self, store_single, alone, shared, derivations, order
    ):
        for name in order:
            assert_results_identical(_assemble(name, store_single, shared), alone[name])
        # One table for all three, one partition (and walk) for Ray and ABySS.
        assert len(derivations["tables"]) == 1 and derivations["walks"] == 1
        part = shared.partition(N_RANKS, PARAMS.min_count)
        assert part.table is shared.table(PARAMS.min_count)

    @pytest.mark.parametrize("order", ORDERS, ids="-".join)
    def test_concurrent_readers_on_two_threads(
        self, store_single, alone, shared, derivations, order
    ):
        executor = ThreadExecutor(max_workers=2)
        try:
            handles = [
                (name, executor.submit(partial(_workload, name, store_single, shared)))
                for name in order
            ]
            outcomes = [(name, handle.outcome()) for name, handle in handles]
        finally:
            executor.shutdown()
        for name, outcome in outcomes:
            assert outcome.error is None, outcome.error
            assert_results_identical(outcome.result, alone[name])
        # The per-spectrum lock: a second reader waited for the first
        # reader's derivation instead of making its own.
        assert len(derivations["tables"]) == 1 and derivations["walks"] == 1

    def test_many_threads_get_one_object(self, store_single, derivations):
        """More readers than cores, switching threads every microsecond:
        one derivation of each product, and every reader holds it."""
        n = 4 * (os.cpu_count() or 1)
        (sp,) = build_spectra(store_single, (K,))
        sp.plan_readers(n)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n) as pool:
                futures = [
                    pool.submit(sp.partition, N_RANKS, PARAMS.min_count)
                    for _ in range(n)
                ]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
            sp.close()
        assert all(part is got[0] for part in got)
        assert len(derivations["tables"]) == 1 and derivations["walks"] == 1


class TestReaderRule:
    def test_one_reader_keeps_nothing(self, store_single, alone, derivations):
        (sp,) = build_spectra(store_single, (K,))
        for name in ASSEMBLERS:
            assert_results_identical(_assemble(name, store_single, sp), alone[name])
        # Velvet's table, and Ray's and ABySS's partition each with its own.
        assert len(derivations["tables"]) == 3 and derivations["walks"] == 2
        assert sp.table(2) is not sp.table(2)
        assert sp.partition(N_RANKS, 2) is not sp.partition(N_RANKS, 2)
        assert not sp._graphs

    def test_a_pool_worker_keeps_nothing(self, store_single, shared):
        """A forked worker inherits the planning process's spectrum
        object, reader count included; reading it there keeps nothing."""
        shared.share()  # before the fork, as the pipeline does
        executor = ProcessExecutor(max_workers=1)
        try:
            outcome = executor.submit(partial(_same_table_twice, shared)).outcome()
        finally:
            executor.shutdown()
        assert outcome.error is None, outcome.error
        same, pid = outcome.result
        assert pid != os.getpid() and not same
        assert shared.table(2) is shared.table(2)

    def test_close_releases_the_products(self, store_single, shared):
        for name in ASSEMBLERS:
            _assemble(name, store_single, shared)
        table = weakref.ref(shared.table(PARAMS.min_count))
        owners = weakref.ref(shared.partition(N_RANKS, PARAMS.min_count).owners)
        assert table() is not None and owners() is not None
        shared.close()
        gc.collect()
        assert table() is None and owners() is None
        # A never-shared spectrum stays usable, with one reader again.
        assert not shared.closed
        assert shared.table(2) is not shared.table(2)

    def test_products_are_gone_after_the_pipeline_fan_out(self, derivations):
        """Through the pipeline: one table per k for Ray, ABySS and
        Velvet, and none alive once the run has returned, although its
        spectra stay in the table cache."""
        config = PipelineConfig(assemblers=("ray", "abyss", "velvet"), kmer_list=(25, 31))
        cache = KmerTableCache()
        with use_assembly_cache(None), use_kmer_table_cache(cache):
            RnnotatorPipeline().run(tiny_dataset(seed=0), config)
        assert len(cache) == 2
        assert len(derivations["tables"]) == 2 and derivations["walks"] == 2
        alive = [weakref.ref(t) for t in derivations["tables"]]
        derivations["tables"].clear()
        gc.collect()
        assert [ref() for ref in alive] == [None, None]


class TestReadOnly:
    def test_mutating_a_shared_product_raises(self, store_single, alone, shared):
        table = shared.table(PARAMS.min_count)
        part = shared.partition(N_RANKS, PARAMS.min_count)
        for min_count in (PARAMS.min_count + 1, 1):  # with removals, without
            with pytest.raises(ValueError, match="frozen"):
                table.drop_below(min_count)
        with pytest.raises(ValueError, match="frozen"):
            table.add_counts({bytes(K): 5})
        arrays = (
            table.packed,
            table.count_array,
            table.key_array,
            *table.unitig_chains(),
            part.matrix,
            part.held,
            part.kept,
            part.owners,
        )
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        assert isinstance(part.walks, tuple)
        assert all(isinstance(unitigs, tuple) for unitigs, _ in part.walks)
        unitig = next(u for unitigs, _ in part.walks for u in unitigs)
        with pytest.raises(ValueError, match="read-only"):
            unitig.codes[0] = 0
        # Nothing above reached a later reader.
        for name in ASSEMBLERS:
            assert_results_identical(_assemble(name, store_single, shared), alone[name])
