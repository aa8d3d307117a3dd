"""Graph once per k: the jobs at one k share one spectrum's graph products.

``KmerSpectrum.table(min_count)`` and ``KmerSpectrum.partition(p,
min_count)`` are what Velvet, Ray and ABySS derive from a spectrum; the
partition holds its walks cleaned once, in contig order, which Ray and
ABySS both finish from (Velvet walks in table order and cleans its own).  A
product derived inside ``KmerSpectrum.keeping()`` is kept, read-only,
until ``close``; any other call derives its own and keeps nothing.
``assembly_unit_descriptions`` derives, before the fan-out, every product
the *computing* jobs read from a spectrum two or more of them read, so
those jobs only read it: in this process, or in a pool worker forked
afterwards, which reads the copy it inherited.  Whatever the readers'
order, concurrency and process, every result must equal the one the
assembler gets reading the spectrum alone — each still books its own
phases on its own world.
"""

import gc
import itertools
import os
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from types import SimpleNamespace

import pytest

from repro.assembly import abyss, cleanup, ray, sweep
from repro.assembly.abyss import AbyssAssembler
from repro.assembly.base import AssemblyParams
from repro.assembly.dbg import KmerTable
from repro.assembly.ray import RayAssembler
from repro.assembly.sweep import KmerTableCache, build_spectra, use_kmer_table_cache
from repro.assembly.velvet import VelvetAssembler
from repro.core import multikmer
from repro.core.assembly_cache import AssemblyCache, use_assembly_cache
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.obs import Tracer
from repro.parallel.executor import ProcessExecutor, ThreadExecutor
from repro.seq.datasets import tiny_dataset
from tests.assembly.test_parity import assert_results_identical

K = 31
N_RANKS = 8
PARAMS = AssemblyParams(k=K, min_contig_length=100)
ASSEMBLERS = {"ray": RayAssembler, "abyss": AbyssAssembler, "velvet": VelvetAssembler}
ORDERS = list(itertools.permutations(ASSEMBLERS))
MAMP = ("ray", "abyss", "velvet")


def _assemble(name, store, spectrum):
    kwargs = {} if name == "velvet" else {"n_ranks": N_RANKS}
    return ASSEMBLERS[name]().assemble(store, PARAMS, spectrum=spectrum, **kwargs)


def _workload(name, store, spectrum):
    return _assemble(name, store, spectrum), None


def _read_products(spectrum):
    """The identities of the products a reader gets, and where it ran."""
    part = spectrum.partition(N_RANKS, PARAMS.min_count)
    table = spectrum.table(PARAMS.min_count)
    return (id(part), id(part.contigs), id(table), os.getpid()), None


@pytest.fixture(scope="module")
def alone(store_single):
    """Each assembler's result on a spectrum only it reads."""
    out = {}
    for name in ASSEMBLERS:
        (sp,) = build_spectra(store_single, (K,))
        out[name] = _assemble(name, store_single, sp)
    return out


@pytest.fixture
def derivations(monkeypatch, tmp_path):
    """Every table frozen and every by-owner walk made, as they happen.
    ``tables`` holds weak references to the tables made in this process;
    ``made(pid)``
    counts what was derived in ``pid``, or anywhere — pool workers
    forked after this fixture log theirs to the same file."""
    log = tmp_path / "derivations.log"
    log.touch()
    tables = []
    freeze, walk = KmerTable.freeze, sweep.extract_unitigs_by_owner

    def note(what):
        with log.open("a") as f:
            f.write(f"{what} {os.getpid()}\n")

    def noted_freeze(table):
        note("table")
        tables.append(weakref.ref(table))
        return freeze(table)

    def noted_walk(*args):
        note("walk")
        return walk(*args)

    def made(pid=None):
        rows = [line.split() for line in log.read_text().splitlines()]
        return Counter(what for what, p in rows if pid is None or int(p) == pid)

    monkeypatch.setattr(KmerTable, "freeze", noted_freeze)
    monkeypatch.setattr(sweep, "extract_unitigs_by_owner", noted_walk)
    return SimpleNamespace(tables=tables, made=made)


@pytest.fixture
def cleanups(monkeypatch, tmp_path):
    """``count(pid=None)``: the ``clean_unitigs`` calls made so far, in
    ``pid`` or anywhere (pool workers forked after this fixture log
    theirs to the same file)."""
    log = tmp_path / "cleanups.log"
    log.touch()
    clean = cleanup.clean_unitigs

    def noted_clean(*args):
        with log.open("a") as f:
            f.write(f"{os.getpid()}\n")
        return clean(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and vars(module).get("clean_unitigs") is clean:
            monkeypatch.setattr(module, "clean_unitigs", noted_clean)
    return lambda pid=None: sum(
        pid is None or int(p) == pid for p in log.read_text().split()
    )


@pytest.fixture
def finishes(monkeypatch):
    """Per assembler, the ``(ordered, stats)`` objects Ray and ABySS
    finished from."""
    seen = {}

    def noting(finish):
        def noted_finish(name, params, ordered, stats, *args, **kwargs):
            seen.setdefault(name, []).append((ordered, stats))
            return finish(name, params, ordered, stats, *args, **kwargs)

        return noted_finish

    for module in (ray, abyss):
        monkeypatch.setattr(module, "finish_assembly", noting(module.finish_assembly))
    return seen


@pytest.fixture
def shared(store_single, derivations):
    """A spectrum whose products the three assemblers read were derived
    ahead, as the pipeline does for several computing readers."""
    (sp,) = build_spectra(store_single, (K,))
    with sp.keeping():
        sp.table(PARAMS.min_count)
        sp.partition(N_RANKS, PARAMS.min_count)
    yield sp
    sp.close()


#: One table for all three readers, one partition (and walk) for Ray and ABySS.
ONCE = Counter(table=1, walk=1)


def kept_ahead(monkeypatch):
    """Per k, the kinds of product the fan-out's spectra held when
    ``assembly_unit_descriptions`` returned."""
    seen = {}
    describe = multikmer.assembly_unit_descriptions

    def recording(*args, spectra=(), **kwargs):
        descs = describe(*args, spectra=spectra, **kwargs)
        seen.update({sp.k: sorted(key[0] for key in sp._graphs) for sp in spectra})
        return descs

    monkeypatch.setattr(multikmer, "assembly_unit_descriptions", recording)
    return seen


def run_mamp(assemblers=MAMP, kmer_list=(25, 31), **config):
    """(result, tracer) of one traced run."""
    tracer = Tracer()
    config = PipelineConfig(assemblers=assemblers, kmer_list=kmer_list, **config)
    return RnnotatorPipeline(tracer=tracer).run(tiny_dataset(seed=0), config), tracer


class TestSharedReaders:
    @pytest.mark.parametrize("order", ORDERS, ids="-".join)
    def test_every_order_reads_what_it_reads_alone(
        self, store_single, alone, shared, derivations, cleanups, finishes, order
    ):
        for name in order:
            assert_results_identical(_assemble(name, store_single, shared), alone[name])
        assert derivations.made() == ONCE  # all of it ahead, none by a reader
        assert cleanups() == 1  # Velvet's own; the partition's was ahead
        part = shared.partition(N_RANKS, PARAMS.min_count)
        assert part.table is shared.table(PARAMS.min_count)
        # Ray and ABySS finish from the one cleaned product, in any order.
        for name in ("ray", "abyss"):
            ((ordered, stats),) = finishes[name]
            assert ordered is part.contigs and stats is part.cleanup

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
        assert derivations.made() == ONCE

    def test_many_threads_get_one_object(self, shared, derivations):
        """More readers than cores, switching threads every microsecond:
        every reader holds the one kept product and none derives."""
        n = 4 * (os.cpu_count() or 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n) as pool:
                futures = [
                    pool.submit(shared.partition, N_RANKS, PARAMS.min_count)
                    for _ in range(n)
                ]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(part is got[0] for part in got)
        assert derivations.made() == ONCE


class TestReaderRule:
    def test_one_reader_keeps_nothing(self, store_single, alone, derivations):
        (sp,) = build_spectra(store_single, (K,))
        for name in ASSEMBLERS:
            assert_results_identical(_assemble(name, store_single, sp), alone[name])
        # Velvet's table, and Ray's and ABySS's partition each with its own.
        assert derivations.made() == Counter(table=3, walk=2)
        assert sp.table(2) is not sp.table(2)
        assert sp.partition(N_RANKS, 2) is not sp.partition(N_RANKS, 2)
        assert not sp._graphs

    def test_a_forked_worker_reads_the_parents_products(self, shared, derivations):
        """A pool worker forked after the products were kept gets the
        parent's objects through the inherited attach registry: the same
        identities, and nothing derived there."""
        shared.share()  # before the fork, as the pipeline does
        executor = ProcessExecutor(max_workers=1)
        try:
            outcome = executor.submit(partial(_read_products, shared)).outcome()
        finally:
            executor.shutdown()
        assert outcome.error is None, outcome.error
        (*ids, _), _ = _read_products(shared)
        assert outcome.result[-1] != os.getpid()
        assert list(outcome.result[:-1]) == ids
        assert derivations.made(os.getpid()) == derivations.made() == ONCE

    def test_a_kept_partition_is_keyed_by_min_count(self, store_single):
        """Partitions kept at two ``min_count``s are two products, each
        cleaned as a spectrum read alone is at that ``min_count``."""
        (sp,) = build_spectra(store_single, (K,))
        with sp.keeping():
            parts = {m: sp.partition(N_RANKS, m) for m in (2, 3)}
        (fresh,) = build_spectra(store_single, (K,))
        for m, part in parts.items():
            alone = fresh.partition(N_RANKS, m)
            assert (part.contigs, part.cleanup) == (alone.contigs, alone.cleanup)
        assert parts[2].contigs != parts[3].contigs
        sp.close()

    def test_close_releases_the_products(self, store_single, shared):
        for name in ASSEMBLERS:
            _assemble(name, store_single, shared)
        table = weakref.ref(shared.table(PARAMS.min_count))
        owners = weakref.ref(shared.partition(N_RANKS, PARAMS.min_count).owners)
        assert table() is not None and owners() is not None
        shared.close()
        gc.collect()
        assert table() is None and owners() is None
        # A never-shared spectrum stays usable and keeps nothing again.
        assert not shared.closed
        assert shared.table(2) is not shared.table(2)

    def test_products_are_gone_after_the_pipeline_fan_out(self, derivations):
        """Through the pipeline: one table per k for Ray, ABySS and
        Velvet, and none alive once the run has returned, although its
        spectra stay in the table cache."""
        cache = KmerTableCache()
        with use_assembly_cache(None), use_kmer_table_cache(cache):
            run_mamp()
        assert len(cache) == 2
        assert derivations.made() == Counter(table=2, walk=2)
        gc.collect()
        assert [ref() for ref in derivations.tables] == [None, None]

    def test_a_process_pipeline_derives_once_per_k(self, derivations, cleanups):
        """The same six jobs on two forked workers: the parent derives
        each k's table, walk and cleaned walks before the fan-out, the
        workers none; only Velvet cleans its own, in a worker."""
        with use_assembly_cache(None), use_kmer_table_cache(KmerTableCache()):
            run_mamp(executor="process", executor_workers=2)
        assert derivations.made(os.getpid()) == derivations.made() == Counter(
            table=2, walk=2
        )
        assert (cleanups(os.getpid()), cleanups()) == (2, 4)

    def test_ray_and_abyss_clean_once_per_k(self, cleanups):
        """Six serial jobs at two ks clean four times: once per k for Ray
        and ABySS together (the partition), once per k for Velvet —
        where one clean per job would be six."""
        with use_assembly_cache(None), use_kmer_table_cache(KmerTableCache()):
            result, _ = run_mamp()
        assert len(result.assemblies) == 6
        assert cleanups() == 4


class TestComputingReaders:
    """Only jobs that will compute count as readers: one served from the
    assembly cache (or a checkpoint) reads no graph."""

    def test_a_cached_job_is_not_a_reader(self, monkeypatch, derivations):
        with use_assembly_cache(AssemblyCache()), use_kmer_table_cache(
            KmerTableCache()
        ):
            run_mamp(assemblers=("ray",), kmer_list=(K,))
            before = derivations.made()
            ahead = kept_ahead(monkeypatch)
            _, tracer = run_mamp(kmer_list=(K,))
        assert tracer.metrics.snapshot()["counters"]["assembly_cache.hit"] == 1
        # ABySS's partition and Velvet's table (the one in the partition).
        assert ahead == {K: ["partition", "table"]}
        assert derivations.made() - before == ONCE

    def test_one_computing_job_derives_nothing_ahead(self, monkeypatch, derivations):
        with use_assembly_cache(AssemblyCache()), use_kmer_table_cache(
            KmerTableCache()
        ):
            run_mamp(assemblers=("ray", "abyss"), kmer_list=(K,))
            before = derivations.made()
            ahead = kept_ahead(monkeypatch)
            _, tracer = run_mamp(kmer_list=(K,))
        assert tracer.metrics.snapshot()["counters"]["assembly_cache.hit"] == 2
        assert ahead == {K: []}
        # Velvet alone, deriving its own table; no partition anywhere.
        assert derivations.made() - before == Counter(table=1)


class TestReadOnly:
    def test_mutating_a_shared_product_raises(self, store_single, alone, shared):
        table = shared.table(PARAMS.min_count)
        part = shared.partition(N_RANKS, PARAMS.min_count)
        for min_count in (PARAMS.min_count + 1, 1):  # with removals, without
            with pytest.raises(ValueError, match="frozen"):
                table.drop_below(min_count)
        arrays = (
            table.packed,
            table.count_array,
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
