"""The spectrum stage is demand-driven.

K-mers are counted only for jobs that will read them.  A job whose
content key is already in the assembly cache or the checkpoint store is
*satisfied* and needs no spectrum; the k of every other job is looked up
in the table cache before anything is built.  Both probes are
predictions: a job that misses after all builds the one spectrum it
reads, inside its own unit, and every result stays bit-identical
whichever way the spectra came.
"""

from pathlib import Path

import pytest

from repro.assembly import sweep
from repro.assembly.sweep import KmerTableCache, use_kmer_table_cache
from repro.core import multikmer, rnnotator
from repro.core.assembly_cache import (
    AssemblyCache,
    get_assembly_cache,
    use_assembly_cache,
)
from repro.core.rnnotator import (
    FaultPlan,
    PipelineConfig,
    PipelineKilled,
    RnnotatorPipeline,
)
from repro.obs import Tracer
from repro.parallel.executor import ProcessExecutor, ThreadExecutor
from repro.seq.datasets import tiny_dataset
from repro.seq.readstore import ReadStore
from tests.core.test_fused_pipeline import _fingerprint as fingerprint
from tests.core.test_store_lifetime import segments, time_limit

SHM = Path("/dev/shm")
BACKENDS = ("serial", "process")
KS = (25, 31)
ASSEMBLERS = ("ray", "velvet")
N_JOBS = len(KS) * len(ASSEMBLERS)
#: Every span the spectrum build can leave in a trace.
BUILD_SPANS = {
    "spectrum.build",
    "spectrum.extract",
    "spectrum.k",
}


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=0)


@pytest.fixture
def caches():
    """Fresh cache scopes: the first run inside is cold."""
    with use_assembly_cache(AssemblyCache()) as ac, use_kmer_table_cache(
        KmerTableCache()
    ) as tc:
        yield ac, tc


@pytest.fixture
def supply(monkeypatch):
    """Counts what the supply side did: spectrum builds run, spectrum
    segments created."""
    seen = {"builds": 0, "segments": 0}
    build, share = rnnotator.build_spectra, sweep.KmerSpectrum.share

    def counting_build(*args, **kwargs):
        seen["builds"] += 1
        return build(*args, **kwargs)

    def counting_share(spectrum):
        seen["segments"] += not spectrum.shared
        return share(spectrum)

    monkeypatch.setattr(rnnotator, "build_spectra", counting_build)
    monkeypatch.setattr(sweep.KmerSpectrum, "share", counting_share)
    return seen


@pytest.fixture
def forks(monkeypatch):
    """What a run did to leave its process: the pools it made and the
    read stores it moved into a segment."""
    seen = {"pools": 0, "store_segments": 0}
    make_pool, share = ProcessExecutor._make_pool, ReadStore.share

    def counting_make_pool(executor):
        seen["pools"] += 1
        return make_pool(executor)

    def counting_share(store):
        seen["store_segments"] += not store.shared
        return share(store)

    monkeypatch.setattr(ProcessExecutor, "_make_pool", counting_make_pool)
    monkeypatch.setattr(ReadStore, "share", counting_share)
    return seen


def run(dataset, executor="serial", kmer_list=KS, faults=None, **overrides):
    """(result, tracer) of one traced run."""
    config = PipelineConfig(
        assemblers=ASSEMBLERS,
        kmer_list=kmer_list,
        executor=executor,
        executor_workers=2 if executor == "process" else None,
        **overrides,
    )
    tracer = Tracer()
    with time_limit(120):
        pipeline = RnnotatorPipeline(tracer=tracer, faults=faults)
        return pipeline.run(dataset, config), tracer


def build_spans(tracer):
    return [s for s in tracer.spans if s.name in BUILD_SPANS]


def skips(tracer):
    return [e.attrs for e in tracer.events if e.name == "spectrum.skip"]


def counters(tracer):
    return tracer.metrics.snapshot()["counters"]


def built_ks(tracer):
    (build,) = [s for s in tracer.spans if s.name == "spectrum.build"]
    return build.attrs["ks"]


def job_builds(tracer):
    """(assembler, k, ks built) of every ``spectrum.build``, each of
    which must sit inside a job: the pipeline's own stage built nothing."""
    by_id = {s.span_id: s for s in tracer.spans}
    found = []
    for span in tracer.spans:
        if span.name == "spectrum.build":
            job = by_id[span.parent_id]
            assert job.name == "assembly_workload"
            found.append((job.attrs["assembler"], job.attrs["k"], span.attrs["ks"]))
    return sorted(found)


#: Every job missed and rebuilt exactly the spectrum it reads.
EVERY_JOB_REBUILT = sorted((a, k, [k]) for a in ASSEMBLERS for k in KS)


@pytest.mark.parametrize("executor", BACKENDS)
class TestWarmRerun:
    def test_satisfied_jobs_build_nothing(self, dataset, caches, supply, executor):
        cold, cold_trace = run(dataset, executor)
        assert built_ks(cold_trace) == list(KS)
        assert not skips(cold_trace)
        after_cold = dict(supply)
        assert after_cold["builds"] == 1

        warm, warm_trace = run(dataset, executor)
        assert not build_spans(warm_trace)
        assert skips(warm_trace) == [
            {
                "ks": list(KS),
                "jobs": N_JOBS,
                "jobs_satisfied": N_JOBS,
                "reason": "jobs satisfied",
            }
        ]
        assert supply == after_cold  # nothing built or shared
        assert not any(k.startswith("kmer_table.") for k in counters(warm_trace))
        assert counters(warm_trace)["assembly_cache.hit"] == N_JOBS
        assert fingerprint(warm) == fingerprint(cold)

    def test_satisfied_rerun_forks_nothing(
        self, dataset, caches, supply, forks, executor
    ):
        assembly_cache, _ = caches
        cold, _ = run(dataset, executor)
        pooled = executor == "process"
        assert forks == {"pools": pooled, "store_segments": pooled}
        assert supply["segments"] == (len(KS) if pooled else 0)
        after_cold, hits_cold = (dict(supply), dict(forks)), assembly_cache.hits

        warm, _ = run(dataset, executor)
        assert (supply, forks) == after_cold
        # Looked up in the parent, so counted where a caller can read it.
        assert assembly_cache.hits - hits_cold == N_JOBS
        assert fingerprint(warm) == fingerprint(cold)

    def test_partial_demand_builds_only_the_new_k(
        self, dataset, caches, supply, forks, executor
    ):
        run(dataset, executor, kmer_list=(25,))
        after_narrow = dict(forks)
        wider, trace = run(dataset, executor, kmer_list=KS)
        # One unsatisfied job is enough to want the pool; the new k is
        # still counted in the parent.
        assert forks["pools"] - after_narrow["pools"] == (executor == "process")
        assert supply["builds"] == 2
        assert built_ks(trace) == [31]
        assert counters(trace)["assembly_cache.hit"] == len(ASSEMBLERS)
        assert counters(trace)["assembly_cache.miss"] == len(ASSEMBLERS)
        with use_assembly_cache(AssemblyCache()), use_kmer_table_cache(
            KmerTableCache()
        ):
            fresh, _ = run(dataset, "serial", kmer_list=KS)
        assert fingerprint(wider) == fingerprint(fresh)

    def test_wrong_prediction_falls_back_to_per_job_extraction(
        self, dataset, caches, supply, executor, monkeypatch
    ):
        """The assembly cache loses its entries between the demand probe
        and the fan-out: every job misses with no spectrum in hand, and
        builds its own."""
        cold, _ = run(dataset, executor)
        describe = multikmer.assembly_unit_descriptions

        def evict_then_describe(*args, **kwargs):
            get_assembly_cache().clear()
            return describe(*args, **kwargs)

        monkeypatch.setattr(
            multikmer, "assembly_unit_descriptions", evict_then_describe
        )
        after_cold, before = dict(supply), segments()
        warm, trace = run(dataset, executor)
        assert len(skips(trace)) == 1
        assert supply == after_cold  # the parent built and shared nothing
        assert job_builds(trace) == EVERY_JOB_REBUILT
        assert counters(trace)["assembly_cache.miss"] == N_JOBS
        assert "assembly_cache.hit" not in counters(trace)
        assert fingerprint(warm) == fingerprint(cold)
        assert segments() == before


def test_a_callers_executor_sees_the_satisfied_rerun(dataset, caches):
    class Counting(ThreadExecutor):
        submits = 0

        def submit(self, work, context=None):
            self.submits += 1
            return super().submit(work, context)

    with Counting(max_workers=2) as mine:
        cold, _ = run(dataset, mine)
        assert mine.submits == N_JOBS
        # Inline lookups are for backends the pipeline owns.
        warm, _ = run(dataset, mine)
        assert mine.submits == 2 * N_JOBS
    assert fingerprint(warm) == fingerprint(cold)


class TestTableCacheReuse:
    def test_same_reads_other_rank_count_reuses_the_spectra(
        self, dataset, caches, supply
    ):
        """Fig. 2's configurations: the rank count changes every job's
        content key, the reads — hence the spectra — stay the same."""
        run(dataset)
        after_cold = dict(supply)
        wide, trace = run(dataset, mpi_nodes_per_job=2)
        assert counters(trace)["assembly_cache.miss"] == N_JOBS
        assert counters(trace)["kmer_table.hit"] == len(KS)
        assert "kmer_table.miss" not in counters(trace)
        assert not build_spans(trace) and supply == after_cold
        (skip,) = skips(trace)
        assert skip["reason"] == "spectra cached"
        assert skip["jobs_satisfied"] == 0
        with use_assembly_cache(AssemblyCache()), use_kmer_table_cache(
            KmerTableCache()
        ):
            fresh, _ = run(dataset, mpi_nodes_per_job=2)
        assert fingerprint(wide) == fingerprint(fresh)

    def test_serial_run_leaves_live_spectra_with_the_cache(self, dataset, caches):
        _, table_cache = caches
        result, _ = run(dataset)
        digest = ReadStore.from_reads(result.preprocess.reads).digest
        for k in KS:
            spectrum = table_cache.get(digest, k)
            assert spectrum is not None and not spectrum.closed
            assert not spectrum.shared and spectrum.n_distinct > 0

    @pytest.mark.skipif(not SHM.is_dir(), reason="needs a listable /dev/shm")
    def test_process_run_takes_its_segments_with_it(self, dataset, caches):
        _, table_cache = caches
        before = segments()
        result, _ = run(dataset, "process")
        assert segments() == before
        digest = ReadStore.from_reads(result.preprocess.reads).digest
        assert len(table_cache) == len(KS)  # dead entries, until asked
        assert all(table_cache.get(digest, k) is None for k in KS)
        assert len(table_cache) == 0


@pytest.mark.parametrize("executor", BACKENDS)
class TestCheckpointResume:
    def test_resume_builds_no_spectrum(self, dataset, tmp_path, supply, executor):
        # No assembly cache at all: only the checkpoint store can
        # satisfy a job here.
        with use_assembly_cache(None), use_kmer_table_cache(KmerTableCache()):
            uninterrupted, _ = run(dataset, executor)
        ckpt = str(tmp_path / "ckpt")
        with use_assembly_cache(None), use_kmer_table_cache(KmerTableCache()):
            with pytest.raises(PipelineKilled):
                run(
                    dataset,
                    executor,
                    checkpoint_dir=ckpt,
                    faults=FaultPlan(abort_after_stage="transcript-assembly"),
                )
        after_kill = dict(supply)
        with use_assembly_cache(None), use_kmer_table_cache(KmerTableCache()):
            resumed, trace = run(dataset, executor, checkpoint_dir=ckpt)
        assert resumed.checkpoint_stats["unit_hits"] == N_JOBS + 1
        assert not build_spans(trace) and supply == after_kill
        (skip,) = skips(trace)
        assert skip["jobs_satisfied"] == N_JOBS
        assert fingerprint(resumed) == fingerprint(uninterrupted)

    def test_torn_records_fall_back_to_per_job_extraction(
        self, dataset, tmp_path, supply, executor
    ):
        """A torn record still answers the cheap probe; the agent's real
        read discards it and the job computes, building its own spectrum."""
        ckpt = tmp_path / "ckpt"
        with use_assembly_cache(None), use_kmer_table_cache(KmerTableCache()):
            first, _ = run(dataset, executor, checkpoint_dir=str(ckpt))
        for record in (ckpt / "units").glob("*.pkl"):
            record.write_bytes(b"torn")
        after_first, before = dict(supply), segments()
        with use_assembly_cache(None), use_kmer_table_cache(KmerTableCache()):
            again, trace = run(dataset, executor, checkpoint_dir=str(ckpt))
        assert again.checkpoint_stats["unit_hits"] == 0
        assert len(skips(trace)) == 1
        assert supply == after_first  # the parent built and shared nothing
        assert job_builds(trace) == EVERY_JOB_REBUILT
        assert fingerprint(again) == fingerprint(first)
        assert segments() == before
