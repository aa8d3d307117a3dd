"""The run cache answers the single-unit stages.

QC, the contig merge and quantification are pure functions of the
content keys their checkpoint records already use.  Inside an
``AssemblyCache`` scope a cold run puts each stage's result there and a
warm rerun's stage workloads return it instead of computing: dispatch,
pricing and the ``stage`` span run as before, so the rerun's result is
bit-identical to a run with no cache at all.
"""

from dataclasses import fields, replace

import pytest

from repro.core import multikmer, rnnotator
from repro.core.assembly_cache import AssemblyCache, use_assembly_cache
from repro.core.preprocess import PreprocessParams
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.obs import Tracer
from repro.seq.readstore import ReadStore
from tests.core.test_fused_pipeline import _fingerprint as fingerprint
from tests.core.test_store_lifetime import time_limit

KS = (25, 31)
ASSEMBLERS = ("ray", "velvet")
N_JOBS = len(KS) * len(ASSEMBLERS)
KERNELS = ("preprocess", "merge_contigs", "quantify")


def run(dataset, executor="serial", tracer=None, **overrides):
    config = PipelineConfig(
        **{
            "assemblers": ASSEMBLERS,
            "kmer_list": KS,
            "executor": executor,
            "executor_workers": 2 if executor == "process" else None,
            **overrides,
        }
    )
    with time_limit(120):
        return RnnotatorPipeline(tracer=tracer).run(dataset, config)


def outputs(res):
    """Everything a caller reads off a result, as comparable values."""
    pre, merged, quant = res.preprocess, res.merge, res.quantification
    return (
        fingerprint(res),  # assemblies, every StageReport.ttc, totals, sequences
        res.transcripts,
        [(f.name, getattr(pre, f.name)) for f in fields(pre) if f.name != "store"],
        pre.store.digest,
        (merged.usage, merged.input_contigs, merged.contained_removed, merged.joins),
        quant.transcript_ids,
        quant.counts.tolist(),
        quant.tpm.tolist(),
        (quant.usage, quant.assigned_reads, quant.unassigned_reads),
    )


def counters(tracer):
    return tracer.metrics.snapshot()["counters"]


def mutate(res):
    """Every mutable part of the three stage results, overwritten."""
    res.preprocess.usage.phases.clear()
    res.merge.transcripts.clear()
    res.merge.usage.phases.clear()
    quant = res.quantification
    quant.transcript_ids.clear()
    quant.counts[:] = -1
    quant.tpm[:] = -1.0
    quant.usage.phases.clear()


@pytest.fixture
def cache():
    with use_assembly_cache(AssemblyCache()) as fresh:
        yield fresh


@pytest.fixture
def calls(monkeypatch):
    """How often each stage kernel ran."""
    seen = dict.fromkeys(KERNELS, 0)

    def counting(name):
        kernel = getattr(rnnotator, name)

        def wrapper(*args, **kwargs):
            seen[name] += 1
            return kernel(*args, **kwargs)

        return wrapper

    for name in KERNELS:
        monkeypatch.setattr(rnnotator, name, counting(name))
    return seen


@pytest.fixture(scope="module")
def uncached(ds_single):
    with use_assembly_cache(None):
        return outputs(run(ds_single))


@pytest.mark.parametrize("executor", ("serial", "process"))
def test_a_warm_rerun_computes_no_stage_and_equals_an_uncached_run(
    ds_single, uncached, cache, calls, executor
):
    cold = run(ds_single, executor)
    assert calls == dict.fromkeys(KERNELS, 1)
    warm = run(ds_single, executor)
    assert calls == dict.fromkeys(KERNELS, 1)
    assert outputs(cold) == uncached
    assert outputs(warm) == uncached


def test_the_keys_are_the_checkpoint_keys(ds_single, cache):
    """QC is keyed by the raw reads and its parameters, the merge by the
    fan-out's job keys, and quantification by the filtered reads it joins
    as well as by the fan-out."""
    res = run(ds_single)
    raw = ReadStore.from_reads(ds_single.run.all_reads())
    filtered = res.preprocess.store.digest
    fanout = tuple(
        job.key for job in multikmer.planned_jobs(res.plan, res.preprocess.store)
    )
    assert ("stage:preprocess", raw.digest, PreprocessParams()) in cache
    assert ("stage:merge", fanout) in cache
    assert ("stage:quantify", filtered, fanout) in cache
    assert len(cache) == N_JOBS + 3
    raw.close()


def test_a_hit_is_priced_at_the_current_data_set_scale(ds_single, cache, calls):
    """Stage results hold raw usage, which the agent scales by the run's
    ``read_scale``: the same reads standing for twice the paper's read
    count hit every stage and cost what an uncached run of them costs."""
    run(ds_single)
    spec = replace(ds_single.spec, n_reads=2 * ds_single.spec.n_reads)
    doubled = replace(ds_single, spec=spec)
    assert doubled.read_scale != ds_single.read_scale
    warm = run(doubled)
    assert calls == dict.fromkeys(KERNELS, 1)
    with use_assembly_cache(None):
        assert outputs(warm) == outputs(run(doubled))


class TestKeySensitivity:
    def test_other_qc_parameters_miss_every_stage(self, ds_single, cache, calls):
        base = run(ds_single)
        other = run(ds_single, preprocess_params=PreprocessParams(dedup=False))
        assert other.preprocess.store.digest != base.preprocess.store.digest
        assert calls == dict.fromkeys(KERNELS, 2)

    def test_other_assemblers_hit_qc_and_miss_merge_and_quantify(
        self, ds_single, cache, calls
    ):
        run(ds_single)
        run(ds_single, assemblers=("ray",))
        assert calls == {"preprocess": 1, "merge_contigs": 2, "quantify": 2}


def test_mutating_a_result_leaves_the_next_rerun_unchanged(
    ds_single, uncached, cache
):
    cold = run(ds_single)
    mutate(cold)  # what put stored is a copy
    warm = run(ds_single)
    assert outputs(warm) == uncached
    mutate(warm)  # what get returned is a copy
    assert outputs(run(ds_single)) == uncached


def test_no_cache_scope_memoises_nothing(ds_single, calls):
    tracer = Tracer()
    with use_assembly_cache(None):
        run(ds_single)
        run(ds_single, tracer=tracer)
    assert calls == dict.fromkeys(KERNELS, 2)
    assert not any("stage_cache" in repr(record) for record in tracer.records())


def test_stage_lookups_have_their_own_counters(ds_single, cache):
    cold_trace, warm_trace = Tracer(), Tracer()
    run(ds_single, tracer=cold_trace)
    hits_cold, misses_cold = cache.hits, cache.misses
    assert (hits_cold, misses_cold) == (0, N_JOBS)
    run(ds_single, tracer=warm_trace)
    assert (cache.hits - hits_cold, cache.misses) == (N_JOBS, misses_cold)
    cold, warm = counters(cold_trace), counters(warm_trace)
    assert (cold["stage_cache.miss"], cold["assembly_cache.miss"]) == (3, N_JOBS)
    assert (warm["stage_cache.hit"], warm["assembly_cache.hit"]) == (3, N_JOBS)
    assert "stage_cache.hit" not in cold and "assembly_cache.hit" not in cold
    assert "stage_cache.miss" not in warm and "assembly_cache.miss" not in warm
