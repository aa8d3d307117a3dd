"""End-to-end pipeline integration tests."""

import dataclasses

import pytest

from repro.core.preprocess import PreprocessParams
from repro.core.checkpoint import CheckpointStore
from repro.core.rnnotator import (
    STAGE_NAMES,
    PipelineConfig,
    PipelineError,
    PipelineResult,
    RnnotatorPipeline,
)
from repro.core.schemes import MatchingScheme
from repro.core.workflow import WorkflowPattern
from repro.evaluation.detonate import evaluate
from repro.obs import Tracer


@pytest.fixture(scope="module")
def s2_result(ds_single) -> PipelineResult:
    return RnnotatorPipeline().run(
        ds_single,
        PipelineConfig(assemblers=("ray",), kmer_list=(35, 41)),
    )


class TestEndToEnd:
    def test_all_stages_present(self, s2_result):
        names = [s.name for s in s2_result.stages]
        assert names == [
            "stage-in", "pre-processing", "transcript-assembly",
            "post-processing", "quantification",
        ]

    def test_monotone_stage_times(self, s2_result):
        for a, b in zip(s2_result.stages, s2_result.stages[1:]):
            assert b.started_at >= a.finished_at - 1e-6

    def test_produces_transcripts(self, s2_result, ds_single):
        assert len(s2_result.transcripts) > 5
        scores = evaluate(s2_result.transcripts, ds_single.transcriptome)
        assert scores.precision > 0.9

    def test_assemblies_keyed_by_job(self, s2_result):
        assert set(s2_result.assemblies) == {("ray", 35), ("ray", 41)}

    def test_cost_positive_and_ttc_consistent(self, s2_result):
        assert s2_result.total_cost > 0
        assert s2_result.total_ttc >= sum(
            0.0 for _ in s2_result.stages
        )
        assert s2_result.total_ttc >= s2_result.stages[-1].finished_at - 1e-6

    def test_quantification_ran(self, s2_result):
        assert s2_result.quantification.assigned_reads > 0

    def test_summary_text(self, s2_result):
        text = s2_result.summary()
        assert "TOTAL" in text and "USD" in text

    def test_stage_ttc_accessor(self, s2_result):
        assert s2_result.stage_ttc("transcript-assembly") > 0
        with pytest.raises(KeyError):
            s2_result.stage_ttc("nonexistent")


class TestStageTable:
    """Every reporting stage is closed in one place: a report, a
    ``stage`` span with the report's exact virtual interval, and (when
    checkpointing) a marker — under every matching scheme."""

    @pytest.mark.parametrize("scheme", list(MatchingScheme))
    def test_reports_spans_and_markers_follow_the_table(
        self, ds_single, tmp_path, scheme
    ):
        tracer = Tracer()
        result = RnnotatorPipeline(tracer=tracer).run(
            ds_single,
            PipelineConfig(
                assemblers=("velvet",),
                kmer_list=(35,),
                scheme=scheme,
                checkpoint_dir=str(tmp_path),
            ),
        )
        assert tuple(s.name for s in result.stages) == STAGE_NAMES
        spans = [s for s in tracer.spans if s.category == "stage"]
        assert [s.attrs["stage"] for s in spans] == list(STAGE_NAMES)
        for span, report in zip(spans, result.stages):
            assert span.v_end - span.v_start == report.ttc
        assert result.checkpoint_stats["stages_recorded"] == len(STAGE_NAMES)
        assert CheckpointStore(tmp_path).stage_count() == len(STAGE_NAMES)


class TestSchemesComparison:
    def test_s1_pays_transfer_and_reprovisioning(self, ds_single):
        cfg = dict(assemblers=("ray",), kmer_list=(35,))
        s2 = RnnotatorPipeline().run(
            ds_single, PipelineConfig(scheme=MatchingScheme.S2, **cfg)
        )
        s1 = RnnotatorPipeline().run(
            ds_single, PipelineConfig(scheme=MatchingScheme.S1, **cfg)
        )
        assert s1.transfer_seconds > s2.transfer_seconds
        assert s1.total_ttc > s2.total_ttc
        # identical functional output
        assert [t.seq for t in s1.transcripts] == [
            t.seq for t in s2.transcripts
        ]

    def test_conventional_requires_s2(self):
        with pytest.raises(ValueError):
            PipelineConfig(
                workflow=WorkflowPattern.CONVENTIONAL,
                scheme=MatchingScheme.S1,
            )


class TestDynamicVsStatic:
    def test_dynamic_picks_instance_by_memory(self, ds_paired):
        """The paired (P. crispa-like) spec declares a 40 GB preprocessing
        footprint: the dynamic workflow must select r3.2xlarge."""
        res = RnnotatorPipeline().run(
            ds_paired,
            PipelineConfig(
                assemblers=("ray",), kmer_list=(51,),
                workflow=WorkflowPattern.DISTRIBUTED_DYNAMIC,
            ),
        )
        assert res.stages[1].instance_type == "r3.2xlarge"

    def test_static_on_small_instance_fails(self, ds_paired):
        """A static workflow pinned to c3.2xlarge OOMs in pre-processing —
        the failure mode the paper's dynamic scheme avoids."""
        with pytest.raises(PipelineError, match="pre-processing failed"):
            RnnotatorPipeline().run(
                ds_paired,
                PipelineConfig(
                    assemblers=("ray",), kmer_list=(51,),
                    workflow=WorkflowPattern.DISTRIBUTED_STATIC,
                    instance_type="c3.2xlarge",
                ),
            )

    def test_explicit_instance_respected(self, ds_single):
        res = RnnotatorPipeline().run(
            ds_single,
            PipelineConfig(
                assemblers=("ray",), kmer_list=(35,),
                instance_type="r3.2xlarge",
            ),
        )
        assert all(
            s.instance_type == "r3.2xlarge"
            for s in res.stages
            if s.instance_type != "-"
        )


class TestMultiAssembler:
    def test_mamp_run(self, ds_single):
        res = RnnotatorPipeline().run(
            ds_single,
            PipelineConfig(
                assemblers=("ray", "abyss", "contrail"),
                kmer_list=(35, 41),
                contrail_nodes_per_job=4,
            ),
        )
        assert len(res.assemblies) == 6
        assert res.plan.n_jobs == 6
        assert len(res.transcripts) > 5

    def test_data_dependent_kmer_list(self, ds_single):
        res = RnnotatorPipeline().run(
            ds_single, PipelineConfig(assemblers=("ray",))
        )
        # 50 bp reads, post-trim modal length ~47 -> 35..47 step 2
        assert res.kmer_list[0] == 35
        assert len(res.kmer_list) >= 5


class TestConfigFingerprint:
    """Every PipelineConfig field is classified exactly once; a new
    field has to be put on one side before this passes again."""

    #: field -> a non-default value.  Changing one moves the fingerprint
    #: (and the checkpoint stage markers, built from the same key).
    RESULT_DETERMINING = {
        "assemblers": ("velvet",),
        "scheme": MatchingScheme.S1,
        "workflow": WorkflowPattern.DISTRIBUTED_STATIC,
        "instance_type": "r3.2xlarge",
        "mpi_nodes_per_job": 2,
        "contrail_nodes_per_job": 4,
        "max_nodes": 8,
        "min_count": 3,
        "min_contig_length": 200,
        "kmer_list": (35, 41),
        "preprocess_params": PreprocessParams(min_length=40),
    }
    #: How the run executes, never what it computes.
    EXECUTION_MECHANICS = {
        "executor": "thread",
        "executor_workers": 2,
        "spectrum_shards": 3,
        "spectrum_buckets": 4,
        "checkpoint_dir": "/tmp/ck",
        "unit_max_restarts": 2,
    }

    def test_every_field_is_classified_once(self):
        names = [f.name for f in dataclasses.fields(PipelineConfig)]
        classified = [*self.RESULT_DETERMINING, *self.EXECUTION_MECHANICS]
        assert sorted(classified) == sorted(names)
        assert len(names) == 17

    def test_only_result_determining_fields_move_it(self):
        base = PipelineConfig()
        assert base.fingerprint() == "0f40bed062c9543c"  # ledger-stable
        for name, value in self.RESULT_DETERMINING.items():
            changed = dataclasses.replace(base, **{name: value})
            assert changed.fingerprint() != base.fingerprint(), name
        for name, value in self.EXECUTION_MECHANICS.items():
            changed = dataclasses.replace(base, **{name: value})
            assert getattr(changed, name) != getattr(base, name), name
            assert changed.fingerprint() == base.fingerprint(), name
