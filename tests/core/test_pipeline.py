"""End-to-end pipeline integration tests."""

import dataclasses

import numpy as np
import pytest

from repro.core.planner import plan_assembly
from repro.core.preprocess import PreprocessParams
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
from repro.seq.datasets import B_GLUMAE
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
    """Every reporting stage is closed in one place: a report and a
    ``stage`` span with the report's exact virtual interval — under every
    matching scheme, with checkpointing on."""

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

    @pytest.mark.parametrize("workers", (0, -1))
    def test_executor_workers_below_one_rejected(self, workers):
        # 0 used to mean "every CPU" and -1 failed every fan-out unit.
        with pytest.raises(ValueError, match=f"executor_workers .* got {workers}"):
            PipelineConfig(executor="thread", executor_workers=workers)
        assert PipelineConfig(executor="thread").executor_workers is None

    @pytest.mark.parametrize("value", (0, -1))
    @pytest.mark.parametrize(
        "field",
        ("mpi_nodes_per_job", "contrail_nodes_per_job", "max_nodes", "min_count"),
    )
    def test_counts_below_one_rejected_when_built(self, field, value):
        # Each used to fail late, elsewhere or not at all: a
        # ZeroDivisionError in the planner (contrail), an error naming
        # n_nodes (mpi), a silent one-node plan (max_nodes), and only
        # AssemblyParams (min_count).
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
            PipelineConfig(assemblers=("contrail",), **{field: value})
        if field != "min_count":
            with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
                plan_assembly(
                    B_GLUMAE, (31,), ("ray", "contrail"), "c3.2xlarge",
                    **{field: value},
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

    def test_contrail_fails_on_reads_with_n(self, ds_single):
        """Paper, Fig. 3: Contrail fails outright on raw reads with N, so a
        run whose QC keeps them fails at its Contrail job."""
        config = PipelineConfig(
            assemblers=("contrail",),
            kmer_list=(35,),
            contrail_nodes_per_job=4,
            preprocess_params=PreprocessParams(drop_n=False),
        )
        with pytest.raises(PipelineError, match=r"contrail_k35.*reads contain N"):
            RnnotatorPipeline().run(ds_single, config)

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
        "checkpoint_dir": "/tmp/ck",
        "unit_max_restarts": 2,
    }

    def test_every_field_is_classified_once(self):
        names = [f.name for f in dataclasses.fields(PipelineConfig)]
        classified = [*self.RESULT_DETERMINING, *self.EXECUTION_MECHANICS]
        assert sorted(classified) == sorted(names)
        assert len(names) == 15

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

    @pytest.mark.parametrize(
        "spelling",
        (
            dict(kmer_list=[25, 31]),
            dict(kmer_list=(np.int64(25), np.int32(31))),
            dict(kmer_list=(25, 31), assemblers=["ray"]),
        ),
    )
    def test_one_run_has_one_fingerprint_however_it_is_spelled(self, spelling):
        config = PipelineConfig(**{"kmer_list": (25, 31), **spelling})
        assert config.fingerprint() == "e7a2f67f894b380e"  # the tuple's
        assert config.assemblers == ("ray",) and config.kmer_list == (25, 31)
        assert [type(k) for k in config.kmer_list] == [int, int]

    @pytest.mark.parametrize(
        "bad, message",
        (
            (dict(kmer_list=()), "non-empty"),
            (dict(kmer_list=(25, 25)), "duplicate ks"),
            (dict(kmer_list=(64,)), "3 <= k <= 63, got 64"),
            (dict(kmer_list=(0,)), "3 <= k <= 63, got 0"),
            (dict(assemblers=("nope",)), r"unknown assemblers \['nope'\]"),
            (dict(assemblers=("ray", "ray")), "duplicate assemblers"),
        ),
    )
    def test_a_run_that_would_fail_after_qc_is_refused_when_built(
        self, bad, message
    ):
        # Each used to pass here and fail after pre-processing: a
        # duplicate assembly result, the packed k range, a KeyError.
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**bad)
