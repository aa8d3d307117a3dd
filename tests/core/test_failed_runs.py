"""A run that does not finish still closes: its trace alone names the
stage, the unit and the cause, its ``pipeline`` root carries the
outcome, every pilot ends in a final state, and its fleet is released,
so the bill covers every VM.

Three drills: a spot reclaim with no restart budget left, the static
workflow's undersized pre-processing pilot (Table IV's X) and the fault
plan's kill.  A fourth test checks the span tree of a run that succeeds:
every span opened inside a stage hangs under that stage, and the live
stream saw the run and each stage open.
"""

import io
import json

import pytest

from repro.core import rnnotator
from repro.core.assembly_cache import use_assembly_cache
from repro.core.rnnotator import (
    STAGE_NAMES,
    FaultPlan,
    PipelineConfig,
    PipelineError,
    PipelineKilled,
    RnnotatorPipeline,
)
from repro.core.workflow import WorkflowPattern
from repro.obs import Tracer, TraceSink
from repro.obs.__main__ import main as obs_main
from repro.obs.monitor import follow
from repro.obs.report import outcome_lines
from repro.obs.spans import FINAL_STATES, replay


class Regions(rnnotator.EC2Region):
    """The run's region, kept for the test to audit after the run."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        Regions.made.append(self)


def run_traced(monkeypatch, dataset, config, faults=FaultPlan(), error=None):
    """Run once under a fresh tracer; returns (fold of the trace, the
    region the run used, the raised error or None)."""
    monkeypatch.setattr(rnnotator, "EC2Region", Regions)
    Regions.made = []
    tracer = Tracer()
    raised = None
    with use_assembly_cache(None):
        try:
            RnnotatorPipeline(tracer=tracer, faults=faults).run(dataset, config)
        except PipelineError as exc:
            raised = exc
    if error is not None:
        assert isinstance(raised, error)
    (region,) = Regions.made
    return replay(tracer.records()), region, raised


def failed_stages(state) -> list[str]:
    return [
        s["attrs"]["stage"]
        for s in state.stage_spans()
        if s["attrs"].get("outcome") == "failed"
    ]


def assert_every_pilot_final(state):
    """Each pilot's last ``pilot.state`` move enters a final state."""
    last = {
        e["process"]: e["attrs"]["new"]
        for e in state.events if e["name"] == "pilot.state"
    }
    assert last and set(last.values()) <= FINAL_STATES, last


def assert_billed_in_full(state, region):
    """No VM left running, and every VM the run started is billed."""
    assert region.running() == []
    started = {
        vm for s in state.spans if s["name"] == "vm.provision"
        for vm in s["attrs"]["vm_ids"]
    }
    billed = {s["thread"] for s in state.billing}
    assert started and billed == started
    assert state.pipeline["attrs"]["total_cost_usd"] == region.total_cost


class TestExhaustedPreemptionBudget:
    @pytest.fixture(scope="class")
    def failed(self, ds_single):
        with pytest.MonkeyPatch.context() as mp:
            return run_traced(
                mp,
                ds_single,
                PipelineConfig(kmer_list=(35, 41), unit_max_restarts=0),
                FaultPlan(preempt_at=(1.0,)),
                error=PipelineError,
            )

    def test_root_closes_failed_with_the_error(self, failed):
        state, _, exc = failed
        assert state.outcome == "failed"
        assert state.pipeline["attrs"]["error"] == str(exc)

    def test_trace_names_stage_unit_and_cause(self, failed):
        state, _, _ = failed
        assert failed_stages(state) == ["transcript-assembly"]
        (unit,) = [e for e in state.events if e["name"] == "unit.failed_permanently"]
        assert unit["attrs"]["unit"] == "ray_k41"
        text = "\n".join(outcome_lines(state))
        assert "unit ray_k41 failed for good: preempted: node i-000001 lost" in text
        assert "<- sge job" in text
        assert "<- vm.preempt i-000001" in text

    def test_fleet_released_and_billed(self, failed):
        state, region, _ = failed
        assert_billed_in_full(state, region)

    def test_no_pilot_left_active(self, failed):
        assert_every_pilot_final(failed[0])

    def test_report_and_monitor_exit_1_and_follow_returns(
        self, failed, tmp_path, capsys
    ):
        state, _, _ = failed
        path = tmp_path / "failed.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in state.spans + state.events))
        assert obs_main(["report", str(path)]) == 1
        assert capsys.readouterr().out.startswith("run: pipeline — FAILED")
        assert obs_main(["monitor", str(path)]) == 1
        out = io.StringIO()
        assert follow(path, poll=0.01, timeout=2.0, out=out) == 1
        assert "timeout" not in out.getvalue()
        assert "run: pipeline — FAILED" in out.getvalue()


class TestStaticWorkflowOOM:
    @pytest.fixture(scope="class")
    def failed(self, ds_paired):
        with pytest.MonkeyPatch.context() as mp:
            return run_traced(
                mp,
                ds_paired,
                PipelineConfig(
                    assemblers=("ray",), kmer_list=(51,),
                    workflow=WorkflowPattern.DISTRIBUTED_STATIC,
                    instance_type="c3.2xlarge",
                ),
                error=PipelineError,
            )

    def test_trace_names_stage_unit_and_cause(self, failed):
        state, _, _ = failed
        assert state.outcome == "failed"
        assert failed_stages(state) == ["pre-processing"]
        error = state.pipeline["attrs"]["error"]
        assert "unit 'preprocess' fits no pilot" in error
        assert "GiB/node on c3.2xlarge" in error
        units = {v.name: v.state for v in state.units.values()}
        assert units == {"preprocess": "FAILED"}

    def test_unit_recorded_as_failed_for_good(self, failed):
        state, _, _ = failed
        (unit,) = [e for e in state.events if e["name"] == "unit.failed_permanently"]
        assert unit["attrs"]["unit"] == "preprocess"
        text = "\n".join(outcome_lines(state))
        assert "unit preprocess failed for good: unit 'preprocess' fits no pilot" in text

    def test_fleet_released_and_billed(self, failed):
        state, region, _ = failed
        assert_billed_in_full(state, region)

    def test_no_pilot_left_active(self, failed):
        assert_every_pilot_final(failed[0])


class TestAbortAfterStage:
    @pytest.fixture(scope="class")
    def killed(self, ds_single):
        with pytest.MonkeyPatch.context() as mp:
            return run_traced(
                mp,
                ds_single,
                PipelineConfig(kmer_list=(35, 41)),
                FaultPlan(abort_after_stage="transcript-assembly"),
                error=PipelineKilled,
            )

    def test_trace_names_stage_and_cause(self, killed):
        state, _, _ = killed
        assert state.outcome == "killed"
        # The named stage completed; the kill came after it.
        stages = state.stage_spans()
        assert [s["attrs"]["stage"] for s in stages] == list(STAGE_NAMES[:3])
        assert {s["attrs"]["outcome"] for s in stages} == {"done"}
        error = state.pipeline["attrs"]["error"]
        assert "simulated kill after stage 'transcript-assembly'" in error
        # No unit failed: every unit the run started is DONE.
        assert {v.state for v in state.units.values()} == {"DONE"}
        assert outcome_lines(state)[1] == f"  {error}"

    def test_fleet_released_and_billed(self, killed):
        state, region, _ = killed
        assert_billed_in_full(state, region)

    def test_no_pilot_left_active(self, killed):
        assert_every_pilot_final(killed[0])


class Opened(TraceSink):
    def __init__(self):
        self.names = []

    def emit(self, record):
        if record["type"] == "span_open":
            self.names.append(record["name"])


def test_every_span_opened_in_a_stage_hangs_under_it(ds_single):
    tracer = Tracer()
    opened = tracer.add_sink(Opened())
    with use_assembly_cache(None):
        RnnotatorPipeline(tracer=tracer).run(
            ds_single, PipelineConfig(kmer_list=(35, 41))
        )
    state = replay(tracer.records())
    assert state.outcome == "done"
    by_id = {s["id"]: s for s in state.spans}

    def ancestors(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            yield span["id"]

    stages = state.stage_spans()
    assert [s["attrs"]["stage"] for s in stages] == list(STAGE_NAMES)
    inside = 0
    for stage in stages:
        assert stage["parent"] == state.pipeline["id"]
        for span in state.spans:
            if span is not stage and stage["r0"] <= span["r0"] <= stage["r1"]:
                assert stage["id"] in ancestors(span), span["name"]
                inside += 1
    assert inside > 10
    # What a stage records stays on the driver's track, not its pilot's.
    fired = {(e["process"], e["thread"]) for e in state.events if e["name"] == "eq.fire"}
    assert fired == {("main", "main")}
    assert opened.names[0] == "pipeline"
    assert [n for n in opened.names if n.startswith("stage:")] == [
        f"stage:{name}" for name in STAGE_NAMES
    ]
