"""Tests for the trace-diff CLI and its building blocks."""

from repro.cloud.clock import SimClock
from repro.obs import Tracer, write_jsonl
from repro.obs.__main__ import main
from repro.obs.diff import diff_traces


def make_trace(assembly_ttc=4000.0, extra_span=False, units_done=5):
    clock = SimClock()
    tr = Tracer(clock)
    with tr.span("stage:pre-processing", category="stage",
                 stage="pre-processing"):
        clock.advance(100.0)
    with tr.span("stage:transcript-assembly", category="stage",
                 stage="transcript-assembly"):
        clock.advance(assembly_ttc)
    if extra_span:
        with tr.span("stage:mystery", category="stage", stage="mystery"):
            clock.advance(1.0)
    tr.count("units_done", units_done)
    tr.gauge("vms_running", 4)
    tr.observe("workload_wall_seconds", 0.5)
    return tr


def records_of(tracer):
    return tracer.records() + [
        {"type": "metrics", "data": tracer.metrics.snapshot()}
    ]


class TestDiffTraces:
    def test_identical_traces_have_zero_drift(self):
        a = records_of(make_trace())
        diff = diff_traces(a, list(a))
        assert diff.total_v_rel == 0.0
        assert all(d.v_rel == 0.0 for d in diff.stages)
        assert diff.new_names == [] and diff.missing_names == []
        assert diff.metric_deltas == []
        assert diff.threshold_violations() == []
        assert diff.structural_violations() == []

    def test_virtual_drift_detected_and_gated(self):
        a = records_of(make_trace(assembly_ttc=4000.0))
        b = records_of(make_trace(assembly_ttc=4400.0))
        diff = diff_traces(a, b)
        stage = next(
            d for d in diff.stages if d.stage == "transcript-assembly"
        )
        assert stage.v_rel > 0.09
        assert diff.threshold_violations(v_rel=0.0)
        assert not diff.threshold_violations(v_rel=0.2)

    def test_new_and_missing_spans(self):
        a = records_of(make_trace())
        b = records_of(make_trace(extra_span=True))
        diff = diff_traces(a, b)
        assert ("span", "stage", "stage:mystery") in diff.new_names
        assert diff.structural_violations()  # structural change gates
        assert not diff.threshold_violations(v_rel=1.0)
        back = diff_traces(b, a)
        assert ("span", "stage", "stage:mystery") in back.missing_names

    def test_metric_drift_gating_opt_in(self):
        a = records_of(make_trace(units_done=5))
        b = records_of(make_trace(units_done=6))
        diff = diff_traces(a, b)
        assert any(m.name == "units_done" for m in diff.metric_deltas)
        assert not diff.threshold_violations(v_rel=0.0)  # report-only
        assert diff.threshold_violations(v_rel=0.0, metric_rel=0.1)

    def test_vanished_metric_is_infinite_drift(self):
        a = records_of(make_trace())
        b = [r for r in a if r.get("type") != "metrics"] + [
            {"type": "metrics",
             "data": {"counters": {}, "gauges": {}, "histograms": {}}}
        ]
        diff = diff_traces(a, b)
        assert all(m.rel == float("inf") for m in diff.metric_deltas)
        assert diff.threshold_violations(metric_rel=1000.0)

    def test_histograms_report_only(self):
        a = records_of(make_trace())
        clock_b = make_trace()
        clock_b.observe("workload_wall_seconds", 99.0)
        diff = diff_traces(a, records_of(clock_b))
        assert diff.histogram_notes
        assert not diff.threshold_violations(metric_rel=0.0)


class TestCli:
    def test_identical_seed_traces_exit_zero(self, tmp_path, capsys):
        a = write_jsonl(make_trace(), tmp_path / "a.jsonl")
        b = write_jsonl(make_trace(), tmp_path / "b.jsonl")
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "+0.00% drift" in out
        assert "OK: within thresholds" in out

    def test_drifted_trace_exits_one(self, tmp_path, capsys):
        a = write_jsonl(make_trace(4000.0), tmp_path / "a.jsonl")
        b = write_jsonl(make_trace(4400.0), tmp_path / "b.jsonl")
        assert main(["diff", str(a), str(b)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_loose_thresholds_pass(self, tmp_path):
        a = write_jsonl(make_trace(4000.0, units_done=5), tmp_path / "a.jsonl")
        b = write_jsonl(make_trace(4040.0, units_done=5), tmp_path / "b.jsonl")
        assert main(["diff", str(a), str(b), "--v-rel", "0.05",
                     "--metric-rel", "0.5"]) == 0

    def test_structural_violations_exit_two(self, tmp_path):
        a = write_jsonl(make_trace(), tmp_path / "a.jsonl")
        b = write_jsonl(make_trace(extra_span=True), tmp_path / "b.jsonl")
        assert main(["diff", str(a), str(b), "--v-rel", "1.0"]) == 2
        assert main(["diff", str(a), str(b), "--v-rel", "1.0",
                     "--ignore-structure"]) == 0

    def test_structure_trumps_threshold_exit_code(self, tmp_path):
        a = write_jsonl(make_trace(4000.0), tmp_path / "a.jsonl")
        b = write_jsonl(
            make_trace(4400.0, extra_span=True), tmp_path / "b.jsonl"
        )
        # Both kinds of violation present: structure (2) wins, and with
        # structure ignored the drift still fails with 1.
        assert main(["diff", str(a), str(b)]) == 2
        assert main(["diff", str(a), str(b), "--ignore-structure"]) == 1

    def test_json_output_mode(self, tmp_path, capsys):
        import json as jsonlib

        a = write_jsonl(make_trace(4000.0), tmp_path / "a.jsonl")
        b = write_jsonl(
            make_trace(4400.0, extra_span=True), tmp_path / "b.jsonl"
        )
        assert main(["diff", str(a), str(b), "--json"]) == 2
        payload = jsonlib.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2
        assert payload["structural_violations"]
        assert payload["threshold_violations"]
        assert any(
            d["stage"] == "transcript-assembly" and d["v_rel"] > 0.09
            for d in payload["stages"]
        )

    def test_module_is_runnable(self):
        # ``python -m repro.obs diff`` is the one way in: the module
        # itself has no entry point to run and check nothing.
        import repro.obs.diff as mod

        assert callable(main) and not hasattr(mod, "main")
