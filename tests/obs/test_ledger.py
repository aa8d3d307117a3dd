"""Tests for the append-only run ledger and its regression gate."""

import json

import pytest

from repro.obs.ledger import (
    RunLedger,
    build_record,
    check_regressions,
    main,
)
from tests.obs.test_attribution import make_run_trace, write_trace


class TestBuildRecord:
    def test_distills_the_fixture_trace(self):
        rec = build_record(make_run_trace(), run_id="r1")
        assert rec["run_id"] == "r1"
        assert rec["dataset"] == "toy"
        assert rec["config_fingerprint"] == "cafe0123"
        assert rec["store_digest"] == "feed4567"
        assert rec["ttc_s"] == 100.0
        assert rec["stages"]["transcript-assembly"]["virtual_s"] == 70.0
        assert rec["cost"]["total_usd"] == pytest.approx(0.84)
        assert rec["cost"]["n_vms"] == 2

    def test_critical_path_summary_matches_ttc(self):
        rec = build_record(make_run_trace())
        assert rec["critical_path"]["total_virtual_s"] == rec["ttc_s"]

    def test_planner_block_present_when_predicted(self):
        rec = build_record(make_run_trace())
        assert rec["planner"]["ttc_s"]["predicted"] == 95.0
        assert rec["planner"]["ttc_s"]["actual"] == 100.0

    def test_skipped_spectrum_build_records_none(self):
        trace = make_run_trace() + [
            {"type": "event", "name": "spectrum.skip", "cat": "spectrum",
             "attrs": {"jobs": 6, "jobs_satisfied": 6}}
        ]
        assert build_record(trace)["spectrum_build_s"] is None

    def test_no_pipeline_span_raises(self):
        with pytest.raises(ValueError):
            build_record([])

    def test_record_is_deterministic(self):
        assert build_record(make_run_trace()) == build_record(
            make_run_trace()
        )


class TestRunLedger:
    def test_append_read_roundtrip(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        ledger.append({"a": 1})
        ledger.append({"b": 2})
        result = ledger.read()
        assert result.records == [{"a": 1}, {"b": 2}]
        assert result.skipped == 0

    def test_missing_file_reads_empty(self, tmp_path):
        result = RunLedger(str(tmp_path / "absent.jsonl")).read()
        assert result.records == [] and result.skipped == 0

    def test_torn_last_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(str(path))
        ledger.append({"ok": 1})
        # simulate a writer that died mid-append
        with open(path, "a") as fh:
            fh.write('{"torn": tru')
        result = ledger.read()
        assert result.records == [{"ok": 1}]
        assert result.skipped == 1

    def test_mid_file_corruption_keeps_later_records(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"a": 1}\ngarbage\n[1, 2]\n{"b": 2}\n')
        result = RunLedger(str(path)).read()
        assert result.records == [{"a": 1}, {"b": 2}]
        assert result.skipped == 2  # garbage + the non-dict line

    def test_creates_parent_directory(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "deep" / "runs.jsonl"))
        ledger.append({"a": 1})
        assert ledger.read().records == [{"a": 1}]


def ledger_rec(ttc=100.0, cost=0.84, fingerprint="cafe0123", **stages):
    return {
        "schema": 1,
        "dataset": "toy",
        "config_fingerprint": fingerprint,
        "ttc_s": ttc,
        "cost": {"total_usd": cost},
        "stages": {
            name: {"virtual_s": v} for name, v in stages.items()
        },
        "counters": {},
    }


class TestCheckRegressions:
    def test_empty_ledger_raises(self):
        with pytest.raises(ValueError):
            check_regressions([])

    def test_first_run_has_no_baseline(self):
        regressions, note = check_regressions([ledger_rec()])
        assert regressions == []
        assert "no comparable baseline" in note

    def test_within_tolerance_passes(self):
        records = [ledger_rec(100.0)] * 3 + [ledger_rec(104.0)]
        regressions, note = check_regressions(records, v_rel=0.05)
        assert regressions == []
        assert "3 comparable" in note

    def test_slowdown_beyond_tolerance_fails(self):
        records = [ledger_rec(100.0)] * 3 + [ledger_rec(110.0)]
        regressions, _ = check_regressions(records, v_rel=0.05)
        assert [r.quantity for r in regressions] == ["ttc_s"]
        assert regressions[0].rel_err == pytest.approx(0.10)

    def test_speedup_is_not_a_regression(self):
        records = [ledger_rec(100.0)] * 3 + [ledger_rec(50.0)]
        assert check_regressions(records, v_rel=0.05)[0] == []

    def test_median_baseline_shrugs_off_one_outlier(self):
        records = [
            ledger_rec(100.0), ledger_rec(500.0), ledger_rec(100.0),
            ledger_rec(104.0),
        ]
        assert check_regressions(records, v_rel=0.05)[0] == []

    def test_cost_gate(self):
        records = [ledger_rec(cost=1.0)] * 2 + [ledger_rec(cost=2.0)]
        regressions, _ = check_regressions(records, cost_rel=0.25)
        assert [r.quantity for r in regressions] == ["cost.total_usd"]

    def test_per_stage_gate(self):
        records = [ledger_rec(assembly=50.0)] * 2 + [
            ledger_rec(assembly=60.0)
        ]
        regressions, _ = check_regressions(records, v_rel=0.05)
        assert [r.quantity for r in regressions] == [
            "stages.assembly.virtual_s"
        ]

    def test_different_fingerprint_is_not_comparable(self):
        records = [ledger_rec(50.0, fingerprint="other")] * 3 + [
            ledger_rec(100.0)
        ]
        regressions, note = check_regressions(records, v_rel=0.05)
        assert regressions == []
        assert "no comparable baseline" in note

    def test_skipped_spectrum_build_is_neither_gated_nor_baseline(self):
        def rec(build_s):
            return {**ledger_rec(), "spectrum_build_s": build_s}

        # skipped after built: the latest run measured no build.
        built_then_skipped = [rec(0.2), rec(0.2), rec(None)]
        assert check_regressions(built_then_skipped, build_rel=0.1)[0] == []
        # built after skipped: the skipped runs stay out of the median
        # (as 0.0 they would drag it to 0 and fail any real build) ...
        skipped_then_built = [rec(0.2), rec(None), rec(None), rec(0.21)]
        assert check_regressions(skipped_then_built, build_rel=0.1)[0] == []
        # ... and the built baseline still gates a real slowdown.
        slow = [rec(0.2), rec(None), rec(None), rec(0.5)]
        regressions, _ = check_regressions(slow, build_rel=0.1)
        assert [r.quantity for r in regressions] == ["spectrum_build_s"]
        # An all-skipped baseline gates nothing.
        assert check_regressions([rec(None), rec(0.5)], build_rel=0.1)[0] == []

    def test_window_limits_the_baseline(self):
        # Old slow history beyond the window must not mask a regression
        # against the recent, faster, baseline.
        records = (
            [ledger_rec(200.0)] * 5
            + [ledger_rec(100.0)] * 5
            + [ledger_rec(110.0)]
        )
        regressions, _ = check_regressions(records, window=5, v_rel=0.05)
        assert [r.quantity for r in regressions] == ["ttc_s"]


class TestCli:
    def test_append_list_show_compare_check(self, tmp_path, capsys):
        trace = write_trace(tmp_path, make_run_trace())
        ledger = str(tmp_path / "runs.jsonl")
        assert main(["append", trace, "--ledger", ledger, "--run-id", "a"]) == 0
        assert main(["append", trace, "--ledger", ledger, "--run-id", "b"]) == 0
        capsys.readouterr()

        assert main(["list", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "run_id=a" in out and "run_id=b" in out

        assert main(["show", "--ledger", ledger, "--index", "-1"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == "b"

        assert main(["compare", "--ledger", ledger]) == 0
        assert "ttc_s" in capsys.readouterr().out

        # identical runs: gated and clean
        assert main(["check", "--ledger", ledger]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_check_exits_one_on_regression(self, tmp_path, capsys):
        ledger = str(tmp_path / "runs.jsonl")
        lg = RunLedger(ledger)
        lg.append(ledger_rec(100.0))
        lg.append(ledger_rec(100.0))
        lg.append(ledger_rec(150.0))
        assert main(["check", "--ledger", ledger, "--v-rel", "0.05"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_json(self, tmp_path, capsys):
        ledger = str(tmp_path / "runs.jsonl")
        lg = RunLedger(ledger)
        lg.append(ledger_rec(100.0))
        lg.append(ledger_rec(150.0))
        assert main(["check", "--ledger", ledger, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"][0]["quantity"] == "ttc_s"

    def test_check_empty_ledger_exits_two(self, tmp_path, capsys):
        assert main(["check", "--ledger", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_append_bad_trace_exits_two(self, tmp_path, capsys):
        trace = write_trace(tmp_path, [])
        code = main(
            ["append", str(trace), "--ledger", str(tmp_path / "l.jsonl")]
        )
        assert code == 2
        assert "pipeline span" in capsys.readouterr().err

    def test_list_notes_skipped_lines(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        RunLedger(str(path)).append(ledger_rec())
        with open(path, "a") as fh:
            fh.write('{"torn')
        assert main(["list", "--ledger", str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1" in captured.err

    def test_module_is_runnable(self):
        import repro.obs.ledger as mod

        assert callable(mod.main)
