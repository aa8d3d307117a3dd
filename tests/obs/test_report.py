"""Tests for the run-report CLI and its building blocks."""

import json
from pathlib import Path

import pytest

from repro.cloud.clock import SimClock
from repro.obs import Tracer, write_jsonl
from repro.obs.__main__ import main
from repro.obs.report import (
    alerts_section,
    build_report,
    cache_scorecard,
    hottest_phases,
    process_timelines,
    report_data,
    stage_table,
    stage_ttcs,
    virtual_vs_real,
)
from repro.obs.spans import replay


def make_records() -> list[dict]:
    clock = SimClock()
    tr = Tracer(clock)
    with tr.span(
        "stage:pre-processing", category="stage", process="pilot.0",
        stage="pre-processing", pilot="pilot.0", n_nodes=1,
        instance_type="c3.2xlarge",
    ):
        clock.advance(123.25)
    with tr.span(
        "stage:transcript-assembly", category="stage", process="pilot.1",
        stage="transcript-assembly", pilot="pilot.1", n_nodes=4,
        instance_type="r3.2xlarge",
    ):
        clock.advance(4000.0)
    tr.event(
        "phase", category="phase", phase="kmer-count", kind="kmer",
        critical_compute=5000.0, comm_bytes=123456,
    )
    tr.event(
        "phase", category="phase", phase="walk", kind="graph",
        critical_compute=100.0, comm_bytes=0,
    )
    tr.count("units_done", 5)
    return tr.records()


class TestSections:
    def test_stage_ttcs_exact(self):
        ttcs = stage_ttcs(make_records())
        assert ttcs == {
            "pre-processing": 123.25,
            "transcript-assembly": 4000.0,
        }

    def test_stage_table(self):
        pre, asm = stage_table(make_records())
        assert (pre["stage"], pre["virtual s"]) == ("pre-processing", 123.25)
        assert asm["placement"] == "pilot.1 (4 x r3.2xlarge)"
        assert asm["unit p50"] is None  # no unit execution spans

    def test_process_timelines(self):
        text = process_timelines(make_records())
        assert "pilot.0" in text and "pilot.1" in text
        assert "#" in text

    def test_virtual_vs_real(self):
        [row] = virtual_vs_real(make_records())
        assert row["category"] == "stage" and row["virtual_s"] == 4123.25

    def test_hottest_phases_ordered_by_critical_compute(self):
        rows = hottest_phases(make_records(), top=10)
        assert [r["phase"] for r in rows] == ["kmer-count", "walk"]
        assert rows[0]["comm MB"] == 0.123456

    def test_hottest_phases_respects_top(self):
        assert [r["phase"] for r in hottest_phases(make_records(), top=1)] == [
            "kmer-count"
        ]

    def test_build_report_composes_sections(self):
        report = build_report(make_records())
        for needle in (
            "per-stage timings", "virtual timelines",
            "virtual vs real", "hottest phases", "trace:",
        ):
            assert needle in report

    def test_empty_records(self):
        assert stage_ttcs([]) == {}
        assert stage_table([]) == []
        assert process_timelines([]) == ""
        assert build_report([]) == "trace: 0 spans, 0 events"

    def test_cache_scorecard_mirrors_counters(self):
        counters = {
            "kmer_table.hit": 6, "kmer_table.miss": 2,
            "kmer_table.bytes": 1_234_567, "assembly_cache.hit": 3,
            "assembly_cache.miss": 5, "assembly_cache.put": 5,
        }
        records = [{"type": "metrics", "data": {"counters": counters}}]
        kmer, assembly = cache_scorecard(records)
        assert kmer == {"cache": "kmer table cache", "hits": 6, "misses": 2,
                        "hit rate": 0.75, "bytes cached": 1_234_567}
        assert assembly["puts"] == 5 and "bytes cached" not in assembly
        assert "  kmer table cache     6       2       75%" in build_report(
            records
        )

    def test_cache_scorecard_empty_without_counters(self):
        assert cache_scorecard([]) == []
        assert (
            cache_scorecard([{"type": "metrics", "data": {"counters": {}}}])
            == []
        )

    def test_cache_scorecard_stage_cache_row_only_with_its_counters(self):
        def trace(**counters):
            return [{"type": "metrics", "data": {"counters": counters}}]

        [row] = cache_scorecard(
            trace(**{"stage_cache.hit": 3, "stage_cache.miss": 1})
        )
        assert row == {"cache": "stage cache", "hits": 3, "misses": 1,
                       "hit rate": 0.75}
        rows = cache_scorecard(trace(**{"assembly_cache.hit": 2}))
        assert [r["cache"] for r in rows] == ["assembly cache"]

    def test_cache_scorecard_spectrum_build_row(self):
        records = [
            {
                "type": "span", "name": "spectrum.build", "cat": "spectrum",
                "process": "p", "thread": "t", "v0": 10.0, "v1": 10.0,
                "r0": 2.0, "r1": 2.5, "id": 1, "parent": None,
                "attrs": {"mode": "serial"},
            }
        ]
        assert cache_scorecard(records) == [{
            "cache": "spectrum build", "wall s": 0.5, "virtual s": 0.0,
            "mode": "serial",
        }]

    def test_cache_scorecard_skipped_spectrum_build_row(self):
        def skip(**attrs):
            return {
                "type": "event", "name": "spectrum.skip", "cat": "spectrum",
                "process": "p", "thread": "t", "v": 10.0, "r": 2.0,
                "attrs": {"ks": [25, 31], "jobs": 6, **attrs},
            }

        [row] = cache_scorecard([skip(jobs_satisfied=6, reason="jobs satisfied")])
        assert row["mode"] == "skipped (6/6 jobs cached)"
        [row] = cache_scorecard([skip(jobs_satisfied=0, reason="spectra cached")])
        assert row["mode"] == (
            "skipped (0/6 jobs cached, spectra served from the table cache)"
        )


def golden_records() -> list[dict]:
    """A fully hand-constructed trace: every timestamp (virtual *and*
    real) is a fixed literal, so the rendered report is byte-stable."""
    return [
        {
            "type": "span", "name": "stage:pre-processing", "cat": "stage",
            "process": "pilot.0", "thread": "main", "v0": 0.0, "v1": 123.25,
            "r0": 1.0, "r1": 1.5, "id": 1, "parent": None,
            "attrs": {"stage": "pre-processing", "pilot": "pilot.0",
                      "n_nodes": 1, "instance_type": "c3.2xlarge"},
        },
        {
            "type": "span", "name": "stage:transcript-assembly",
            "cat": "stage", "process": "pilot.1", "thread": "main",
            "v0": 123.25, "v1": 4123.25, "r0": 1.5, "r1": 3.25, "id": 2,
            "parent": None,
            "attrs": {"stage": "transcript-assembly", "pilot": "pilot.1",
                      "n_nodes": 4, "instance_type": "r3.2xlarge"},
        },
        {
            # A merged worker-side span: real clock only, per-pid track,
            # under the dispatch span that ran it (still open, so absent).
            "type": "span", "name": "workload", "cat": "worker",
            "process": "worker-4242", "thread": "u1", "v0": None,
            "v1": None, "r0": 1.6, "r1": 2.6, "id": 3, "parent": 5,
            "attrs": {"rss_bytes": 64000000, "cpu_seconds": 1.5},
        },
        {
            # The host-side spectrum build: real wall time, zero virtual
            # width (the scorecard's spectrum-build row feeds off this).
            "type": "span", "name": "spectrum.build", "cat": "spectrum",
            "process": "pilot.0", "thread": "main", "v0": 123.25,
            "v1": 123.25, "r0": 1.5, "r1": 1.75, "id": 4, "parent": None,
            "attrs": {"mode": "serial", "ks": [25, 31]},
        },
        {
            "type": "event", "name": "resource.sample", "cat": "resource",
            "process": "worker-4242", "thread": "u1", "v": None, "r": 1.7,
            "attrs": {"rss_bytes": 64000000, "cpu_seconds": 0.75},
        },
        {
            "type": "event", "name": "phase", "cat": "phase",
            "process": "pilot.1", "thread": "u1", "v": 200.0, "r": 1.8,
            "attrs": {"phase": "kmer-count", "kind": "kmer",
                      "critical_compute": 5000.0, "comm_bytes": 123456},
        },
        {
            # A live heartbeat: ignored by every report section except
            # the monitor's in-flight view.
            "type": "event", "name": "unit.heartbeat", "cat": "heartbeat",
            "process": "pilot.1", "thread": "u1", "v": 200.0, "r": 1.9,
            "attrs": {"unit": "ray_k41", "stage": "transcript-assembly",
                      "elapsed_r": 0.4, "inflight": 1},
        },
        {
            # A rules-engine firing: feeds the report's alert log.
            "type": "event", "name": "alert", "cat": "alert",
            "process": "main", "thread": "main", "v": 4123.25, "r": 3.0,
            "attrs": {"rule": "stage_duration", "severity": "critical",
                      "message": "stage transcript-assembly took 4000.0 "
                      "virtual s (SLO 3600 s)",
                      "stage": "transcript-assembly", "ttc_s": 4000.0,
                      "slo_s": 3600.0},
        },
        {
            "type": "metrics",
            "data": {
                "counters": {"units_done": 5, "worker_records_merged": 2},
                "gauges": {"vms_running": 4},
                "histograms": {
                    "workload_wall_seconds": {
                        "count": 2, "sum": 3.0, "mean": 1.5, "min": 1.0,
                        "max": 2.0, "p50": 1.0, "p95": 2.0,
                    }
                },
            },
        },
    ]


GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_report.txt"


class TestGoldenReport:
    def test_report_matches_golden(self):
        # Regenerated with the obs_cli pins: tests/obs/test_cli.py --regen
        assert build_report(golden_records()) + "\n" == GOLDEN_PATH.read_text()

    def test_golden_mentions_worker_artifacts(self):
        text = GOLDEN_PATH.read_text()
        assert "worker-4242" in text
        assert "worker_records_merged" in text

    def test_golden_mentions_alerts(self):
        text = GOLDEN_PATH.read_text()
        assert "alerts (1):" in text
        assert "  critical  stage_duration  stage transcript-assembly" in text


class TestAlertsSection:
    def test_renders_one_line_per_firing(self):
        [row] = alerts_section(golden_records())
        assert (row["severity"], row["rule"]) == ("critical", "stage_duration")
        assert row["message"].startswith("stage transcript-assembly took 4000.0")

    def test_empty_without_alert_events(self):
        assert alerts_section(make_records()) == []


class TestJsonReport:
    def test_report_data_round_trips_through_json(self):
        data = report_data(golden_records())
        assert json.loads(json.dumps(data)) == data

    def test_report_data_contents(self):
        data = report_data(golden_records())
        assert data["stages"]["pre-processing"]["virtual_s"] == 123.25
        assert data["stages"]["transcript-assembly"]["virtual_s"] == 4000.0
        assert data["counters"]["units_done"] == 5
        assert len(data["alerts"]) == 1
        assert data["alerts"][0]["rule"] == "stage_duration"
        assert data["hottest_phases"][0]["phase"] == "kmer-count"
        # worker span is nested (parent set): excluded from category totals
        assert "worker" not in data["categories"]

    def test_cli_json_round_trip(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in golden_records()) + "\n"
        )
        assert main(["report", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == report_data(golden_records())


class TestChromeWorkerTracks:
    """The worker-track facts a trace viewer relies on, checked on the
    fold of the golden records."""

    def test_real_clock_roundtrip_keeps_worker_tracks(self):
        clone = json.loads(json.dumps(golden_records()))  # JSON round-trip
        state = replay(clone)
        assert {s["process"] for s in state.spans} >= {"worker-4242", "pilot.0"}
        assert state.workers == {
            "worker-4242": {"workloads": 1, "busy_r": pytest.approx(1.0)}
        }
        [workload] = [s for s in state.spans if s["process"] == "worker-4242"]
        assert workload["name"] == "workload"
        assert (workload["r0"], workload["r1"]) == (1.6, 2.6)

    def test_resource_samples_become_counter_tracks(self):
        state = replay(golden_records())
        # endpoint attrs on the span are not samples; the event is
        [sample] = [e for e in state.events if e["cat"] == "resource"]
        assert sample["process"] == "worker-4242"
        assert sample["attrs"] == {"rss_bytes": 64000000, "cpu_seconds": 0.75}

    def test_virtual_clock_drops_worker_records(self):
        state = replay(golden_records())
        [workload] = [s for s in state.spans if s["process"] == "worker-4242"]
        assert workload["v0"] is None and workload["v1"] is None
        timelines = process_timelines(state)
        assert "workload" not in timelines
        assert "worker-4242" not in timelines


class TestCli:
    def test_main_renders_report(self, tmp_path, capsys):
        clock = SimClock()
        tr = Tracer(clock)
        with tr.span("stage:pre", category="stage", stage="pre"):
            clock.advance(10.0)
        trace = write_jsonl(tr, tmp_path / "trace.jsonl")
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-stage timings" in out

    def test_module_is_runnable(self):
        # ``python -m repro.obs report`` is the one way in: the module
        # itself has no entry point to run and check nothing.
        import repro.obs.report as mod

        assert callable(main) and not hasattr(mod, "main")
