"""Tracing must observe the run, never perturb it.

Runs the quickstart-scale pipeline twice — default (NullTracer) and with
a real tracer injected — and asserts every virtual quantity is
bit-identical; then cross-checks the trace itself: per-stage virtual
TTCs recovered by the report module equal the pipeline's ``StageReport``
values exactly, and the archived JSONL is well-formed on both clocks.
"""

import pytest

from repro.core.assembly_cache import AssemblyCache, use_assembly_cache
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.obs import Tracer, load_jsonl, use_tracer, write_jsonl
from repro.obs.report import build_report, stage_ttcs

CONFIG = dict(assemblers=("ray",), kmer_list=(35, 41))


@pytest.fixture(scope="module")
def traced(ds_single):
    """A cold traced run: a fresh run cache, so every layer computes
    (and records) whatever earlier tests left in the process-wide one."""
    tracer = Tracer()
    with use_assembly_cache(AssemblyCache()):
        result = RnnotatorPipeline(tracer=tracer).run(
            ds_single, PipelineConfig(**CONFIG)
        )
    return result, tracer


@pytest.fixture(scope="module")
def untraced(ds_single):
    return RnnotatorPipeline().run(ds_single, PipelineConfig(**CONFIG))


class TestParity:
    def test_contigs_identical(self, traced, untraced):
        traced_result, _ = traced
        assert [t.seq for t in traced_result.transcripts] == [
            t.seq for t in untraced.transcripts
        ]

    def test_stage_ttcs_identical(self, traced, untraced):
        traced_result, _ = traced
        assert [
            (s.name, s.started_at, s.finished_at) for s in traced_result.stages
        ] == [(s.name, s.started_at, s.finished_at) for s in untraced.stages]

    def test_totals_identical(self, traced, untraced):
        traced_result, _ = traced
        assert traced_result.total_ttc == untraced.total_ttc
        assert traced_result.total_cost == untraced.total_cost
        assert traced_result.transfer_seconds == untraced.transfer_seconds

    def test_usage_identical(self, traced, untraced):
        traced_result, _ = traced
        for key in traced_result.assemblies:
            a = traced_result.assemblies[key]
            b = untraced.assemblies[key]
            assert a.usage.phases == b.usage.phases
            assert (
                a.usage.peak_rank_memory_bytes == b.usage.peak_rank_memory_bytes
            )

    def test_quantification_identical(self, traced, untraced):
        traced_result, _ = traced
        assert (
            traced_result.quantification.assigned_reads
            == untraced.quantification.assigned_reads
        )

    def test_tracer_restored_after_run(self, traced):
        from repro.obs import NullTracer, get_tracer

        assert isinstance(get_tracer(), NullTracer)


class TestTraceContent:
    def test_report_stage_ttcs_equal_stage_reports_exactly(self, traced):
        result, tracer = traced
        from_trace = stage_ttcs(tracer.records())
        from_reports = {s.name: s.ttc for s in result.stages}
        assert from_trace == from_reports  # exact float equality

    def test_expected_layers_recorded(self, traced):
        _, tracer = traced
        span_cats = {s.category for s in tracer.spans}
        event_names = {e.name for e in tracer.events}
        assert {"stage", "pipeline", "cloud", "unit", "agent"} <= span_cats
        assert {"pilot.state", "unit.state", "schedule.place", "eq.fire",
                "phase", "executor.dispatch"} <= event_names

    def test_pilot_tracks_present(self, traced):
        result, tracer = traced
        processes = {s.process for s in tracer.spans}
        for stage in result.stages:
            if stage.pilot != "-":
                assert stage.pilot in processes

    def test_metrics_counted(self, traced):
        result, tracer = traced
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["units_done"] == len(result.stages) - 1 + 1
        assert snap["counters"]["vms_launched"] >= 1
        assert snap["counters"]["billed_usd"] == pytest.approx(
            result.total_cost
        )

    def test_chrome_trace_loadable(self, traced, tmp_path):
        _, tracer = traced
        records = load_jsonl(write_jsonl(tracer, tmp_path / "run.jsonl"))
        assert any(r["type"] == "span" for r in records)
        for r in records[:-1]:
            # every span/event names its track; no span runs backwards
            assert {"name", "process", "thread"} <= set(r)
            if r["type"] == "span":
                assert r["r1"] >= r["r0"]
                assert r["v0"] is None or r["v1"] >= r["v0"]

    def test_jsonl_roundtrip_and_report_renders(self, traced, tmp_path):
        result, tracer = traced
        path = write_jsonl(tracer, tmp_path / "run.jsonl")
        records = load_jsonl(path)
        report = build_report(records)
        assert "per-stage timings" in report
        assert "transcript-assembly" in report
        # the report quotes the same TTCs the pipeline reports
        assert stage_ttcs(records) == {s.name: s.ttc for s in result.stages}


@pytest.fixture(scope="module")
def live_traced(ds_single, tmp_path_factory):
    """The same run with the full live stack attached: a collector sink,
    a streaming JSONL sink, heartbeats and an armed rules engine."""
    from repro.obs.live import CollectorSink, JsonlStreamSink

    tracer = Tracer(
        heartbeat_cadence=0.02, alert_rules=("straggler", "budget_burn:10")
    )
    collector = tracer.add_sink(CollectorSink())
    stream_path = tmp_path_factory.mktemp("live") / "live.jsonl"
    sink = tracer.add_sink(JsonlStreamSink(stream_path, tracer=tracer))
    pipeline = RnnotatorPipeline(tracer=tracer)
    result = pipeline.run(ds_single, PipelineConfig(**CONFIG))
    sink.close()
    return result, tracer, collector, stream_path, pipeline


class TestStreamingParity:
    """Attaching live telemetry must not perturb a single virtual bit."""

    def test_contigs_identical_with_live_sinks(self, live_traced, untraced):
        result, *_ = live_traced
        assert [t.seq for t in result.transcripts] == [
            t.seq for t in untraced.transcripts
        ]

    def test_totals_identical_with_live_sinks(self, live_traced, untraced):
        result, *_ = live_traced
        assert result.total_ttc == untraced.total_ttc
        assert result.total_cost == untraced.total_cost

    def test_stage_ttcs_identical_with_live_sinks(self, live_traced, untraced):
        result, *_ = live_traced
        assert [
            (s.name, s.started_at, s.finished_at) for s in result.stages
        ] == [(s.name, s.started_at, s.finished_at) for s in untraced.stages]

    def test_usage_identical_with_live_sinks(self, live_traced, untraced):
        result, *_ = live_traced
        for key in result.assemblies:
            assert (
                result.assemblies[key].usage.phases
                == untraced.assemblies[key].usage.phases
            )

    def test_stream_carries_every_archival_record(self, live_traced):
        _, tracer, collector, _, _ = live_traced
        streamed_spans = [
            r for r in collector.records if r["type"] == "span"
        ]
        streamed_events = [
            r for r in collector.records if r["type"] == "event"
        ]
        # every archived span/event (worker merges included) streamed
        assert len(streamed_spans) == len(tracer.spans)
        assert len(streamed_events) == len(tracer.events)
        assert {r["process"] for r in streamed_spans} == {
            s.process for s in tracer.spans
        }

    def test_heartbeats_streamed(self, live_traced):
        _, tracer, collector, _, _ = live_traced
        beats = [
            r
            for r in collector.records
            if r["type"] == "event" and r["name"] == "unit.heartbeat"
        ]
        assert beats, "no heartbeat reached the stream"
        assert all(r["attrs"]["elapsed_r"] >= 0 for r in beats)

    def test_monitor_live_equals_posthoc(self, live_traced, tmp_path):
        from repro.obs.monitor import final_summary
        from repro.obs.spans import replay

        _, tracer, _, stream_path, _ = live_traced
        stream_records = load_jsonl(stream_path)
        archive_path = write_jsonl(tracer, tmp_path / "archive.jsonl")
        archive_records = load_jsonl(archive_path)
        live_view = final_summary(replay(stream_records))
        posthoc_view = final_summary(replay(archive_records))
        assert "COMPLETE" in live_view
        assert live_view == posthoc_view  # byte-for-byte

    def test_pipeline_span_carries_alert_summary(self, live_traced):
        from repro.obs.spans import replay

        _, tracer, _, _, _ = live_traced
        attrs = replay(tracer.records()).pipeline["attrs"]
        assert attrs["alerts_total"] == (
            attrs["alerts_critical"]
            + attrs["alerts_warning"]
            + attrs["alerts_info"]
        )

    def test_last_alerts_exposed_on_pipeline(self, live_traced):
        *_, pipeline = live_traced
        # a healthy quickstart run trips neither straggler nor a 10x
        # budget blowout — but the engine ran and recorded that fact
        assert pipeline.last_alerts == []

    def test_last_alerts_reset_by_a_run_without_rules(self, ds_single):
        """Rules then none on one pipeline: the second run's (empty)
        alert list replaces the first's firings."""
        pipeline = RnnotatorPipeline()
        config = PipelineConfig(**CONFIG)
        with use_tracer(Tracer(alert_rules=("stage_duration:*:1",))):
            pipeline.run(ds_single, config)
        assert {a.rule for a in pipeline.last_alerts} == {"stage_duration"}
        pipeline.run(ds_single, config)
        assert pipeline.last_alerts == []


class TestTraceAnalytics:
    """The analytics layer closed against a real pipeline run."""

    def test_critical_path_total_equals_pipeline_ttc_exactly(self, traced):
        from repro.obs import compute_critical_path

        result, tracer = traced
        path = compute_critical_path(tracer.records())
        assert path.total == result.total_ttc  # bit-for-bit

    def test_attribution_total_equals_billed_cost(self, traced):
        import pytest as _pytest

        from repro.obs import attribute_costs

        result, tracer = traced
        attr = attribute_costs(tracer.records())
        assert attr.total_usd == _pytest.approx(result.total_cost)
        assert sum(attr.by_bucket.values()) == _pytest.approx(
            result.total_cost
        )
        assert attr.billed_usd == _pytest.approx(result.total_cost)

    def test_planner_gate_passes_on_real_run(self, traced):
        from repro.obs.attribution import planner_violations

        _, tracer = traced
        structural, gates = planner_violations(tracer.records())
        assert structural == []
        assert gates and all(g.ok for g in gates)

    def test_ledger_record_from_real_run(self, traced):
        from repro.obs import build_record

        result, tracer = traced
        rec = build_record(tracer.records(), run_id="parity")
        assert rec["ttc_s"] == result.total_ttc
        assert rec["critical_path"]["total_virtual_s"] == result.total_ttc
        assert rec["config_fingerprint"]
        assert rec["store_digest"]
        assert rec["planner"]["ttc_s"]["rel_err"] <= 0.10

    def test_pipeline_span_carries_prediction_and_fingerprint(self, traced):
        from repro.obs.spans import replay

        _, tracer = traced
        root = replay(tracer.records()).pipeline
        attrs = root["attrs"]
        assert attrs["planner_ttc_s"] > 0
        assert attrs["planner_cost_usd"] > 0
        assert len(attrs["config_fingerprint"]) == 16
        assert attrs["planner_stages"]


@pytest.fixture(scope="module")
def two_runs(ds_single):
    """One tracer over two ``run()`` calls of different configs: ray+abyss
    over four ks, then :data:`CONFIG`.  A collector
    sink keeps the live stream next to the tracer's archive."""
    from repro.obs.live import CollectorSink

    tracer = Tracer()
    collector = tracer.add_sink(CollectorSink())
    pipeline = RnnotatorPipeline(tracer=tracer)
    pipeline.run(
        ds_single,
        PipelineConfig(assemblers=("ray", "abyss"), kmer_list=(25, 31, 35, 41)),
    )
    last = pipeline.run(ds_single, PipelineConfig(**CONFIG))
    return last, tracer, collector


class TestMultiRunScoping:
    """Every analysis of a multi-run trace reads its last run only."""

    def test_cost_attribution_is_the_last_runs(self, two_runs):
        from repro.obs import attribute_costs

        last, tracer, _ = two_runs
        attr = attribute_costs(tracer.records())
        assert attr.total_usd == pytest.approx(last.total_cost)
        assert sum(attr.by_bucket.values()) == pytest.approx(last.total_cost)
        assert attr.billed_usd == pytest.approx(last.total_cost)

    def test_ledger_and_planner_gate_cost_is_the_last_runs(self, two_runs):
        from repro.obs import build_record
        from repro.obs.attribution import planner_violations

        last, tracer, _ = two_runs
        record = build_record(tracer.records())
        assert record["cost"]["total_usd"] == pytest.approx(last.total_cost)
        _, gates = planner_violations(tracer.records())
        cost = next(g for g in gates if g.name == "cost_usd")
        assert cost.actual == pytest.approx(last.total_cost)
        assert record["planner"]["cost_usd"]["actual"] == cost.actual

    def test_report_stages_are_the_last_runs(self, two_runs):
        from repro.obs.report import report_data

        last, tracer, _ = two_runs
        stages = report_data(tracer.records())["stages"]
        assert {name: s["virtual_s"] for name, s in stages.items()} == {
            s.name: s.ttc for s in last.stages
        }

    def test_monitor_counts_only_the_last_runs_units(self, two_runs, traced):
        from repro.obs.spans import replay

        _, tracer, _ = two_runs
        _, single_run_tracer = traced  # the same config, on its own
        assert (
            replay(tracer.records()).unit_counts()
            == replay(single_run_tracer.records()).unit_counts()
        )

    def test_live_stream_and_archive_render_the_same(self, two_runs):
        from repro.obs.monitor import final_summary
        from repro.obs.spans import replay

        _, tracer, collector = two_runs
        live = final_summary(replay(collector.records))
        archive = final_summary(replay(tracer.records()))
        assert "COMPLETE" in live
        assert live == archive
