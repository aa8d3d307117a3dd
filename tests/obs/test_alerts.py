"""The SLO/alert rules engine (repro.obs.alerts)."""

import pytest

from repro.obs import Tracer
from repro.obs.alerts import (
    Alert,
    AlertEngine,
    AlertRule,
    evaluate,
    parse_rule,
)


def span(name, cat, v0=0.0, v1=0.0, r0=0.0, r1=0.0, **attrs):
    return {
        "type": "span", "name": name, "cat": cat, "process": "main",
        "thread": "t", "v0": v0, "v1": v1, "r0": r0, "r1": r1,
        "id": 1, "parent": None, "attrs": attrs,
    }


def event(name, cat, r=0.0, **attrs):
    return {
        "type": "event", "name": name, "cat": cat, "process": "main",
        "thread": "t", "v": 0.0, "r": r, "attrs": attrs,
    }


class TestRuleParsing:
    def test_compact_specs(self):
        rule = parse_rule("stage_duration:transcript-*:5000:critical")
        assert rule == AlertRule(
            kind="stage_duration",
            target="transcript-*",
            threshold=5000.0,
            severity="critical",
        )
        assert parse_rule("budget_burn:1.25").threshold == 1.25
        assert parse_rule("heartbeat_timeout:30:critical").severity == "critical"
        assert parse_rule("cache_hit_rate:kmer_table:0.5").target == "kmer_table"
        assert parse_rule("straggler").kind == "straggler"

    def test_spec_round_trips(self):
        for spec in (
            "stage_duration:transcript-*:5000:critical",
            "budget_burn:1.25:warning",
            "heartbeat_timeout:30:critical",
            "cache_hit_rate:kmer_table:0.5:warning",
            "straggler:warning",
        ):
            assert parse_rule(spec).spec == spec
            assert parse_rule(parse_rule(spec).spec) == parse_rule(spec)

    def test_rule_passthrough(self):
        rule = AlertRule(kind="straggler")
        assert parse_rule(rule) is rule

    def test_rejects_bad_specs(self):
        for bad in (
            "",
            "no_such_kind:1",
            "budget_burn",  # threshold required
            "stage_duration:5000",  # target required, then threshold
            "budget_burn:1.25:warning:extra",
            "heartbeat_timeout:30:catastrophic",
        ):
            with pytest.raises(ValueError):
                parse_rule(bad)


class TestStageDuration:
    def test_fires_on_blown_slo_with_fnmatch_target(self):
        alerts = evaluate(
            [
                span("pre-processing", "stage", v0=0.0, v1=10.0,
                     stage="pre-processing"),
                span("transcript-assembly", "stage", v0=0.0, v1=900.0,
                     stage="transcript-assembly"),
            ],
            ["stage_duration:transcript-*:500:critical"],
        )
        assert len(alerts) == 1
        assert alerts[0].rule == "stage_duration"
        assert alerts[0].severity == "critical"
        assert alerts[0].attrs["stage"] == "transcript-assembly"
        assert alerts[0].attrs["ttc_s"] == 900.0

    def test_within_slo_is_silent(self):
        alerts = evaluate(
            [span("s", "stage", v0=0.0, v1=10.0, stage="s")],
            ["stage_duration:*:500"],
        )
        assert alerts == []


class TestBudgetBurn:
    def test_fires_mid_run_once_billing_passes_threshold(self):
        engine = AlertEngine(["budget_burn:1.25:critical"])
        engine.emit(event("planner.prediction", "planner", cost_usd=1.0))
        engine.emit(span("vm.lifetime", "cloud", cost_usd=0.84))
        assert engine.alerts == []  # 84% burn: under the limit
        engine.emit(span("vm.lifetime", "cloud", cost_usd=0.84))
        assert len(engine.alerts) == 1  # 168% burn
        alert = engine.alerts[0]
        assert alert.rule == "budget_burn"
        assert alert.attrs["burn"] == pytest.approx(1.68)
        # more billing does not re-fire the same rule
        engine.emit(span("vm.lifetime", "cloud", cost_usd=0.84))
        assert len(engine.alerts) == 1

    def test_needs_a_prediction(self):
        alerts = evaluate(
            [span("vm.lifetime", "cloud", cost_usd=100.0)],
            ["budget_burn:1.25"],
        )
        assert alerts == []

    def test_late_prediction_checked_at_finalize(self):
        engine = AlertEngine(["budget_burn:1.1"])
        engine.emit(span("vm.lifetime", "cloud", cost_usd=2.0))
        engine.emit(event("planner.prediction", "planner", cost_usd=1.0))
        engine.finalize()
        assert len(engine.alerts) == 1


class TestHeartbeatTimeout:
    def test_fires_per_unit_once(self):
        records = [
            event("unit.heartbeat", "heartbeat", unit="ray_k35",
                  elapsed_r=10.0),
            event("unit.heartbeat", "heartbeat", unit="ray_k35",
                  elapsed_r=20.0),
            event("unit.heartbeat", "heartbeat", unit="ray_k41",
                  elapsed_r=1.0),
        ]
        alerts = evaluate(records, ["heartbeat_timeout:5:critical"])
        assert len(alerts) == 1
        assert alerts[0].attrs["unit"] == "ray_k35"


class TestStraggler:
    def test_echoes_detector_verdicts(self):
        alerts = evaluate(
            [
                event("unit.straggler", "heartbeat", severity="warning",
                      unit="ray_k41", elapsed_r=9.0, threshold_r=2.0,
                      peer_median_r=1.0, peers=3),
            ],
            ["straggler"],
        )
        assert len(alerts) == 1
        assert alerts[0].rule == "straggler"
        assert alerts[0].attrs["unit"] == "ray_k41"
        # the detector's own severity tag must not shadow the rule's
        assert alerts[0].severity == "warning"


class TestCacheHitRate:
    def test_floor_checked_at_finalize_from_metric_deltas(self):
        engine = AlertEngine(["cache_hit_rate:assembly_cache:0.5"])
        for name, value in (
            ("assembly_cache.hit", 1), ("assembly_cache.miss", 9),
        ):
            engine.emit(
                {"type": "metric", "kind": "counter", "name": name,
                 "value": value, "r": 0.0}
            )
        assert engine.alerts == []  # end-of-stream rule
        engine.finalize()
        assert len(engine.alerts) == 1
        assert engine.alerts[0].attrs["hit_rate"] == pytest.approx(0.1)

    def test_snapshot_supersedes_deltas(self):
        engine = AlertEngine(["cache_hit_rate:c:0.5"])
        engine.emit(
            {"type": "metric", "kind": "counter", "name": "c.miss",
             "value": 100, "r": 0.0}
        )
        engine.emit(
            {"type": "metrics",
             "data": {"counters": {"c.hit": 9, "c.miss": 1}}}
        )
        engine.finalize()
        assert engine.alerts == []  # snapshot says 90% hits

    def test_empty_cache_is_silent(self):
        alerts = evaluate([], ["cache_hit_rate:nothing:0.9"])
        assert alerts == []


class TestEngineAsSink:
    def test_firing_lands_in_tracer_and_counters(self):
        tracer = Tracer()
        engine = tracer.add_sink(
            AlertEngine(["heartbeat_timeout:5:critical"], tracer=tracer)
        )
        tracer.event(
            "unit.heartbeat", category="heartbeat", unit="u", elapsed_r=10.0
        )
        alert_events = [e for e in tracer.events if e.category == "alert"]
        assert len(alert_events) == 1
        assert alert_events[0].attrs["rule"] == "heartbeat_timeout"
        assert alert_events[0].attrs["severity"] == "critical"
        assert tracer.metrics.counters["alerts.critical"].value == 1
        assert len(engine.alerts) == 1

    def test_does_not_recurse_on_its_own_output(self):
        tracer = Tracer()
        engine = tracer.add_sink(
            AlertEngine(["heartbeat_timeout:5"], tracer=tracer)
        )
        tracer.event(
            "unit.heartbeat", category="heartbeat", unit="u", elapsed_r=10.0
        )
        tracer.event(
            "unit.heartbeat", category="heartbeat", unit="u", elapsed_r=11.0
        )
        assert len(engine.alerts) == 1

    def test_summary_counts_by_severity(self):
        engine = AlertEngine([])
        engine.alerts.extend(
            [
                Alert(rule="straggler", severity="warning", message="w"),
                Alert(rule="budget_burn", severity="critical", message="c"),
                Alert(rule="budget_burn", severity="critical", message="c2"),
            ]
        )
        assert engine.summary() == {"warning": 1, "critical": 2}
