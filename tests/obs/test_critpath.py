"""Tests for the virtual-time critical-path engine."""

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.critpath import EPS, compute_critical_path


def span(name, cat, v0, v1, sid, parent=None, process="p0", **attrs):
    return {
        "type": "span", "name": name, "cat": cat, "process": process,
        "thread": "main", "v0": v0, "v1": v1, "r0": 0.0, "r1": 0.0,
        "id": sid, "parent": parent, "attrs": attrs,
    }


def diamond_trace():
    """A diamond DAG: prep -> (two parallel units) -> merge.

    The slow branch (u_slow, 40..90) bounds the run; the fast branch
    (u_fast, 40..70) has 20 s of slack.
    """
    return [
        span("pipeline", "pipeline", 0.0, 100.0, 1),
        span("prep", "unit", 0.0, 40.0, 2, parent=1),
        span("u_slow", "unit", 40.0, 90.0, 3, parent=1),
        span("u_fast", "unit", 40.0, 70.0, 4, parent=1),
        span("merge", "unit", 90.0, 100.0, 5, parent=1),
    ]


class TestDiamond:
    def test_path_follows_slow_branch(self):
        path = compute_critical_path(diamond_trace())
        assert [s.name for s in path.segments] == ["prep", "u_slow", "merge"]

    def test_total_equals_pipeline_ttc_exactly(self):
        path = compute_critical_path(diamond_trace())
        assert path.total == 100.0  # exact: same subtraction as the TTC

    def test_segments_tile_the_run(self):
        path = compute_critical_path(diamond_trace())
        assert path.segments[0].v_start == path.v_start
        assert path.segments[-1].v_end == path.v_end
        for a, b in zip(path.segments, path.segments[1:]):
            assert a.v_end == b.v_start

    def test_slack_of_off_path_branch(self):
        records = diamond_trace()
        path = compute_critical_path(records)
        fast = next(s for s in records if s["name"] == "u_fast")
        slow = next(s for s in records if s["name"] == "u_slow")
        assert path.slack(fast) == pytest.approx(20.0)
        assert path.slack(slow) == pytest.approx(0.0)

    def test_rollups(self):
        path = compute_critical_path(diamond_trace())
        assert path.by_name() == {"u_slow": 50.0, "prep": 40.0, "merge": 10.0}
        assert path.by_category() == {"unit": 100.0}


class TestOverlapAndGaps:
    def test_overlapping_prefetch_gets_slack_not_path(self):
        # A cloud-side prefetch (0..45) overlaps both exec spans but
        # never bounds the run: the execs release the clock at 30/50.
        records = [
            span("pipeline", "pipeline", 0.0, 50.0, 1),
            span("exec:a", "unit", 0.0, 30.0, 2, parent=1),
            span("prefetch", "cloud", 0.0, 45.0, 3, parent=1),
            span("exec:b", "unit", 30.0, 50.0, 4, parent=1),
        ]
        path = compute_critical_path(records)
        assert [s.name for s in path.segments] == ["exec:a", "exec:b"]
        prefetch = records[2]
        assert path.slack(prefetch) == pytest.approx(5.0)

    def test_idle_gaps_are_explicit_segments(self):
        records = [
            span("pipeline", "pipeline", 0.0, 100.0, 1),
            span("work", "unit", 20.0, 60.0, 2, parent=1),
        ]
        path = compute_critical_path(records)
        assert [s.name for s in path.segments] == ["(idle)", "work", "(idle)"]
        assert path.total == 100.0
        idle = path.by_category()["idle"]
        assert idle == pytest.approx(60.0)

    def test_worker_real_time_spans_are_ignored(self):
        records = diamond_trace() + [
            {
                "type": "span", "name": "workload", "cat": "worker",
                "process": "worker-1", "thread": "u1", "v0": None,
                "v1": None, "r0": 1.0, "r1": 2.0, "id": 9, "parent": 3,
                "attrs": {},
            }
        ]
        path = compute_critical_path(records)
        assert [s.name for s in path.segments] == ["prep", "u_slow", "merge"]

    def test_instantaneous_spans_cannot_bound_the_run(self):
        records = diamond_trace() + [
            span("marker", "unit", 90.0, 90.0 + EPS / 2, 9, parent=1)
        ]
        path = compute_critical_path(records)
        assert "marker" not in [s.name for s in path.segments]

    def test_float_accumulated_clock_still_exact(self):
        # Virtual stamps are sums of float advances; the hull subtraction
        # must still match the pipeline TTC bit-for-bit.
        t = 0.0
        stamps = [t]
        for _ in range(1000):
            t += 0.1
            stamps.append(t)
        records = [span("pipeline", "pipeline", stamps[0], stamps[-1], 1)]
        records += [
            span(f"u{i}", "unit", stamps[i], stamps[i + 1], i + 2, parent=1)
            for i in range(1000)
        ]
        path = compute_critical_path(records)
        assert path.total == stamps[-1] - stamps[0]  # exact

    def test_no_virtual_spans_raises(self):
        with pytest.raises(ValueError):
            compute_critical_path([])


def write_trace(tmp_path, records):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


class TestCli:
    def test_exit_zero_when_path_matches_ttc(self, tmp_path, capsys):
        assert main(["critpath", write_trace(tmp_path, diamond_trace())]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "matches" in out

    def test_exit_two_without_virtual_spans(self, tmp_path, capsys):
        assert main(["critpath", write_trace(tmp_path, [])]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_payload(self, tmp_path, capsys):
        code = main(
            ["critpath", write_trace(tmp_path, diamond_trace()), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches_pipeline_ttc"] is True
        assert payload["total_virtual_s"] == 100.0
        assert payload["pipeline_ttc_s"] == 100.0
        assert [s["name"] for s in payload["segments"]] == [
            "prep", "u_slow", "merge",
        ]

    def test_module_is_runnable(self):
        # ``python -m repro.obs critpath`` is the one way in: the module
        # itself has no entry point to run and check nothing.
        import repro.obs.critpath as mod

        assert callable(main) and not hasattr(mod, "main")
