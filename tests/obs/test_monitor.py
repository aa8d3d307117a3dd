"""The live run monitor (repro.obs.monitor): live == post-hoc."""

import json
import threading
import time

import pytest

from repro.obs.__main__ import main
from repro.obs.monitor import final_summary, follow, progress_line
from repro.obs.spans import RunState, replay


def span(name, cat, v0=0.0, v1=0.0, r0=0.0, r1=0.0, parent=None,
         process="main", **attrs):
    return {
        "type": "span", "name": name, "cat": cat, "process": process,
        "thread": "t", "v0": v0, "v1": v1, "r0": r0, "r1": r1,
        "id": 1, "parent": parent, "attrs": attrs,
    }


def event(name, cat, r=0.0, thread="t", **attrs):
    return {
        "type": "event", "name": name, "cat": cat, "process": "main",
        "thread": thread, "v": 0.0, "r": r, "attrs": attrs,
    }


def unit_state(unit_id, unit, stage, new, r=0.0):
    return event(
        "unit.state", "state", r=r, thread=unit_id,
        old="?", new=new, unit=unit, stage=stage,
    )


def sample_run():
    """A small but complete synthetic run: 3 units over 2 stages, one
    failure, heartbeats, an alert, billing and a planner prediction."""
    return [
        event("planner.prediction", "planner", r=0.0, ttc_s=500.0,
              cost_usd=0.84, assembly_jobs=2),
        unit_state("unit.1", "preprocess", "pre-processing", "RUNNING", r=1.0),
        unit_state("unit.1", "preprocess", "pre-processing", "DONE", r=2.0),
        span("pre-processing", "stage", v0=0.0, v1=22.0, r0=0.5, r1=2.0,
             stage="pre-processing"),
        unit_state("unit.2", "ray_k35", "transcript-assembly", "RUNNING",
                   r=2.5),
        unit_state("unit.3", "ray_k41", "transcript-assembly", "RUNNING",
                   r=2.5),
        event("unit.heartbeat", "heartbeat", r=3.0, thread="unit.2",
              unit="ray_k35", stage="transcript-assembly", elapsed_r=0.5,
              inflight=2),
        event("alert", "alert", r=3.5, rule="straggler", severity="warning",
              message="unit ray_k41 is straggling: 9.0 s vs peer median 1.0 s",
              unit="ray_k41"),
        unit_state("unit.2", "ray_k35", "transcript-assembly", "DONE", r=4.0),
        unit_state("unit.3", "ray_k41", "transcript-assembly", "FAILED",
                   r=4.5),
        span("transcript-assembly", "stage", v0=22.0, v1=40.0, r0=2.4,
             r1=4.5, stage="transcript-assembly"),
        span("workload", "worker", v0=None, v1=None, r0=2.6, r1=3.9,
             process="worker-123"),
        span("vm.lifetime", "cloud", v0=0.0, v1=40.0, r0=4.6, r1=4.6,
             cost_usd=0.42),
        span("pipeline", "pipeline", v0=0.0, v1=535.9, r0=0.0, r1=5.0,
             dataset="tiny"),
    ]


class TestRunState:
    def test_unit_counts_and_stage_progress(self):
        state = replay(sample_run())
        assert state.unit_counts() == (2, 1, 0)
        progress = state.stage_progress()
        assert progress["pre-processing"] == {
            "done": 1, "failed": 0, "running": 0, "total": 1,
        }
        assert progress["transcript-assembly"] == {
            "done": 1, "failed": 1, "running": 0, "total": 2,
        }

    def test_complete_flag_tracks_pipeline_close(self):
        records = sample_run()
        state = replay(records[:-1])
        assert not state.complete
        state.apply(records[-1])
        assert state.complete

    def test_billing_planner_alerts_collected(self):
        state = replay(sample_run())
        assert state.billed_usd == 0.42
        assert state.planner["cost_usd"] == 0.84
        assert len(state.alerts) == 1
        assert state.workers["worker-123"]["workloads"] == 1

    def test_eta_from_planner_and_throughput(self):
        state = RunState()
        for record in sample_run():
            state.apply(record)
            if record.get("name") == "unit.heartbeat":
                break
        # 1 done in ~3 real seconds, 2 running, planner says 2 jobs
        eta = state.eta_seconds()
        assert eta is not None and eta > 0


class TestRendering:
    def test_final_summary_contents(self):
        text = final_summary(replay(sample_run()))
        assert "COMPLETE" in text
        assert "TTC 535.9 virtual s" in text
        assert "2 done, 1 failed" in text
        assert "transcript-assembly" in text
        assert "  warning   straggler  unit ray_k41 is straggling" in text
        assert "predicted TTC 500.0 s" in text
        assert "billed $0.42" in text

    def test_final_summary_in_progress(self):
        text = final_summary(replay(sample_run()[:-1]))
        assert "IN PROGRESS" in text

    def test_progress_line_mentions_running_units(self):
        records = sample_run()
        state = replay(records[: records.index(records[8])])
        line = progress_line(state)
        assert "1 done / 2 running" in line
        assert "ray_k35" in line

    def test_span_open_and_metric_records_do_not_change_final_state(self):
        """The parity guarantee: the extra record types only the live
        stream carries must not affect the final rendering."""
        enriched = list(sample_run())
        enriched.insert(
            0,
            {"type": "span_open", "name": "pipeline", "cat": "pipeline",
             "process": "main", "thread": "main", "v": 0.0, "r": 0.0,
             "id": 99, "parent": None, "attrs": {}},
        )
        enriched.insert(
            3,
            {"type": "metric", "kind": "counter", "name": "units_done",
             "value": 1, "r": 2.0},
        )
        assert final_summary(replay(enriched)) == final_summary(
            replay(sample_run())
        )


class TestFollow:
    def _write_slowly(self, path, records, delay=0.02):
        def writer():
            with path.open("w") as fh:
                for record in records:
                    fh.write(json.dumps(record) + "\n")
                    fh.flush()
                    time.sleep(delay)

        thread = threading.Thread(target=writer)
        thread.start()
        return thread

    def test_follow_reaches_complete_and_matches_posthoc(self, tmp_path, capsys):
        path = tmp_path / "live.jsonl"
        records = sample_run()
        writer = self._write_slowly(path, records)
        rc = follow(path, poll=0.01, timeout=30.0)
        writer.join()
        assert rc == 0
        followed = capsys.readouterr().out
        assert "== final state ==" in followed
        # the trailing block equals the post-hoc rendering byte-for-byte
        final = followed[followed.index("== final state =="):].rstrip("\n")
        assert final == final_summary(replay(records))

    def test_follow_tolerates_torn_lines(self, tmp_path, capsys):
        path = tmp_path / "live.jsonl"
        records = sample_run()
        with path.open("w") as fh:
            for record in records[:-1]:
                fh.write(json.dumps(record) + "\n")
            # a torn final line: written in two chunks mid-poll
            line = json.dumps(records[-1])
            fh.write(line[: len(line) // 2])
            fh.flush()

            def finish():
                time.sleep(0.1)
                with path.open("a") as fh2:
                    fh2.write(line[len(line) // 2:] + "\n")

            thread = threading.Thread(target=finish)
            thread.start()
        rc = follow(path, poll=0.01, timeout=30.0)
        thread.join()
        assert rc == 0
        assert "COMPLETE" in capsys.readouterr().out

    def test_follow_rejects_a_line_that_is_not_a_record(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text(json.dumps(sample_run()[0]) + "\n[1, 2]\n")
        with pytest.raises(ValueError, match=f"^{path}:2: not a trace record"):
            follow(path, poll=0.01, timeout=5.0)

    def test_follow_times_out_without_completion(self, tmp_path, capsys):
        path = tmp_path / "live.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in sample_run()[:-1]) + "\n"
        )
        rc = follow(path, poll=0.01, timeout=0.2)
        assert rc == 1
        out = capsys.readouterr().out
        assert "timeout" in out
        assert "IN PROGRESS" in out


class TestCli:
    def test_posthoc_render(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in sample_run()) + "\n"
        )
        assert main(["monitor", str(path)]) == 0
        assert "COMPLETE" in capsys.readouterr().out

    def test_missing_trace_is_exit_2(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err
