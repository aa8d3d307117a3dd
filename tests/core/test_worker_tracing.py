"""Acceptance: distributed tracing across process-pool workers.

Runs the quickstart-scale pipeline once on the process backend with a
real tracer and a resource-sampling cadence, then asserts the merged
trace has everything the cross-worker observability layer promises:
worker spans on per-pid tracks, real timestamps aligned into the parent
clock domain, RSS/CPU samples, worker metric deltas folded into the
parent registry, all of it intact in the archived JSONL — and that two
identical-seed runs diff with zero virtual drift.
"""

import re
import time

import pytest

from repro.core.assembly_cache import use_assembly_cache
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.obs import Tracer, load_jsonl, worker_track, write_jsonl
from repro.obs.diff import diff_traces

CONFIG = dict(
    kmer_list=(35, 41),
    executor="process",
    executor_workers=2,
)


@pytest.fixture(scope="module")
def traced(ds_single):
    tracer = Tracer(resource_cadence=0.01)
    r_before = time.perf_counter()
    with use_assembly_cache(None):
        result = RnnotatorPipeline(tracer=tracer).run(
            ds_single, PipelineConfig(**CONFIG)
        )
    r_after = time.perf_counter()
    return result, tracer, (r_before, r_after)


def worker_spans(tracer):
    return [s for s in tracer.spans if s.process.startswith("worker-")]


class TestMergedTrace:
    def test_worker_spans_on_per_pid_tracks(self, traced):
        _, tracer, _ = traced
        spans = worker_spans(tracer)
        assert spans, "no worker spans were merged back"
        assert {s.name for s in spans} >= {"workload"}
        pids = {s.attrs.get("pid") for s in spans if "pid" in s.attrs}
        assert all(
            s.process == worker_track(pid)
            for pid in pids
            for s in spans
            if s.attrs.get("pid") == pid
        )

    def test_reparented_under_parent_spans(self, traced):
        _, tracer, _ = traced
        parent_ids = {s.span_id for s in tracer.spans}
        for s in worker_spans(tracer):
            assert s.parent_id in parent_ids

    def test_span_ids_unique_after_merge(self, traced):
        _, tracer, _ = traced
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids))

    def test_real_timestamps_aligned_into_parent_domain(self, traced):
        _, tracer, (r_before, r_after) = traced
        for s in worker_spans(tracer):
            assert s.r_start <= s.r_end
            assert r_before - 0.1 <= s.r_start
            assert s.r_end <= r_after + 0.1

    def test_worker_spans_real_clock_only(self, traced):
        _, tracer, _ = traced
        for s in worker_spans(tracer):
            assert s.v_start is None and s.v_end is None

    def test_resource_samples_recorded(self, traced):
        _, tracer, _ = traced
        samples = [
            e
            for e in tracer.events
            if e.category == "resource"
            and e.process.startswith("worker-")
        ]
        assert samples
        for e in samples:
            assert e.attrs["rss_bytes"] > 0
            assert e.attrs["cpu_seconds"] >= 0.0

    def test_worker_metric_deltas_folded(self, traced):
        _, tracer, _ = traced
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["worker_workloads"] >= 1
        assert snap["counters"]["worker_records_merged"] > 0

    def test_merge_events_announce_each_worker_trace(self, traced):
        _, tracer, _ = traced
        merges = [e for e in tracer.events if e.name == "worker_trace.merged"]
        assert merges
        assert all(e.attrs["records"] > 0 for e in merges)


class TestExports:
    def test_chrome_real_clock_has_worker_rows_and_counters(
        self, traced, tmp_path
    ):
        _, tracer, (r_before, r_after) = traced
        records = load_jsonl(write_jsonl(tracer, tmp_path / "t.jsonl"))
        workers = [
            r for r in records
            if r["type"] != "metrics" and r["process"].startswith("worker-")
        ]
        spans = [r for r in workers if r["type"] == "span"]
        samples = [
            r for r in workers
            if r["type"] == "event" and r["cat"] == "resource"
        ]
        assert spans and samples
        for s in spans:
            # a worker-<pid> track, parent-domain real time, no virtual
            assert re.fullmatch(r"worker-\d+", s["process"])
            assert r_before - 0.1 <= s["r0"] <= s["r1"] <= r_after + 0.1
            assert s["v0"] is None and s["v1"] is None
        for e in samples:
            assert e["attrs"]["rss_bytes"] >= 0
            assert e["attrs"]["cpu_seconds"] >= 0.0

    def test_jsonl_roundtrip_keeps_worker_records(self, traced, tmp_path):
        _, tracer, _ = traced
        records = load_jsonl(write_jsonl(tracer, tmp_path / "t.jsonl"))
        assert any(
            r.get("process", "").startswith("worker-") for r in records
        )


class TestDeterminism:
    def test_identical_seed_runs_have_zero_virtual_drift(
        self, traced, ds_single, tmp_path
    ):
        _, tracer_a, _ = traced
        tracer_b = Tracer(resource_cadence=0.01)
        with use_assembly_cache(None):
            RnnotatorPipeline(tracer=tracer_b).run(
                ds_single, PipelineConfig(**CONFIG)
            )
        a = write_jsonl(tracer_a, tmp_path / "a.jsonl")
        b = write_jsonl(tracer_b, tmp_path / "b.jsonl")
        diff = diff_traces(load_jsonl(a), load_jsonl(b))
        assert diff.total_v_rel == 0.0
        assert all(d.v_rel == 0.0 for d in diff.stages)
