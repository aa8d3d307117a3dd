"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest pipebench -q

Not collected by the tier-1 run (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
from repro.core import rnnotator
from repro.pilot.manager import UnitManager
from repro.seq.readstore import ReadStore

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def span(id, parent, start, end, name="x"):
    return {"id": id, "parent": parent, "start": start, "end": end, "name": name}


def test_self_time_nested_children_sum_to_root():
    spans = [
        span(0, None, 0.0, 10.0, "run"),
        span(1, 0, 1.0, 5.0, "a"),
        span(2, 1, 2.0, 3.0, "b"),
        span(3, 0, 6.0, 9.0, "a"),
    ]
    selfs = layers.self_times(spans)
    assert selfs == {0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0}
    table = layers.layer_table(spans)
    assert table == {"run": 3.0, "a": 6.0, "b": 1.0}
    assert sum(table.values()) == pytest.approx(10.0)


def test_self_time_overlapping_children_count_once():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 6.0),
        span(2, 0, 4.0, 8.0),  # overlaps span 1 on [4, 6]
        span(3, 0, 5.0, 5.5),  # inside both
        span(4, 0, 9.0, 12.0),  # overhangs the parent's end
    ]
    assert layers.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_background_spans_stay_out_of_the_table():
    spans = [
        span(0, None, 0.0, 4.0, "run"),
        {**span(1, None, 1.0, 3.0, "seq.share"), "background": True},
    ]
    assert layers.layer_table(spans) == {"run": 4.0}


def test_wrappers_restored_after_a_traced_run_raises():
    originals = (
        vars(rnnotator)["preprocess"],
        vars(ReadStore)["from_reads"],
        vars(UnitManager)["run"],
    )
    rec = layers.SpanRecorder()
    with pytest.raises(RuntimeError, match="boom"):
        with layers.instrument(rec, {}), rec.run("r"):
            assert vars(rnnotator)["preprocess"] is not originals[0]
            raise RuntimeError("boom")
    assert (
        vars(rnnotator)["preprocess"],
        vars(ReadStore)["from_reads"],
        vars(UnitManager)["run"],
    ) == originals
    assert rec.spans[0]["end"] is not None


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout
    return json.loads((out / "suite.json").read_text())["records"], elapsed, out


def test_smoke_finishes_within_a_minute(smoke):
    assert smoke[1] < 60


def test_smoke_emits_exactly_the_declared_names(smoke):
    records = smoke[0]
    assert list(records) == [w["name"] for w in SPEC["workloads"]]
    for r in records.values():
        assert list(r["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert list(r["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
        for name in [r["workload"], *r["end_to_end"], *r["per_layer"]]:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert r["failed"] == 0 and r["attempted"] > 0


def test_smoke_layer_table_sums_to_the_run_span(smoke):
    records, _, out = smoke
    for name, r in records.items():
        assert r["layer_sum_s"] == pytest.approx(r["run_span_s"], rel=0.01)
        # and again from the spans written out at exit
        spans = [json.loads(line) for line in (out / f"{name}.spans.jsonl").open()]
        cold = [s for s in spans if s["run"] == f"{name}.cold"]
        root = next(s for s in cold if s["name"] == "run")
        assert sum(layers.layer_table(cold).values()) == pytest.approx(
            root["end"] - root["start"], rel=0.01
        )


def test_smoke_shows_what_each_workload_stresses(smoke):
    layer = {n: {k: m["value"] for k, m in r["per_layer"].items()}
             for n, r in smoke[0].items()}
    assert layer["mamp_serial"]["assembly.contrail_s"] == 0
    assert layer["contrail_mr"]["mapreduce.jobs"] > 0
    assert layer["mamp_process"]["seq.shm_mb"] > 0
    assert layer["mamp_serial"]["seq.shm_mb"] == 0
    # backend parity on the exact counts
    for exact in ("comm.bytes", "assembly.compute_units", "cloud.virtual_ttc_s",
                  "sweep.distinct_kmers", "evaluation.f1"):
        assert layer["mamp_serial"][exact] == layer["mamp_process"][exact]
