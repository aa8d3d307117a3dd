"""Tests for the JSONL and text exporters."""

import json

import pytest

from repro.cloud.clock import SimClock
from repro.obs import Tracer, load_jsonl, text_summary, write_jsonl


def make_tracer() -> Tracer:
    clock = SimClock()
    tr = Tracer(clock)
    with tr.span("stage:pre", category="stage", process="pilot.0", stage="pre"):
        clock.advance(100.0)
        tr.event("unit.state", category="state", thread="unit.0", new="DONE")
    tr.add_span(
        "vm.lifetime", v_start=0.0, v_end=400.0,
        category="cloud", process="ec2", thread="i-0",
    )
    tr.count("vms_launched")
    tr.observe("wait", 3.0)
    return tr


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        tr = make_tracer()
        path = write_jsonl(tr, tmp_path / "trace.jsonl")
        records = load_jsonl(path)
        # every span + event, plus the trailing metrics snapshot
        assert len(records) == len(tr.spans) + len(tr.events) + 1
        assert records[-1]["type"] == "metrics"
        assert records[-1]["data"]["counters"]["vms_launched"] == 1
        names = {r["name"] for r in records if r["type"] != "metrics"}
        assert names == {"stage:pre", "unit.state", "vm.lifetime"}

    def test_plain_record_source_has_no_metrics(self, tmp_path):
        tr = make_tracer()
        path = write_jsonl(tr.records(), tmp_path / "t.jsonl")
        assert all(r["type"] != "metrics" for r in load_jsonl(path))

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', '{"name": "x"}'])
    def test_a_line_that_is_not_a_record_names_itself(self, tmp_path, line):
        path = tmp_path / "t.jsonl"
        path.write_text(f'{{"type": "event"}}\n{line}\n{{"type": "event"}}\n')
        with pytest.raises(ValueError, match=f"^{path}:2: not a trace record"):
            load_jsonl(path)


class TestTextSummary:
    def test_contains_counts_and_metrics(self):
        text = text_summary(make_tracer())
        assert "2 spans, 1 events" in text
        assert "stage" in text and "cloud" in text
        assert "vms_launched" in text
        assert "hottest spans (virtual" in text

    def test_works_on_loaded_records(self, tmp_path):
        tr = make_tracer()
        records = load_jsonl(write_jsonl(tr, tmp_path / "t.jsonl"))
        text = text_summary(records)
        assert "vms_launched" in text  # metrics record picked up


class TestJsonDefault:
    """Exporter robustness for non-JSON-native tag values (satellite:
    numpy scalars and bytes land in span attrs from the assembly layer)."""

    def test_numpy_scalars_serialize_as_numbers(self):
        np = pytest.importorskip("numpy")
        from repro.obs.export import dump_record

        record = {
            "type": "event",
            "attrs": {
                "k": np.int64(41),
                "coverage": np.float32(7.5),
                "counts": np.array([1, 2, 3]),
            },
        }
        loaded = json.loads(dump_record(record))
        assert loaded["attrs"]["k"] == 41
        assert loaded["attrs"]["coverage"] == 7.5
        assert loaded["attrs"]["counts"] == [1, 2, 3]

    def test_bytes_decode_or_hex(self):
        from repro.obs.export import dump_record

        loaded = json.loads(
            dump_record(
                {"attrs": {"tag": b"ACGT", "digest": b"\xde\xad\xbe\xef"}}
            )
        )
        assert loaded["attrs"]["tag"] == "ACGT"
        assert loaded["attrs"]["digest"] == "hex:deadbeef"

    def test_sets_sorted_and_fallback_repr(self):
        from repro.obs.export import dump_record

        class Odd:
            def __repr__(self):
                return "<odd>"

        loaded = json.loads(
            dump_record({"attrs": {"ks": {41, 35}, "obj": Odd()}})
        )
        assert loaded["attrs"]["ks"] == [35, 41]
        assert loaded["attrs"]["obj"] == "<odd>"

    def test_traced_numpy_tags_survive_write_jsonl(self, tmp_path):
        np = pytest.importorskip("numpy")
        tr = Tracer(SimClock())
        with tr.span("assemble", category="unit", k=np.int64(41),
                     n50=np.float64(1234.5)):
            pass
        path = write_jsonl(tr, tmp_path / "np.jsonl")
        [span] = [r for r in load_jsonl(path) if r["type"] == "span"]
        assert span["attrs"] == {"k": 41, "n50": 1234.5}
