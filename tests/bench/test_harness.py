"""Tests for the benchmark harness and the EXPERIMENTS.md renderer.

The heavy pieces (bench data sets, calibration, the paper artifacts) run
under ``benchmarks/``; these tests cover the pure functions: the
markdown renderer, the block splicer and light helpers.
"""

import pytest

from benchmarks.experiments import (
    doc_blocks,
    markdown_table,
    series_rows,
    splice,
)
from repro.bench.harness import BENCH_PARAMS, machine_for
from repro.parallel.costmodel import CostModel
from repro.parallel.usage import PhaseUsage, ResourceUsage


class TestFormatting:
    def test_table_alignment(self):
        """Alignment-free pipes: no padding, one separator cell per
        column, numbers with thousands separators."""
        out = markdown_table(["a", "bb"], [["x", 1], ["yy", 1234567.4]])
        assert out.split("\n") == [
            "| a | bb |",
            "|---|---|",
            "| x | 1 |",
            "| yy | 1,234,567 |",
        ]

    def test_table_empty_rows(self):
        assert markdown_table(["col"], []) == "| col |\n|---|"

    def test_figure_grid(self):
        """One row per x, one column per series, ``-`` for a missing
        point."""
        series = {"s1": {1: 10.0, 2: 2000.0}, "s2": {2: 5.0}}
        out = markdown_table(["x", *series], series_rows(series))
        assert out.split("\n")[2:] == ["| 1 | 10 | - |", "| 2 | 2,000 | 5 |"]


DOC = """# Doc
Prose may name `<!-- paper-table: a -->` inline.

<!-- paper-table: a -->
| old |
<!-- /paper-table -->

text

<!-- paper-table: b -->
<!-- /paper-table -->
"""


class TestSplice:
    def test_blocks_are_the_text_between_markers(self):
        assert doc_blocks(DOC) == {"a": "\n| old |\n", "b": "\n"}

    def test_splice_replaces_every_body(self):
        out = splice(DOC, {"a": "| new |", "b": "| B |"})
        assert doc_blocks(out) == {"a": "\n| new |\n", "b": "\n| B |\n"}
        assert out.replace("| new |", "| old |").replace("\n| B |", "") == DOC

    def test_writing_twice_gives_identical_bytes(self):
        tables = {"a": "| x |\n|---|\n| 1 |", "b": "| y |"}
        once = splice(DOC, tables)
        assert splice(once, tables) == once

    def test_a_changed_number_names_its_block(self):
        tables = {"a": "| n |\n|---|\n| 1,721 |", "b": "| m |\n|---|\n| 5 |"}
        current = splice(DOC, tables)
        edited = doc_blocks(current.replace("1,721", "1,722"))
        stale = [n for n, t in tables.items() if edited[n] != f"\n{t}\n"]
        assert stale == ["a"]

    @pytest.mark.parametrize(
        "text, marker",
        [
            ("<!-- paper-table: a -->\n", "paper-table: a is not closed"),
            (
                "<!-- paper-table: a -->\n<!-- paper-table: b -->\n",
                "paper-table: a is not closed",
            ),
            (
                "<!-- paper-table: a -->\n<!-- /paper-table -->\n" * 2,
                "paper-table: a appears twice",
            ),
            ("<!-- /paper-table -->\n", "closes no block"),
        ],
    )
    def test_malformed_markers_raise_and_name_the_marker(self, text, marker):
        with pytest.raises(ValueError, match=marker):
            doc_blocks(text)

    def test_a_missing_or_unknown_block_raises_and_names_it(self):
        with pytest.raises(ValueError, match="paper-table: c has no block"):
            splice(DOC, {"a": "", "b": "", "c": ""})
        with pytest.raises(ValueError, match="paper-table: b is no artifact"):
            splice(DOC, {"a": ""})


class TestMachineFor:
    def test_instance_attributes_carried(self):
        m = machine_for("c3.2xlarge", 4)
        assert m.n_nodes == 4
        assert m.cores_per_node == 8
        assert m.network_bandwidth > 0

    def test_unknown_instance(self):
        with pytest.raises(KeyError):
            machine_for("z9.mega", 1)


class TestBenchParams:
    def test_datasets_registered(self):
        assert set(BENCH_PARAMS) == {"B_glumae", "P_crispa"}
        for scale, boost in BENCH_PARAMS.values():
            assert 0 < scale < 0.1
            assert 0 < boost <= 1.0


class TestCalibrationMath:
    def test_priced_parts_decomposition(self):
        """fixed + rate-scaled parts must add to the total."""
        from repro.bench.calibration import _priced_parts

        cm = CostModel()
        u = ResourceUsage(n_ranks=16)
        u.add_phase(
            PhaseUsage("a", "kmer", critical_compute=1e6, comm_bytes=10**8,
                       n_collectives=3, n_jobs=2)
        )
        machine = machine_for("c3.2xlarge", 2)
        compute_s, fixed_s = _priced_parts(cm, u, machine)
        assert compute_s > 0
        assert fixed_s > 0
        assert compute_s + fixed_s == pytest.approx(
            cm.task_seconds(u, machine)
        )

    def test_table3_targets(self):
        from repro.bench.calibration import TABLE3_TARGETS

        assert TABLE3_TARGETS == {
            "ray": 1721.0, "abyss": 882.0, "contrail": 6720.0,
        }
