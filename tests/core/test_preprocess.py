"""Tests for the pre-processing stage."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.preprocess import PreprocessParams, PreprocessResult, preprocess
from repro.seq.fastq import FastqRecord, phred_to_ascii
from repro.seq.reads import ADAPTER


def rec(seq, quals=None, rid="r"):
    if quals is None:
        quals = "I" * len(seq)
    return FastqRecord(rid, seq, quals)


class TestTrimming:
    def test_low_quality_tail_trimmed(self):
        q = phred_to_ascii(np.array([30] * 40 + [5] * 10))
        out = preprocess([rec("A" * 25 + "C" * 25, q)])
        assert len(out.reads) == 1
        assert len(out.reads[0]) == 40
        assert out.trimmed == 1

    def test_high_quality_untouched(self):
        out = preprocess([rec("ACGT" * 15)])
        assert len(out.reads[0]) == 60
        assert out.trimmed == 0

    def test_adapter_clipped(self):
        seq = "ACGTACGTGG" * 4 + ADAPTER + "TTTT"
        out = preprocess([rec(seq)])
        assert out.adapters_clipped == 1
        assert out.reads[0].seq == "ACGTACGTGG" * 4

    def test_adapter_clipping_disabled(self):
        seq = "ACGTACGTGG" * 4 + ADAPTER + "TTTT"
        out = preprocess([rec(seq)], PreprocessParams(clip_adapters=False))
        assert out.adapters_clipped == 0
        assert len(out.reads[0]) == len(seq)

    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=60),
        st.integers(-2, 62),
        st.sampled_from([None, 10, 30]),
    )
    def test_trim_matches_a_phred_array_walk(self, scores, threshold, adapter_at):
        """The trim works on the Phred+33 string; the reference walks
        the decoded score array back from the (clipped) 3' end."""
        seq = "ACGTTGCAAG" * 6
        if adapter_at is not None:
            seq = seq[:adapter_at] + ADAPTER + seq
        seq = seq[: len(scores)]
        record = rec(seq, phred_to_ascii(np.array(scores)))
        end = seq.find(ADAPTER) if ADAPTER in seq else len(seq)
        phred = record.phred()
        while end > 0 and phred[end - 1] < threshold:
            end -= 1
        out = preprocess(
            [record],
            PreprocessParams(quality_threshold=threshold, min_length=0),
        )
        assert [r.seq for r in out.reads] == [seq[:end]]
        assert out.reads[0].qual == record.qual[:end]
        assert out.trimmed == (end < len(seq))
        assert out.adapters_clipped == (ADAPTER in seq)

    def test_non_ascii_quality_rejected(self):
        # "\u0131" is not Phred+33 at all; it must not pass as a score
        # above every threshold.
        with pytest.raises(ValueError):
            preprocess([rec("ACGT" * 10, "I" * 39 + "\u0131")])


class TestFilters:
    def test_n_reads_dropped(self):
        out = preprocess([rec("ACGTN" + "ACGTA" * 10)])
        assert out.dropped_n == 1
        assert out.reads == []

    def test_n_filter_disabled(self):
        out = preprocess([rec("ACGTN" + "ACGTA" * 10)], PreprocessParams(drop_n=False))
        assert out.dropped_n == 0
        assert len(out.reads) == 1

    def test_short_reads_dropped(self):
        out = preprocess([rec("ACGTACGT")])
        assert out.dropped_short == 1

    def test_exact_duplicates_removed(self):
        reads = [rec("ACGTACGTGG" * 5, rid=f"r{i}") for i in range(4)]
        out = preprocess(reads)
        assert len(out.reads) == 1
        assert out.dropped_duplicate == 3

    def test_dedup_disabled(self):
        reads = [rec("ACGTACGTGG" * 5, rid=f"r{i}") for i in range(4)]
        out = preprocess(reads, PreprocessParams(dedup=False))
        assert len(out.reads) == 4


class TestStats:
    def test_counts_add_up(self, reads_single):
        out = preprocess(reads_single)
        assert (
            out.output_reads
            + out.dropped_n
            + out.dropped_short
            + out.dropped_duplicate
            == out.input_reads
        )

    def test_survival_and_reduction(self, reads_single):
        out = preprocess(reads_single)
        assert 0.5 < out.survival_rate < 1.0
        assert 0.0 < out.reduction_factor < 1.0

    def test_modal_length(self, reads_single):
        out = preprocess(reads_single)
        assert 38 <= out.modal_read_length <= 50

    def test_usage_recorded(self, reads_single):
        out = preprocess(reads_single)
        assert out.usage.phases[0].kind == "preprocess"
        assert out.usage.peak_rank_memory_bytes > 0

    def test_empty_input(self):
        out = preprocess([])
        assert out.input_reads == 0
        assert out.survival_rate == 0.0
        assert out.modal_read_length == 0

    def test_output_reads_have_consistent_quals(self, reads_single):
        out = preprocess(reads_single)
        for r in out.reads[:100]:
            assert len(r.seq) == len(r.qual)
