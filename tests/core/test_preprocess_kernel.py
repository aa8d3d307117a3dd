"""The columnar QC kernels against the per-record loop they replaced.

``preprocess`` works on a raw ``ReadStore``'s arrays; the object loop it
used to be is ``preprocess_reference``.  On ``ACGTN`` input the two must
agree on every counter, the surviving records and their order, the
filtered store's digest and the usage record.  None of the pipebench
inputs contains an adapter, so the adapter path is gated here and
nowhere else.
"""

import io
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.sweep import KmerTableCache, use_kmer_table_cache
from repro.core.assembly_cache import AssemblyCache, use_assembly_cache
from repro.core.preprocess import PreprocessParams, preprocess
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.seq import fastq
from repro.seq.fastq import FastqRecord, parse_fastq, phred_to_ascii
from repro.seq.reads import ADAPTER
from repro.seq.readstore import ReadStore
from tests.core.preprocess_reference import COUNTERS, preprocess_reference
from tests.core.test_store_lifetime import segments, time_limit

HIGH, LOW = "I", "#"  # Phred 40 and 2


def rec(seq, qual=None, rid="r"):
    return FastqRecord(rid, seq, HIGH * len(seq) if qual is None else qual)


def assert_same(reads, params=None):
    got = preprocess(reads, params)
    want = preprocess_reference(reads, params)
    for name in COUNTERS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.reads == want.reads
    assert got.store.digest == ReadStore.from_reads(want.reads).digest
    assert got.usage.phases == want.usage.phases
    assert got.usage.peak_rank_memory_bytes == want.usage.peak_rank_memory_bytes
    assert got.usage.n_ranks == want.usage.n_ranks
    return got


bases = st.text(alphabet="ACGT", min_size=0, max_size=70)


@st.composite
def sequences(draw):
    """ACGT with Ns anywhere and the adapter nowhere, at 0, mid-read,
    twice, or as a 3' fragment that must not clip."""
    seq = draw(st.text(alphabet="ACGTN", min_size=0, max_size=12)).join(
        draw(st.lists(bases, min_size=1, max_size=3))
    )
    where = draw(st.sampled_from(["none", "start", "mid", "twice", "partial"]))
    cut = draw(st.integers(0, len(seq)))
    if where == "start":
        seq = ADAPTER + seq
    elif where == "mid":
        seq = seq[:cut] + ADAPTER + seq[cut:]
    elif where == "twice":
        seq = seq[:cut] + ADAPTER + seq[cut:] + ADAPTER
    elif where == "partial":
        seq = seq + ADAPTER[: draw(st.integers(1, len(ADAPTER) - 1))]
    return seq


@st.composite
def qualities(draw, n):
    shape = draw(st.sampled_from(["high", "low", "tail", "any"]))
    if shape == "high":
        return HIGH * n
    if shape == "low":  # trims to nothing: dropped_short
        return LOW * n
    if shape == "tail":
        tail = draw(st.integers(0, n))
        return HIGH * (n - tail) + LOW * tail
    scores = draw(st.lists(st.integers(0, 41), min_size=n, max_size=n))
    return phred_to_ascii(np.array(scores, dtype=np.int16))


@st.composite
def read_sets(draw):
    """Ragged reads plus exact copies under other ids (duplicate mates)
    and copies that only become duplicates once a low tail is trimmed."""
    reads = []
    for i in range(draw(st.integers(0, 8))):
        seq = draw(sequences())
        reads.append(FastqRecord(f"r{i}", seq, draw(qualities(len(seq)))))
    for j, src in enumerate(
        draw(st.lists(st.sampled_from(reads), max_size=4)) if reads else []
    ):
        tail = draw(st.text(alphabet="ACGTN", max_size=6))
        reads.append(
            FastqRecord(f"d{j}/2", src.seq + tail, src.qual + LOW * len(tail))
        )
    return draw(st.permutations(reads))


params_st = st.builds(
    PreprocessParams,
    quality_threshold=st.sampled_from([0, 13, 30]),
    min_length=st.sampled_from([0, 5, 35]),
    drop_n=st.booleans(),
    dedup=st.booleans(),
    clip_adapters=st.booleans(),
)


class TestAgainstTheRecordLoop:
    @settings(max_examples=300, deadline=None)
    @given(read_sets(), params_st)
    def test_generated_reads(self, reads, params):
        assert_same(reads, params)

    def test_pipeline_inputs(self, reads_single, reads_paired):
        assert_same(reads_single)
        assert_same(reads_paired, PreprocessParams(min_length=40))

    def test_empty_input_and_every_flag_off(self, reads_single):
        off = PreprocessParams(
            quality_threshold=0, min_length=0, drop_n=False, dedup=False,
            clip_adapters=False,
        )
        assert assert_same([], off).output_reads == 0
        got = assert_same(reads_single[:500], off)
        assert got.output_reads == 500 and got.trimmed == 0

    @pytest.mark.parametrize("at", [0, 1, 20, 40])
    def test_adapter_at_every_offset(self, at):
        body = "ACGTTGCAAGGATCCATTGC" * 2
        got = assert_same(
            [rec(body[:at] + ADAPTER + body[at:])], PreprocessParams(min_length=0)
        )
        assert got.adapters_clipped == 1 and got.reads[0].seq == body[:at]

    def test_first_of_two_adapters_clips(self):
        body = "ACGTTGCAAGGATCCATTGC" * 2
        got = assert_same([rec(body + ADAPTER + body + ADAPTER)])
        assert got.adapters_clipped == 1 and got.reads[0].seq == body

    def test_partial_adapter_at_the_end_does_not_clip(self):
        seq = "ACGTTGCAAGGATCCATTGC" * 2 + ADAPTER[:-1]
        got = assert_same([rec(seq)])
        assert got.adapters_clipped == 0 and got.reads[0].seq == seq

    def test_adapter_never_matches_across_two_reads(self):
        half = len(ADAPTER) // 2
        body = "ACGTTGCAAGGATCCATTGC" * 2
        got = assert_same(
            [rec(body + ADAPTER[:half], rid="a"), rec(ADAPTER[half:] + body, rid="b")]
        )
        assert got.adapters_clipped == 0 and got.output_reads == 2

    def test_low_quality_under_the_adapter_still_counts_one_trim(self):
        body = "ACGTTGCAAGGATCCATTGC" * 2
        seq = body + ADAPTER
        got = assert_same([rec(seq, HIGH * 36 + LOW * (len(seq) - 36))])
        assert got.reads[0].seq == body[:36] and got.trimmed == 1

    def test_all_low_quality_trims_to_nothing(self):
        got = assert_same([rec("ACGT" * 12, LOW * 48)])
        assert got.dropped_short == 1 and got.output_reads == 0
        kept = assert_same([rec("ACGT" * 12, LOW * 48)], PreprocessParams(min_length=0))
        assert [r.seq for r in kept.reads] == [""]

    def test_duplicates_that_appear_only_after_trimming(self):
        body = "ACGTTGCAAGGATCCATTGC" * 2
        got = assert_same(
            [
                rec(body + "TTTT", HIGH * 40 + LOW * 4, rid="first"),
                rec(body, rid="second"),
                rec(body + "GG", HIGH * 40 + LOW * 2, rid="third"),
            ]
        )
        assert [r.id for r in got.reads] == ["first"]
        assert got.dropped_duplicate == 2

    def test_a_is_not_padding(self):
        """``AAAA`` packs to zero bits: the length is part of the key."""
        body = "ACGTTGCAAGGATCCATTGC" * 2
        got = assert_same(
            [rec(body + "A" * i, rid=f"r{i}") for i in (0, 1, 2, 24, 25, 1)]
        )
        assert got.dropped_duplicate == 1 and got.output_reads == 5

    def test_n_survivors_dedup_exactly(self):
        """With ``drop_n`` off an ``N`` must not merge with the ``A`` its
        two low bits spell."""
        body = "ACGTTGCAAGGATCCATTGC" * 2
        reads = [
            rec(body + "A", rid="a"),
            rec(body + "N", rid="n"),
            rec(body + "N", rid="n-again"),
            rec("N" + body, rid="n-first"),
            rec("A" + body, rid="a-first"),
        ]
        got = assert_same(reads, PreprocessParams(drop_n=False))
        assert [r.id for r in got.reads] == ["a", "n", "n-first", "a-first"]

    def test_n_in_the_trimmed_tail_does_not_drop_the_read(self):
        body = "ACGTTGCAAGGATCCATTGC" * 2
        got = assert_same([rec(body + "NN", HIGH * 40 + LOW * 2)])
        assert got.dropped_n == 0 and got.reads[0].seq == body


class TestOneAlphabetRule:
    """QC and the store agree on what a base is: a byte outside
    ``ACGTacgt`` is uncalled.  (The record loop tested ``"N" in seq`` and
    let ``R`` / ``X`` / ``n`` through to the assemblers as N-reads.)"""

    BODY = "ACGTTGCAAGGATCCATTGC" * 2

    def parse(self, *seqs):
        text = "".join(
            f"@r{i}\n{seq}\n+\n{HIGH * len(seq)}\n" for i, seq in enumerate(seqs)
        )
        return list(parse_fastq(io.StringIO(text)))

    def test_iupac_and_unknown_bytes_are_uncalled(self):
        reads = self.parse(self.BODY, self.BODY[:20] + "R" + self.BODY[21:],
                           "X" + self.BODY, self.BODY + "n")
        got = preprocess(reads)
        assert got.dropped_n == 3
        assert [r.id for r in got.reads] == ["r0"]
        kept = preprocess(reads, PreprocessParams(drop_n=False))
        assert kept.store.contains_n()
        assert [r.seq.count("N") for r in kept.reads] == [0, 1, 1, 1]

    def test_lower_case_is_the_same_read(self):
        lower = self.BODY.lower()
        for reads in (
            self.parse(self.BODY, lower),  # the parser upper-cases
            [rec(self.BODY, rid="r0"), rec(lower, rid="r1")],  # raw records
        ):
            got = preprocess(reads)
            assert got.dropped_duplicate == 1
            assert [(r.id, r.seq) for r in got.reads] == [("r0", self.BODY)]

    def test_lower_case_adapter_clips(self):
        got = preprocess([rec(self.BODY + ADAPTER.lower() + "ACGT")])
        assert got.adapters_clipped == 1 and got.reads[0].seq == self.BODY

    def test_non_ascii_quality_names_the_read(self):
        bad = FastqRecord("culprit", "ACGT" * 10, HIGH * 39 + "ı")
        with pytest.raises(ValueError, match="culprit"):
            preprocess([rec("ACGT" * 10, rid="fine"), bad])

    def test_length_mismatch_names_the_read(self):
        bad = rec("ACGT" * 10, rid="culprit")
        object.__setattr__(bad, "qual", HIGH * 39)  # past __post_init__
        with pytest.raises(ValueError, match="culprit"):
            preprocess([rec("ACGT" * 10, rid="fine"), bad, rec("ACGT" * 10)])
        longer = rec("ACGT" * 10, rid="culprit")
        object.__setattr__(longer, "qual", HIGH * 41)
        shorter = rec("ACGT" * 10, rid="second")
        object.__setattr__(shorter, "qual", HIGH * 39)  # totals agree
        with pytest.raises(ValueError, match="culprit"):
            preprocess([longer, shorter])


CONFIG = dict(assemblers=("velvet",), kmer_list=(31,))


def fresh_run(dataset, **overrides):
    with use_assembly_cache(AssemblyCache()), use_kmer_table_cache(
        KmerTableCache()
    ), time_limit(120):
        return RnnotatorPipeline().run(
            dataset, PipelineConfig(**CONFIG, **overrides)
        )


class TestResultLifetime:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_result_is_readable_after_the_run_released_its_store(
        self, ds_single, executor
    ):
        before = segments()
        workers = 2 if executor == "process" else None
        pre = fresh_run(
            ds_single, executor=executor, executor_workers=workers
        ).preprocess
        assert segments() <= before
        assert not pre.store.shared and not pre.store.closed
        assert pre.output_reads == len(pre.reads) == pre.store.n_reads > 0
        assert pre.modal_read_length == np.bincount(pre.store.lengths).argmax()
        want = preprocess_reference(ds_single.run.all_reads())
        assert pre.reads == want.reads

    def test_result_pickles_its_store_by_value(self, reads_single):
        pre = preprocess(reads_single)
        shared = pre.store.alias()
        shared.share()
        try:
            blob = pickle.dumps(replace(pre, store=shared))
        finally:
            shared.close()
        assert shared.closed  # the segment is gone; the pickle is not
        back = pickle.loads(blob)
        assert not back.store.shared
        assert back.store.digest == pre.store.digest
        assert back.reads == pre.reads
        assert all(
            getattr(back, name) == getattr(pre, name) for name in COUNTERS
        )

    def test_lazy_reads_are_not_pickled(self, reads_single):
        pre = preprocess(reads_single[:200])
        bare = len(pickle.dumps(pre))
        assert len(pre.reads) == pre.output_reads
        assert len(pickle.dumps(pre)) == bare


class TestNoRecordIsBuilt:
    def test_qc_and_fanout_setup_construct_no_fastq_record(
        self, ds_single, monkeypatch
    ):
        """The per-record loop cannot creep back: from the raw records to
        a finished run, nothing constructs a ``FastqRecord``."""
        reads = ds_single.run.all_reads()[:2000]
        run = replace(ds_single.run, reads=reads, mates=[])
        dataset = replace(ds_single, run=run)
        built = []
        init = FastqRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(fastq.FastqRecord, "__init__", counting_init)
        rec("ACGT")
        assert built == [1]  # the counter sees constructions
        del built[:]
        result = fresh_run(dataset)
        assert result.preprocess.input_reads == 2000
        assert result.quantification.assigned_reads > 0
        assert built == []
        assert len(result.preprocess.reads) == result.preprocess.output_reads
        assert len(built) == result.preprocess.output_reads  # .reads does
