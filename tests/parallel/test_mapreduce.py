"""Tests for the MapReduce engine: the record-at-a-time oracle
``exec_reference.ExecEngine``, and the ledger it books through."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.mapreduce import MapReduceEngine
from tests.parallel.exec_reference import ExecEngine, MRJob, nbytes


def wordcount_mapper(_key, line):
    for word in line.split():
        yield word, 1


def sum_reducer(key, values):
    yield key, sum(values)


WORDCOUNT = MRJob("wordcount", wordcount_mapper, sum_reducer)
WORDCOUNT_COMBINED = MRJob("wordcount", wordcount_mapper, sum_reducer,
                           combiner=sum_reducer)


class TestEngine:
    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            MapReduceEngine(0)

    def test_wordcount(self):
        eng = ExecEngine(3)
        out = eng.run(WORDCOUNT, [(i, "a b a") for i in range(4)])
        assert dict(out) == {"a": 8, "b": 4}

    def test_combiner_same_result_fewer_shuffle_bytes(self):
        records = [(i, "x y x x") for i in range(50)]
        plain = ExecEngine(4)
        combined = ExecEngine(4)
        out1 = plain.run(WORDCOUNT, records)
        out2 = combined.run(WORDCOUNT_COMBINED, records)
        assert dict(out1) == dict(out2)
        assert combined.job_stats[0].shuffle_bytes < plain.job_stats[0].shuffle_bytes

    def test_worker_count_does_not_change_result(self):
        records = [(i, f"w{i % 7} w{i % 3}") for i in range(60)]
        results = [
            dict(ExecEngine(n).run(WORDCOUNT, records)) for n in (1, 2, 5, 16)
        ]
        assert all(r == results[0] for r in results)

    def test_stats_recorded(self):
        eng = ExecEngine(2)
        eng.run(WORDCOUNT, [(0, "a b"), (1, "c")])
        s = eng.job_stats[0]
        assert s.map_input_records == 2
        assert s.map_output_records == 3
        assert s.reduce_input_groups == 3
        assert s.reduce_output_records == 3
        assert s.shuffle_bytes > 0

    def test_usage_phases_one_per_job(self):
        eng = ExecEngine(2)
        eng.run(WORDCOUNT, [(0, "a")])
        eng.run(WORDCOUNT, [(0, "b")])
        u = eng.usage
        assert len(u.phases) == 2
        assert all(p.kind == "mr_job" for p in u.phases)
        assert u.n_jobs == 2

    def test_empty_input(self):
        eng = ExecEngine(2)
        assert eng.run(WORDCOUNT, []) == []
        assert eng.job_stats[0].map_input_records == 0

    def test_memory_tracked(self):
        eng = ExecEngine(2)
        eng.run(WORDCOUNT, [(i, "word " * 50) for i in range(20)])
        assert eng.usage.peak_rank_memory_bytes > 0

    def test_critical_compute_divided_by_workers(self):
        records = [(i, "a b c") for i in range(40)]
        e1, e4 = ExecEngine(1), ExecEngine(4)
        e1.run(WORDCOUNT, records)
        e4.run(WORDCOUNT, records)
        c1 = e1.usage.phases[0].critical_compute
        c4 = e4.usage.phases[0].critical_compute
        assert c4 == pytest.approx(c1 / 4)

    @settings(max_examples=20, deadline=None)
    @given(
        words=st.lists(
            st.text(alphabet="abc", min_size=1, max_size=3), min_size=0, max_size=50
        ),
        workers=st.integers(min_value=1, max_value=8),
    )
    def test_wordcount_matches_counter(self, words, workers):
        from collections import Counter

        expected = Counter(words)
        eng = ExecEngine(workers)
        out = eng.run(WORDCOUNT, [(i, w) for i, w in enumerate(words)])
        assert dict(out) == dict(expected)

    @settings(max_examples=10, deadline=None)
    @given(workers=st.integers(min_value=1, max_value=6))
    def test_group_conservation(self, workers):
        # Every mapped key must arrive at exactly one reducer group.
        records = [(i, f"k{i % 11}") for i in range(100)]
        eng = ExecEngine(workers)
        out = eng.run(WORDCOUNT, records)
        assert sum(v for _, v in out) == 100
        assert len(out) == 11


class TestAccounting:
    """The charged bytes, recomputed from the inputs alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        lines=st.lists(
            st.lists(
                st.text(alphabet="abé", min_size=1, max_size=3), max_size=6
            ).map(" ".join),
            max_size=30,
        ),
        workers=st.integers(min_value=1, max_value=8),
        combine=st.booleans(),
    )
    def test_shuffle_bytes_and_peak_from_first_principles(
        self, lines, workers, combine
    ):
        eng = ExecEngine(workers)
        eng.run(
            WORDCOUNT_COMBINED if combine else WORDCOUNT, list(enumerate(lines))
        )

        # What each map task (records i % n) ships per key.
        shipped: list[dict[str, list[int]]] = [{} for _ in range(workers)]
        for i, line in enumerate(lines):
            for word in line.split():
                shipped[i % workers].setdefault(word, []).append(1)
        if combine:
            shipped = [{w: [sum(vs)] for w, vs in t.items()} for t in shipped]
        shuffle = sum(
            nbytes(w) + nbytes(vs) for t in shipped for w, vs in t.items()
        )
        # What each reduce task (hash(k) % n) holds before reducing.
        partitions: list[dict[str, list[int]]] = [{} for _ in range(workers)]
        for t in shipped:
            for w, vs in t.items():
                partitions[hash(w) % workers].setdefault(w, []).extend(vs)

        assert eng.job_stats[0].shuffle_bytes == shuffle
        assert eng.usage.peak_rank_memory_bytes == max(
            nbytes(p) for p in partitions
        )

    @pytest.mark.parametrize("workers", (1, 3, 8))
    def test_closed_form_measures_equal_generic(self, workers):
        records = [(i, f"w{i % 7} é{i % 3} w{i % 2}") for i in range(60)]
        measured = MRJob(
            "wordcount", wordcount_mapper, sum_reducer,
            key_nbytes=lambda w: len(w.encode()), value_nbytes=lambda _v: 8,
        )
        generic, closed = ExecEngine(workers), ExecEngine(workers)
        out_generic = generic.run(WORDCOUNT, records)
        out_closed = closed.run(measured, records)
        assert out_closed == out_generic
        assert closed.job_stats == generic.job_stats
        assert (
            closed.usage.peak_rank_memory_bytes
            == generic.usage.peak_rank_memory_bytes
        )

    def test_measures_are_used_when_given(self):
        job = MRJob(
            "wordcount", wordcount_mapper, sum_reducer,
            key_nbytes=lambda _w: 100, value_nbytes=lambda _v: 1000,
        )
        eng = ExecEngine(1)
        eng.run(job, [(0, "a b a"), (1, "a")])
        # one map task ships a -> [1, 1, 1] and b -> [1]
        assert eng.job_stats[0].shuffle_bytes == (100 + 3016) + (100 + 1016)
        assert eng.usage.peak_rank_memory_bytes == 3116 + 1116 + 16

    def test_record_job_books_like_run(self):
        ran, derived = ExecEngine(3), MapReduceEngine(3)
        ran.run(WORDCOUNT, [(i, "a b a") for i in range(4)])
        derived.record_job(
            ran.job_stats[0], ran.usage.peak_rank_memory_bytes
        )
        assert derived.job_stats == ran.job_stats
        assert derived.usage == ran.usage
