"""``MapReduceEngine.record_shuffle`` against the oracle's ``run``: a job
booked from the columns of its shuffle enters the books exactly as the
same job streamed through ``exec_reference.ExecEngine`` record by record."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.mapreduce import MapReduceEngine
from tests.parallel.exec_reference import ExecEngine, MRJob

#: (integer key, payload): integer keys hash to themselves, so the
#: engine's ``hash(key) % n`` placement is ``key % n`` under any seed.
RECORDS = st.lists(
    st.tuples(st.integers(0, 40), st.binary(max_size=12)), max_size=60
)


def _passthrough(key, payload):
    yield key, payload


def _count_reducer(key, values):
    yield key, len(values)


def _size_combiner(key, payloads):
    yield key, sum(map(len, payloads))  # one int: 8 bytes


@settings(max_examples=60, deadline=None)
@given(records=RECORDS, workers=st.sampled_from((1, 2, 3, 8)), combine=st.booleans())
def test_books_what_run_measures(records, workers, combine):
    ran, booked = ExecEngine(workers), MapReduceEngine(workers)
    job = MRJob(
        "job", _passthrough, _count_reducer,
        combiner=_size_combiner if combine else None,
    )
    ran.run(job, records)

    keys, dense = np.unique(
        np.array([k for k, _ in records], dtype=np.int64), return_inverse=True
    )
    booked.record_shuffle(
        "job",
        map_input_records=len(records),
        task=np.arange(len(records)) % workers,
        key=dense,
        value_nbytes=(
            8 if combine
            else np.array([len(p) for _, p in records], dtype=np.int64)
        ),
        combined=combine,
        key_nbytes=8,
        partition=keys % workers,
        reduce_output_records=len(keys),
    )
    assert booked.job_stats == ran.job_stats
    assert booked.usage == ran.usage  # the PhaseUsage and the reducer peak


def test_per_key_byte_columns():
    """Keys of different sizes: two map tasks, three keys, by hand."""
    eng = MapReduceEngine(2)
    eng.record_shuffle(
        "job",
        map_input_records=4,
        task=np.array([0, 1, 0, 1]),
        key=np.array([0, 0, 1, 2]),
        value_nbytes=np.array([5, 7, 11, 13]),
        key_nbytes=np.array([100, 200, 300]),
        partition=np.array([0, 1, 0]),
        reduce_output_records=3,
    )
    stats = eng.job_stats[0]
    # four (task, key) groups, each shipping its key and a value list
    assert stats.shuffle_bytes == (100 + 16) * 2 + (200 + 16) + (300 + 16) + 36
    assert stats.combine_output_records == stats.map_output_records == 4
    assert stats.reduce_input_groups == 3
    # partition 0 holds keys 0 and 2: one dict of two merged lists
    assert eng.usage.peak_rank_memory_bytes == 16 + (100 + 16 + 12) + (300 + 16 + 13)
