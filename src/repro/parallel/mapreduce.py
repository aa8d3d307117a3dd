"""MapReduce job accounting with Hadoop-like cost structure.

Contrail (Schatz et al.) runs DBG assembly as a *sequence of MapReduce
jobs*: graph construction, then repeated path-compression / tip-removal
rounds.  Two properties of that execution model drive the paper's Fig. 3
result (Contrail very slow on few nodes, converging at many):

* each job pays a fixed startup/teardown overhead regardless of size, and
* map/shuffle/reduce are embarrassingly parallel, so adding workers keeps
  helping until the overhead floor dominates.

No record streams through this engine: a job enters the books from the
columns of its shuffle (:meth:`MapReduceEngine.record_shuffle`), which
the cost model prices per job.  The record-at-a-time map / combine /
shuffle / sort / reduce those columns must equal is the test oracle
``tests/parallel/exec_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import get_tracer
from repro.parallel.usage import PhaseUsage, ResourceUsage


@dataclass
class MRJobStats:
    """Statistics of one job."""

    name: str
    map_input_records: int = 0
    map_output_records: int = 0
    combine_output_records: int = 0
    shuffle_bytes: int = 0
    reduce_input_groups: int = 0
    reduce_output_records: int = 0

    @property
    def map_work(self) -> float:
        return float(self.map_input_records + self.map_output_records)

    @property
    def reduce_work(self) -> float:
        return float(self.combine_output_records + self.reduce_output_records)


class MapReduceEngine:
    """Books jobs over ``n_workers`` simulated workers.

    Work is hash-partitioned: records are split across map tasks, and
    intermediate keys across reduce tasks, exactly as a real cluster would.
    Statistics are accumulated into a :class:`ResourceUsage` with one
    phase per job so downstream pricing can count jobs and shuffles.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.job_stats: list[MRJobStats] = []
        self.usage = ResourceUsage(n_ranks=n_workers)

    def record_job(
        self, stats: MRJobStats, peak_partition_bytes: int = 0
    ) -> None:
        """The one place a job enters the books: the ``mr:<name>`` span
        and ``mr_jobs`` counter, the :class:`MRJobStats` entry, the
        reducer-memory peak, and the priced :class:`PhaseUsage`."""
        with get_tracer().span(
            f"mr:{stats.name}", category="mapreduce", n_workers=self.n_workers
        ) as sp:
            sp.set(
                map_input_records=stats.map_input_records,
                map_output_records=stats.map_output_records,
                shuffle_bytes=stats.shuffle_bytes,
                reduce_input_groups=stats.reduce_input_groups,
                reduce_output_records=stats.reduce_output_records,
            )
            get_tracer().count("mr_jobs")
            self.job_stats.append(stats)
            self.usage.peak_rank_memory_bytes = max(
                self.usage.peak_rank_memory_bytes, peak_partition_bytes
            )
            work = stats.map_work + stats.reduce_work
            self.usage.add_phase(
                PhaseUsage(
                    name=stats.name,
                    kind="mr_job",
                    critical_compute=work / self.n_workers,
                    total_compute=work,
                    comm_bytes=stats.shuffle_bytes,
                    n_collectives=1,
                    n_jobs=1,
                )
            )

    def record_shuffle(
        self,
        name: str,
        *,
        map_input_records: int,
        task: np.ndarray,
        key: np.ndarray,
        value_nbytes,
        key_nbytes,
        partition: np.ndarray,
        reduce_output_records: int,
        combined: bool = False,
    ) -> None:
        """Account one job from the columns of its shuffle (DESIGN §5).

        Per emitted record: its map ``task``, its dense ``key`` id (every
        id in ``range(len(partition))`` occurs) and its ``value_nbytes``;
        per key: its ``key_nbytes`` and its reduce ``partition``.  Byte
        columns may be scalars.  ``combined``: a combiner folds each
        (task, key) group into one value of ``value_nbytes``.

        What the oracle's executed job measures record by record: every
        distinct (task, key) group ships its key and a value list,
        ``shuffle_bytes = sum_groups(key + 16) + sum(values)``; a reduce
        partition is one dict of merged lists, ``16 + sum_keys(key + 16)
        + sum(values)``, and the largest is the job's reducer-memory peak.
        """
        n_keys, n_emitted = int(partition.shape[0]), int(key.shape[0])
        # Distinct (task, key) groups: sort, keep each run's first.
        groups = task * n_keys + key
        groups.sort()
        first = np.empty(groups.shape, dtype=bool)
        first[:1] = True
        np.not_equal(groups[1:], groups[:-1], out=first[1:])
        n_groups = int(np.count_nonzero(first))
        if combined or np.ndim(key_nbytes):
            group_key = groups[first] % n_keys
        if combined:  # what is shuffled is one value per group
            key = group_key
        # A scalar byte column scales a count; sums of small integers
        # stay exact in bincount's float64.
        if np.ndim(value_nbytes):
            values = np.bincount(key, value_nbytes, minlength=n_keys)
        else:
            values = np.bincount(key, minlength=n_keys) * value_nbytes
        key_bytes = (
            key_nbytes[group_key].sum() if np.ndim(key_nbytes) else key_nbytes * n_groups
        )
        parts = np.bincount(
            partition, key_nbytes + 16 + values, minlength=self.n_workers
        )
        stats = MRJobStats(
            name=name,
            map_input_records=map_input_records,
            map_output_records=n_emitted,
            combine_output_records=int(key.shape[0]),
            shuffle_bytes=int(key_bytes + 16 * n_groups + values.sum()),
            reduce_input_groups=n_keys,
            reduce_output_records=reduce_output_records,
        )
        self.record_job(stats, 16 + int(parts.max()))
