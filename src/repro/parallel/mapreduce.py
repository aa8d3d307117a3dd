"""A functional MapReduce engine with Hadoop-like cost structure.

Contrail (Schatz et al.) runs DBG assembly as a *sequence of MapReduce
jobs*: graph construction, then repeated path-compression / tip-removal
rounds.  Two properties of that execution model drive the paper's Fig. 3
result (Contrail very slow on few nodes, converging at many):

* each job pays a fixed startup/teardown overhead regardless of size, and
* map/shuffle/reduce are embarrassingly parallel, so adding workers keeps
  helping until the overhead floor dominates.

This engine executes real ``(key, value)`` map/combine/shuffle/sort/reduce
semantics and records per-job statistics that the cost model prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.obs import get_tracer
from repro.parallel.usage import PhaseUsage, ResourceUsage, nbytes

KV = tuple[Hashable, Any]
Mapper = Callable[[Hashable, Any], Iterable[KV]]
Reducer = Callable[[Hashable, list[Any]], Iterable[KV]]


@dataclass(frozen=True)
class MRJob:
    """One MapReduce job: a mapper, a reducer and an optional combiner.

    The combiner, when given, runs on each mapper's local output groups
    before the shuffle (the standard Hadoop optimization) and must be
    semantically compatible with the reducer.

    ``key_nbytes`` and ``value_nbytes``, when given, price one
    intermediate key / one intermediate value in the shuffle and
    reducer-memory accounting in place of the generic
    :func:`~repro.parallel.usage.nbytes` walk (the same idea as
    ``alltoall(nbytes_of=)``).  Two uses: a key that is a compressed
    stand-in for a logical record (packed-integer k-mers standing in for
    k code bytes) passes the logical size, so the charged bytes stay
    those of the uncompressed keys; and a job whose records have a known
    shape passes the closed form of what ``nbytes`` would return, which
    must equal it exactly (the tests gate this) and only saves the walk.
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    combiner: Reducer | None = None
    key_nbytes: Callable[[Hashable], int] | None = None
    value_nbytes: Callable[[Any], int] | None = None


@dataclass
class MRJobStats:
    """Measured statistics of one executed job."""

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
    """Executes jobs over ``n_workers`` simulated workers.

    Work is hash-partitioned: records are split across map tasks, and
    intermediate keys across reduce tasks, exactly as a real cluster would.
    Statistics are accumulated into a :class:`ResourceUsage` with one
    phase per job so downstream pricing can count jobs and shuffles.

    Virtual bytes are priced in a single pass: each shuffled
    ``(key, value list)`` is measured once, as it leaves its map task,
    and that one number is charged to ``shuffle_bytes`` and added to the
    size of the reduce partition the key hashes to.

    Every :class:`MRJobStats` field and the set of output records are
    independent of ``PYTHONHASHSEED``.  Output *order* and
    ``peak_rank_memory_bytes`` follow which keys share a partition, so
    :meth:`run` keeps them seed-independent only for keys whose
    ``hash()`` is (ints).  A job whose shuffle is already laid out as
    arrays is booked by :meth:`record_shuffle` instead, from its columns.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.job_stats: list[MRJobStats] = []
        self.usage = ResourceUsage(n_ranks=n_workers)

    def run(self, job: MRJob, records: Sequence[KV]) -> list[KV]:
        """Execute one job and return its sorted output records."""
        with get_tracer().span(
            f"mr:{job.name}", category="mapreduce", n_workers=self.n_workers
        ) as sp:
            return self._run_job(job, records, sp)

    def _run_job(self, job: MRJob, records: Sequence[KV], sp) -> list[KV]:
        n = self.n_workers
        mapper, combiner, reducer = job.mapper, job.combiner, job.reducer
        key_size = job.key_nbytes or nbytes
        value_size = job.value_nbytes or nbytes
        map_out = combine_out = shuffle_bytes = 0

        # Reducer-side memory mirrors nbytes(dict) per partition: 16 for
        # the container plus key + nbytes(value list) per entry.
        partitions: list[dict[Hashable, list[Any]]] = [{} for _ in range(n)]
        part_bytes = [16] * n

        # Map: records split round-robin over map tasks; each task's output
        # is optionally combined locally, then hash-partitioned over the
        # reduce tasks.  Every shuffled (key, value list) is priced here,
        # once; the same integers give the partition sizes.
        for task in range(n):
            local: dict[Hashable, list[Any]] = {}
            for k, v in records[task::n]:
                for ok, ov in mapper(k, v):
                    vs = local.get(ok)
                    if vs is None:
                        local[ok] = [ov]
                    else:
                        vs.append(ov)
            emitted = sum(map(len, local.values()))
            map_out += emitted
            if combiner is not None:
                combined: dict[Hashable, list[Any]] = {}
                for k, vs in local.items():
                    for ck, cv in combiner(k, vs):
                        combine_out += 1
                        combined.setdefault(ck, []).append(cv)
                local = combined
            else:
                combine_out += emitted

            for k, vs in local.items():
                kb = key_size(k)
                vb = sum(map(value_size, vs)) + 16  # == nbytes(vs)
                shuffle_bytes += kb + vb
                dest = hash(k) % n
                part = partitions[dest]
                merged = part.get(k)
                if merged is None:
                    part[k] = vs
                    part_bytes[dest] += kb + vb
                else:
                    # A list is its elements + 16, so appending to a key
                    # already present adds the elements only.
                    merged.extend(vs)
                    part_bytes[dest] += vb - 16

        # Sort + Reduce.
        output: list[KV] = []
        for part in partitions:
            for k in sorted(part, key=repr):
                output.extend(reducer(k, part[k]))

        stats = MRJobStats(
            name=job.name,
            map_input_records=len(records),
            map_output_records=map_out,
            combine_output_records=combine_out,
            shuffle_bytes=shuffle_bytes,
            reduce_input_groups=sum(map(len, partitions)),
            reduce_output_records=len(output),
        )
        # The largest partition must fit on one reducer.
        self._book(stats, max(part_bytes), sp)
        return output

    def record_job(
        self, stats: MRJobStats, peak_partition_bytes: int = 0
    ) -> None:
        """Account one job whose statistics were *derived* instead of
        executed (:meth:`record_shuffle` derives them), with the identical
        observable footprint of :meth:`run`: the ``mr:<name>`` span and
        ``mr_jobs`` counter, the :class:`MRJobStats` entry, the
        reducer-memory peak, and the priced :class:`PhaseUsage`.
        """
        with get_tracer().span(
            f"mr:{stats.name}", category="mapreduce", n_workers=self.n_workers
        ) as sp:
            self._book(stats, peak_partition_bytes, sp)

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

        What :meth:`run` measures record by record: every distinct (task,
        key) group ships its key and a value list, ``shuffle_bytes =
        sum_groups(key + 16) + sum(values)``; a reduce partition is one
        dict of merged lists, ``16 + sum_keys(key + 16) + sum(values)``,
        and the largest is the job's reducer-memory peak.
        """
        n_keys, n_emitted = int(partition.shape[0]), int(key.shape[0])
        key_nbytes = np.broadcast_to(key_nbytes, n_keys)
        # Distinct (task, key) groups: sort, keep each run's first.
        groups = np.sort(task * n_keys + key)
        group_key = groups[np.diff(groups, prepend=-1) != 0] % n_keys
        if combined:  # what is shuffled is one value per group
            key = group_key
        # Sums of small integers stay exact in bincount's float64.
        values = np.bincount(
            key, np.broadcast_to(value_nbytes, key.shape), minlength=n_keys
        )
        parts = np.bincount(
            partition, key_nbytes + 16 + values, minlength=self.n_workers
        )
        stats = MRJobStats(
            name=name,
            map_input_records=map_input_records,
            map_output_records=n_emitted,
            combine_output_records=int(key.shape[0]),
            shuffle_bytes=int((key_nbytes[group_key] + 16).sum() + values.sum()),
            reduce_input_groups=n_keys,
            reduce_output_records=reduce_output_records,
        )
        self.record_job(stats, 16 + int(parts.max()))

    def _book(self, stats: MRJobStats, peak_bytes: int, sp) -> None:
        """The one place a job, executed or derived, enters the books."""
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
            self.usage.peak_rank_memory_bytes, peak_bytes
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

    def chain(
        self, jobs: Iterable[MRJob], records: Sequence[KV]
    ) -> list[KV]:
        """Run jobs sequentially, feeding each job's output to the next."""
        current = list(records)
        for job in jobs:
            current = self.run(job, current)
        return current
