"""The executing forms of ``repro.parallel``, kept as the test oracle.

``src/`` only books: :meth:`~repro.parallel.comm.SimWorld.collective`
takes off-node bytes an assembler counts in closed form, and
:meth:`~repro.parallel.mapreduce.MapReduceEngine.record_shuffle` books a
job from its shuffle's columns.  What they must equal lives here, moved
verbatim: the generic payload-size walk :func:`nbytes`, payload-carrying
``alltoall`` / ``gather`` on :class:`ExecWorld`, and the record-at-a-time
map / combine / shuffle / sort / reduce of :class:`ExecEngine` with its
:class:`MRJob`.  The reference assemblers in ``tests/assembly/`` run on
these; their parity tests hold the closed forms equal to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.parallel.comm import CommError, SimWorld
from repro.parallel.mapreduce import MapReduceEngine, MRJobStats

KV = tuple[Hashable, Any]
Mapper = Callable[[Hashable, Any], Iterable[KV]]
Reducer = Callable[[Hashable, list[Any]], Iterable[KV]]


def nbytes(obj) -> int:
    """Approximate serialized size of a message payload in bytes."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        # Serialized size is the UTF-8 encoding, not the code-point count
        # (len(str) under-charges any non-ASCII payload).
        return len(obj.encode("utf-8"))
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, dict):
        return sum(nbytes(k) + nbytes(v) for k, v in obj.items()) + 16
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(nbytes(x) for x in obj) + 16
    # dataclasses / misc objects: shallow dict walk
    if hasattr(obj, "__dict__"):
        return nbytes(vars(obj)) + 16
    return 64


class ExecWorld(SimWorld):
    """A :class:`SimWorld` whose collectives carry their payloads."""

    def alltoall(
        self,
        send: Sequence[Sequence[Any]],
        nbytes_of: Callable[[Any], int] | None = None,
    ) -> list[list[Any]]:
        """All-to-all personalized exchange.

        ``send[src][dst]`` is the payload from ``src`` to ``dst``; the
        return value ``recv`` satisfies ``recv[dst][src] == send[src][dst]``.
        Only off-diagonal payloads count as communication.

        ``nbytes_of`` overrides the payload-size measure for accounting.
        The cost model is calibrated to the *logical* record size of a
        payload (e.g. k bytes per k-mer); callers shipping a compressed
        physical representation pass the logical measure here so charged
        communication stays identical to the uncompressed exchange.
        """
        self._check_matrix(send)
        measure = nbytes if nbytes_of is None else nbytes_of
        off_node = sum(
            measure(send[s][d])
            for s in range(self.size)
            for d in range(self.size)
            if s != d
        )
        self.collective(off_node)
        return [[send[s][d] for s in range(self.size)] for d in range(self.size)]

    def _check_matrix(self, send) -> None:
        if len(send) != self.size or any(len(row) != self.size for row in send):
            raise CommError(
                f"alltoall needs a {self.size}x{self.size} payload matrix"
            )

    def gather(self, values: Sequence[Any], root: int = 0) -> list[Any]:
        """Gather per-rank values to ``root``; returns the full list."""
        if len(values) != self.size:
            raise CommError(f"expected one value per rank ({self.size})")
        self._check_rank(root)
        off_node = sum(nbytes(v) for r, v in enumerate(values) if r != root)
        self.collective(off_node)
        return list(values)


@dataclass(frozen=True)
class MRJob:
    """One MapReduce job: a mapper, a reducer and an optional combiner.

    The combiner, when given, runs on each mapper's local output groups
    before the shuffle (the standard Hadoop optimization) and must be
    semantically compatible with the reducer.

    ``key_nbytes`` and ``value_nbytes``, when given, price one
    intermediate key / one intermediate value in the shuffle and
    reducer-memory accounting in place of the generic :func:`nbytes`
    walk (the same idea as ``alltoall(nbytes_of=)``).  Two uses: a key
    that is a compressed stand-in for a logical record (packed-integer
    k-mers standing in for k code bytes) passes the logical size, so the
    charged bytes stay those of the uncompressed keys; and a job whose
    records have a known shape passes the closed form of what ``nbytes``
    would return, which must equal it exactly (the tests gate this) and
    only saves the walk.
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    combiner: Reducer | None = None
    key_nbytes: Callable[[Hashable], int] | None = None
    value_nbytes: Callable[[Any], int] | None = None


class ExecEngine(MapReduceEngine):
    """A :class:`MapReduceEngine` that executes jobs record by record.

    Virtual bytes are priced in a single pass: each shuffled
    ``(key, value list)`` is measured once, as it leaves its map task,
    and that one number is charged to ``shuffle_bytes`` and added to the
    size of the reduce partition the key hashes to.

    Every :class:`MRJobStats` field and the set of output records are
    independent of ``PYTHONHASHSEED``.  Output *order* and
    ``peak_rank_memory_bytes`` follow which keys share a partition, so
    :meth:`run` keeps them seed-independent only for keys whose
    ``hash()`` is (ints).
    """

    def run(self, job: MRJob, records: Sequence[KV]) -> list[KV]:
        """Execute one job, book it, and return its sorted output records."""
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
        self.record_job(stats, max(part_bytes))
        return output
