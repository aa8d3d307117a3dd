"""Reference Contrail on the record-at-a-time engine — the test oracle.

This is the implementation ``repro.assembly.contrail`` shipped before its
compression rounds became array kernels, kept verbatim: ``_Segment``
objects in a ``dict`` (insertion order = record order), ``pair_<r>`` /
``merge_<r>`` as mapper/reducer closures run by the executing
``ExecEngine.run`` (``tests/parallel/exec_reference.py``), ``_join`` on
code ``bytes``, the same control loop over rounds.  Three things differ
from what shipped, on purpose:

* no ``key_nbytes`` / ``value_nbytes``: every shuffled key and value is
  sized by the generic ``exec_reference.nbytes`` walk, so the kernels'
  closed forms are checked against first principles;
* the ``kmer_count`` job is *executed* (one read at a time, packed-int
  keys priced at their logical k bytes) instead of derived;
* a junction key hashes to its dense rank among the round's distinct
  canonical junctions (:class:`_Junction`), the placement contract that
  replaced the ``PYTHONHASHSEED``-seeded ``hash(bytes)``.

``BRANCHES`` counts which paths ran, so a differential test can show it
reached all of them; ``trace`` receives the merge list and the segment
table after every round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.assembly import packed as packedmod
from repro.assembly.base import AssemblyParams, contig_order, unitigs_to_contigs
from repro.assembly.cleanup import clean_unitigs
from repro.assembly.contigs import AssemblyResult, assembly_stats
from repro.assembly.dbg import Unitig
from repro.seq.readstore import ReadStore
from tests.assembly.kmer_reference import canonical, canonical_kmers, revcomp_kmer
from tests.parallel.exec_reference import ExecEngine, MRJob

MAX_ROUNDS = 24

#: join_1..join_4 (``_join``'s tests in priority order), kept_apart,
#: second_tail (a head absorbing on both ends) and self_adjacent (the
#: ``a == b`` skip in the pair reducer).
BRANCHES: Counter = Counter()


@dataclass
class _Segment:
    """A growing chain of merged k-mers (Contrail node record)."""

    sid: int
    codes: bytes  # oriented base codes
    cov_sum: float
    n_kmers: int

    def junctions(self, k: int) -> tuple[bytes, bytes]:
        left = self.codes[: k - 1]
        right = self.codes[-(k - 1):]
        return canonical(left), canonical(right)


class _Junction(bytes):
    """A junction key placed by its dense rank (``hash(key) % n``)."""

    rank: int

    def __hash__(self) -> int:
        return self.rank


def _coin(sid: int, round_no: int) -> bool:
    """Deterministic per-round coin: True = Head (absorber)."""
    x = (sid * 0x9E3779B97F4A7C15 + round_no * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x ^= x >> 31
    return bool(x & 1)


def _join(a: bytes, b: bytes, k: int) -> bytes | None:
    """Concatenate segment code strings overlapping by k-1, flipping b if
    needed; returns None when they do not actually overlap."""
    tail = a[-(k - 1):]
    if b[: k - 1] == tail:
        BRANCHES["join_1"] += 1
        return a + b[k - 1:]
    brc = revcomp_kmer(b)
    if brc[: k - 1] == tail:
        BRANCHES["join_2"] += 1
        return a + brc[k - 1:]
    head = a[: k - 1]
    if b[-(k - 1):] == head:
        BRANCHES["join_3"] += 1
        return b + a[k - 1:]
    if brc[-(k - 1):] == head:
        BRANCHES["join_4"] += 1
        return brc + a[k - 1:]
    return None


def executed_kmer_count(
    engine: ExecEngine, store: ReadStore, params: AssemblyParams
) -> dict[int, int]:
    """The ``kmer_count`` job streamed through the engine as a generic
    :class:`MRJob`, one read at a time — what ``_derive_kmer_count``
    books without running.  Keys travel as packed integers and are
    priced at their logical k-byte record size."""
    k = params.k

    def mapper(_rid, codes):
        for row in canonical_kmers(codes, k):
            yield _codes_to_int(row.tolist(), k), 1

    def combiner(kmer, values):
        yield kmer, sum(values)

    def reducer(kmer, values):
        total = sum(values)
        if total >= params.min_count:
            yield kmer, total

    job = MRJob(
        "kmer_count", mapper, reducer, combiner=combiner,
        key_nbytes=lambda _key: k,
    )
    return dict(
        engine.run(job, [(i, store.read_codes(i)) for i in range(store.n_reads)])
    )


def _codes_to_int(codes, k: int) -> int:
    """A k-mer's base codes as one left-aligned packed integer key."""
    key = 0
    for c in codes:
        key = key << 2 | c
    return key << (64 * packedmod.words_for(k) - 2 * k)


def _int_to_codes(key: int, k: int) -> bytes:
    width = 64 * packedmod.words_for(k)
    return bytes((key >> (width - 2 * (i + 1))) & 3 for i in range(k))


def initial_segments(counts: dict[int, int], k: int) -> dict[int, _Segment]:
    """Solid k-mers (packed-int keys) as one-k-mer segments, ids in
    ``sorted(bytes)`` order."""
    by_bytes = {_int_to_codes(key, k): c for key, c in counts.items()}
    return {
        i: _Segment(sid=i, codes=kmer, cov_sum=float(c), n_kmers=1)
        for i, (kmer, c) in enumerate(sorted(by_bytes.items()))
    }


def job_pair(
    engine: ExecEngine,
    segments: dict[int, _Segment],
    k: int,
    round_no: int,
) -> list[tuple[int, int]]:
    """Junction pairing job; returns (head_sid, tail_sid) merges."""
    ranks = {
        j: i
        for i, j in enumerate(
            sorted({j for seg in segments.values() for j in seg.junctions(k)})
        )
    }

    def ranked(junction: bytes) -> _Junction:
        key = _Junction(junction)
        key.rank = ranks[junction]
        return key

    def mapper(sid, seg):
        jl, jr = seg.junctions(k)
        yield ranked(jl), sid
        yield ranked(jr), sid

    def reducer(junction, sids):
        if len(sids) != 2:
            return  # branch or dead end: not compressible
        a, b = sids
        if a == b:
            BRANCHES["self_adjacent"] += 1
            return  # palindromic self-adjacency
        ca, cb = _coin(a + round_no, round_no), _coin(b + round_no, round_no)
        if ca == cb:
            return  # same coin: retry next round
        head, tail = (a, b) if ca else (b, a)
        yield head, tail

    job = MRJob(f"pair_{round_no}", mapper, reducer)
    out = engine.run(job, list(segments.items()))
    # A tail may pair with heads on both of its ends; keep one merge
    # per tail (deterministic: smallest head id).
    chosen: dict[int, int] = {}
    for head, tail in out:
        if tail not in chosen or head < chosen[tail]:
            chosen[tail] = head
    return sorted((h, t) for t, h in chosen.items())


def job_merge(
    engine: ExecEngine,
    segments: dict[int, _Segment],
    merges: list[tuple[int, int]],
    k: int,
    round_no: int,
) -> dict[int, _Segment]:
    """Apply absorptions: every record keyed by its (possibly new) owner."""
    absorbed_by = {t: h for h, t in merges}

    def mapper(sid, seg):
        target = absorbed_by.get(sid, sid)
        yield target, seg

    def reducer(sid, segs):
        if len(segs) == 1:
            yield sid, segs[0]
            return
        # Head absorbs one tail per end; join greedily.
        segs = sorted(segs, key=lambda s: s.sid)
        base = next(s for s in segs if s.sid == sid)
        rest = [s for s in segs if s.sid != sid]
        if len(rest) > 1:
            BRANCHES["second_tail"] += 1
        codes = base.codes
        cov = base.cov_sum
        n = base.n_kmers
        for t in rest:
            joined = _join(codes, t.codes, k)
            if joined is None:
                # Pathological canonical-junction collision: keep apart.
                BRANCHES["kept_apart"] += 1
                yield t.sid, t
                continue
            codes = joined
            cov += t.cov_sum
            n += t.n_kmers
        yield sid, _Segment(sid=sid, codes=codes, cov_sum=cov, n_kmers=n)

    job = MRJob(f"merge_{round_no}", mapper, reducer)
    return dict(engine.run(job, list(segments.items())))


def compressible_junctions(segments: dict[int, _Segment], k: int) -> int:
    """Junctions a further round could still join: exactly two
    incidences, on two distinct segments."""
    incident: dict[bytes, list[int]] = {}
    for sid, seg in segments.items():
        for junction in seg.junctions(k):
            incident.setdefault(junction, []).append(sid)
    return sum(len(s) == 2 and s[0] != s[1] for s in incident.values())


def reference_contrail_assemble(
    store: ReadStore,
    params: AssemblyParams,
    n_ranks: int = 8,
    trace: list | None = None,
    max_rounds: int = MAX_ROUNDS,
) -> AssemblyResult:
    """The driver loop; appends ``(merges, segments)`` per round to
    ``trace`` (the last entry's merge list is empty when no merge fired).
    ``compression_converged`` holds when no compressible junction is
    left (:func:`compressible_junctions`), whatever stopped the loop."""
    k = params.k
    engine = ExecEngine(n_ranks)
    counts = executed_kmer_count(engine, store, params)
    segments = initial_segments(counts, k)

    rounds = 0
    for round_no in range(max_rounds):
        merges = job_pair(engine, segments, k, round_no)
        if not merges:
            if trace is not None:
                trace.append((merges, segments))
            break
        segments = job_merge(engine, segments, merges, k, round_no)
        if trace is not None:
            trace.append((merges, segments))
        rounds += 1

    unitigs = [
        Unitig(
            codes=np.frombuffer(s.codes, dtype=np.uint8).copy(),
            coverage=s.cov_sum / s.n_kmers,
            n_kmers=s.n_kmers,
        )
        for s in segments.values()
    ]
    unitigs, cstats = clean_unitigs(unitigs, k)
    contigs = unitigs_to_contigs(contig_order(unitigs), params, "contrail")
    return AssemblyResult(
        assembler="contrail",
        k=k,
        contigs=contigs,
        usage=engine.usage,
        stats={
            "n_ranks": n_ranks,
            "mr_jobs": len(engine.job_stats),
            "compression_rounds": rounds,
            "compression_converged": compressible_junctions(segments, k) == 0,
            "distinct_kmers": len(counts),
            "tips_removed": cstats.tips_removed,
            "bubbles_popped": cstats.bubbles_popped,
            **assembly_stats(contigs),
        },
    )
