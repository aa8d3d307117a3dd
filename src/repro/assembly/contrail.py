"""MapReduce DBG assembler (Contrail analog).

Contrail (Schatz et al. 2010) assembles on Hadoop as a chain of MapReduce
jobs: k-mer counting, graph/adjacency construction, then repeated
randomized path-compression rounds that contract linear chains (each round
is a full MapReduce job shipping node records — including their growing
sequences — through the shuffle).  The cost signature the paper observes
(Fig. 3, Table III) follows directly: heavy per-job startup overhead and a
JVM-class compute handicap make it very slow on small clusters, while the
embarrassingly parallel map/shuffle stages keep scaling until the
job-overhead floor is reached.

This implementation runs the job chain on
:class:`~repro.parallel.mapreduce.MapReduceEngine`:

1. ``kmer_count`` — reads to canonical k-mer counts (with combiner); its
   output and statistics are read off the job's counted spectrum and
   booked on the engine, not streamed through it,
2. ``adjacency`` — junction grouping; a junction incident to exactly two
   segment ends is compressible,
3. per round: ``pair_<r>`` (junction pairing + coin flip) and
   ``merge_<r>`` (apply absorptions), until no merge fires,
4. driver-side contig emission.

Input reads containing N produce no valid k-mers at those positions; the
paper notes Contrail *failed* outright on raw reads with N — modeled by
``fail_on_n`` (enabled by the pipeline when staging unpreprocessed data).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.assembly import packed as packedmod
from repro.assembly.base import AssemblyParams, unitigs_to_contigs
from repro.assembly.cleanup import clean_unitigs
from repro.assembly.contigs import AssemblyResult, assembly_stats
from repro.assembly.dbg import Unitig
from repro.assembly.kmers import canonical, revcomp_kmer
from repro.assembly.sweep import resolve_spectrum
from repro.parallel.mapreduce import MapReduceEngine, MRJob, MRJobStats
from repro.seq.readstore import ReadStore


logger = logging.getLogger(__name__)


class ContrailInputError(ValueError):
    """Raised when raw (unpreprocessed) reads break the Hadoop pipeline."""


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
        return _canon(left), _canon(right)


#: Junction canonicalization — the shared single-k-mer helper.
_canon = canonical


def _segment_nbytes(seg: _Segment) -> int:
    """Closed form of the generic ``nbytes(seg)`` walk: the four field
    names (22) and three scalars (24) plus dict and object overhead
    (16 + 16), plus the code bytes."""
    return len(seg.codes) + 78


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
        return a + b[k - 1:]
    brc = revcomp_kmer(b)
    if brc[: k - 1] == tail:
        return a + brc[k - 1:]
    head = a[: k - 1]
    if b[-(k - 1):] == head:
        return b + a[k - 1:]
    if brc[-(k - 1):] == head:
        return brc + a[k - 1:]
    return None


class ContrailAssembler:
    """Hadoop MapReduce-style DBG assembler."""

    name = "contrail"
    max_rounds = 24

    def assemble(
        self,
        store: ReadStore,
        params: AssemblyParams,
        n_ranks: int = 8,
        fail_on_n: bool = False,
        spectrum=None,
    ) -> AssemblyResult:
        if fail_on_n and store.contains_n():
            raise ContrailInputError(
                "input reads contain uncalled bases (N); Contrail requires "
                "pre-processed reads (see paper, Fig. 3 discussion)"
            )
        k = params.k
        spectrum = resolve_spectrum(store, k, spectrum)
        engine = MapReduceEngine(n_ranks)

        counts = self._derive_kmer_count(engine, store, params, spectrum)
        segments = {
            i: _Segment(sid=i, codes=kmer, cov_sum=float(c), n_kmers=1)
            for i, (kmer, c) in enumerate(sorted(counts.items()))
        }

        rounds = 0
        converged = False
        for round_no in range(self.max_rounds):
            merges = self._job_pair(engine, segments, k, round_no)
            if not merges:
                converged = True
                break
            segments = self._job_merge(engine, segments, merges, k, round_no)
            rounds += 1
        if not converged:
            logger.warning(
                "contrail k=%d: path compression stopped at max_rounds=%d "
                "with merges still firing (%d segments left); contigs may "
                "be split where a further round would have joined them",
                k, self.max_rounds, len(segments),
            )

        unitigs = [
            Unitig(
                codes=np.frombuffer(s.codes, dtype=np.uint8).copy(),
                coverage=s.cov_sum / s.n_kmers,
                n_kmers=s.n_kmers,
            )
            for s in segments.values()
        ]
        unitigs, cstats = clean_unitigs(
            unitigs, k, clip=params.clip_tips, pop=params.pop_bubbles
        )
        contigs = unitigs_to_contigs(unitigs, params, self.name)
        return AssemblyResult(
            assembler=self.name,
            k=k,
            contigs=contigs,
            usage=engine.usage,
            stats={
                "n_ranks": n_ranks,
                "mr_jobs": len(engine.job_stats),
                "compression_rounds": rounds,
                "compression_converged": converged,
                "distinct_kmers": len(counts),
                "tips_removed": cstats.tips_removed,
                "bubbles_popped": cstats.bubbles_popped,
                **assembly_stats(contigs),
            },
        )

    # -- jobs ----------------------------------------------------------------

    def _derive_kmer_count(
        self,
        engine: MapReduceEngine,
        store: ReadStore,
        params: AssemblyParams,
        spectrum,
    ) -> dict[bytes, int]:
        """The ``kmer_count`` job: reads to canonical k-mer counts, with
        a combiner, keys priced at their logical k-byte record size.

        The :class:`~repro.assembly.sweep.KmerSpectrum` already is the
        job's result, so instead of streaming every read through the
        engine the job's *measured statistics* are derived from the
        occurrence stream and booked via
        :meth:`~repro.parallel.mapreduce.MapReduceEngine.record_job`:

        * map input = reads, map output = occurrences;
        * combiner output = distinct (map task, k-mer) pairs — task of
          read ``i`` is ``i % n`` exactly as the engine splits records;
        * shuffle bytes price each pair as one logical k-byte key plus a
          single-element combiner value list;
        * the reducer-memory peak replays the engine's per-partition sum
          with ``hash(key) % n`` placement over the same integer keys;
        * reduce groups = distinct k-mers, outputs = those >= min_count.

        Every quantity equals the executed job's bit-for-bit
        (``tests/assembly/test_contrail.py`` runs that job through the
        engine and compares).
        """
        k = params.k
        n = engine.n_workers
        n_distinct = spectrum.n_distinct
        occ_task = spectrum.occ_read() % n
        pairs = np.unique(occ_task * n_distinct + spectrum.inverse)
        # Per distinct key: how many map tasks emitted it (the length of
        # its shuffled value list).
        multiplicity = np.bincount(pairs % n_distinct, minlength=n_distinct)
        ge = spectrum.counts >= params.min_count

        stats = MRJobStats(
            name="kmer_count",
            map_input_records=store.n_reads,
            map_output_records=spectrum.n_occurrences,
            combine_output_records=int(pairs.size),
            # Each (task, key) pair ships a k-byte logical key plus a
            # one-int value list (nbytes([v]) == 24).
            shuffle_bytes=int(pairs.size) * (k + 24),
            reduce_input_groups=n_distinct,
            reduce_output_records=int(ge.sum()),
        )
        int_keys = packedmod.packed_to_ints(spectrum.distinct, k)
        dests = np.fromiter(
            (hash(v) % n for v in int_keys),
            dtype=np.int64,
            count=n_distinct,
        )
        # nbytes(dict) pricing per partition: k + (8*m + 16) per key, +16
        # container overhead; sums of small ints stay exact in float64.
        per_key = k + 16 + 8 * multiplicity.astype(np.float64)
        part_bytes = np.bincount(dests, weights=per_key, minlength=n)
        peak = int(part_bytes.max()) + 16
        engine.record_job(stats, peak)

        byte_keys = packedmod.unpack_to_bytes(spectrum.distinct[ge], k)
        return dict(zip(byte_keys, spectrum.counts[ge].tolist()))

    def _job_pair(
        self,
        engine: MapReduceEngine,
        segments: dict[int, _Segment],
        k: int,
        round_no: int,
    ) -> list[tuple[int, int]]:
        """Junction pairing job; returns (head_sid, tail_sid) merges."""

        def mapper(sid, seg):
            jl, jr = seg.junctions(k)
            yield jl, sid
            yield jr, sid

        def reducer(junction, sids):
            if len(sids) != 2:
                return  # branch or dead end: not compressible
            a, b = sids
            if a == b:
                return  # palindromic self-adjacency
            ca, cb = _coin(a + round_no, round_no), _coin(b + round_no, round_no)
            if ca == cb:
                return  # same coin: retry next round
            head, tail = (a, b) if ca else (b, a)
            yield head, tail

        # Junction keys are (k-1)-byte strings and values are int sids.
        job = MRJob(
            f"pair_{round_no}", mapper, reducer,
            key_nbytes=len, value_nbytes=lambda _sid: 8,
        )
        out = engine.run(job, list(segments.items()))
        # A tail may pair with heads on both of its ends; keep one merge
        # per tail (deterministic: smallest head id).
        chosen: dict[int, int] = {}
        for head, tail in out:
            if tail not in chosen or head < chosen[tail]:
                chosen[tail] = head
        return sorted((h, t) for t, h in chosen.items())

    def _job_merge(
        self,
        engine: MapReduceEngine,
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
            codes = base.codes
            cov = base.cov_sum
            n = base.n_kmers
            for t in rest:
                joined = _join(codes, t.codes, k)
                if joined is None:
                    # Pathological canonical-junction collision: keep apart.
                    yield t.sid, t
                    continue
                codes = joined
                cov += t.cov_sum
                n += t.n_kmers
            yield sid, _Segment(sid=sid, codes=codes, cov_sum=cov, n_kmers=n)

        job = MRJob(
            f"merge_{round_no}", mapper, reducer,
            key_nbytes=lambda _sid: 8, value_nbytes=_segment_nbytes,
        )
        return dict(engine.run(job, list(segments.items())))
