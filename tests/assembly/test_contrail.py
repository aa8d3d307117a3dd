"""Contrail's array kernels against the record-at-a-time oracle
(``contrail_reference``: every job's statistics, ``PhaseUsage`` and
reducer peak, the merge list and the segment table after every round,
then the whole assembly), a digest pin of what the parent commit booked,
the derived count job against the executed one and its placement against
``hash(int)``, the convergence flag and hash-seed independence."""

import dataclasses
import hashlib
import itertools
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly import contrail
from repro.assembly import packed as packedmod
from repro.assembly.base import AssemblyParams
from repro.assembly.contrail import ContrailAssembler
from repro.assembly.sweep import resolve_spectrum
from repro.parallel.mapreduce import MapReduceEngine
from repro.seq.alphabet import reverse_complement
from repro.seq.fastq import FastqRecord
from repro.seq.readstore import ReadStore
from tests.assembly import contrail_reference as reference
from tests.assembly.kmer_reference import packed_to_ints
from tests.parallel.exec_reference import ExecEngine, nbytes

PARAMS = AssemblyParams(k=21, min_contig_length=50)
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def booked(monkeypatch):
    """Every job any engine books from here on, in order:
    ``(MRJobStats, reducer peak, PhaseUsage)``."""
    jobs = []
    book = MapReduceEngine.record_job

    def spy(self, stats, peak=0):
        book(self, stats, peak)
        jobs.append((stats, peak, self.usage.phases[-1]))

    monkeypatch.setattr(MapReduceEngine, "record_job", spy)
    return jobs


def _kernel_rounds(store, params, n_ranks, max_rounds=ContrailAssembler.max_rounds):
    """``ContrailAssembler.assemble``'s driver loop, keeping
    ``(merges as (head sid, tail sid), table)`` after every round; also
    the solid spectrum k-mers' codes."""
    asm, engine, k = ContrailAssembler(), MapReduceEngine(n_ranks), params.k
    spectrum = resolve_spectrum(store, k)
    solid = asm._derive_kmer_count(engine, store, params, spectrum)
    table = contrail._seed_table(spectrum, solid, k)
    trace = []
    for round_no in range(max_rounds):
        head, tail = asm._job_pair(engine, table, k, round_no)
        merges = list(zip(table.sid[head].tolist(), table.sid[tail].tolist()))
        if merges:
            table = asm._job_merge(engine, table, head, tail, k, round_no)
        trace.append((merges, table))
        if not merges:
            break
    return trace, packedmod.unpack(spectrum.distinct[solid], k)


def _rows(table, codes, offsets) -> list[tuple]:
    """A kernel table, its bases laid out, as the oracle's records, in
    record order."""
    codes, bounds = codes.tobytes(), offsets.tolist()
    return [
        (sid, codes[a:b], cov, n)
        for sid, a, b, cov, n in zip(
            table.sid.tolist(), bounds, bounds[1:],
            table.cov_sum.tolist(), table.n_kmers.tolist(),
        )
    ]


def _strands(rows):
    """``(m, w)`` base codes -> every row and its reverse complement as
    byte strings in code-lexicographic order (codes + 1, so no trailing
    NUL is stripped)."""
    w = rows.shape[1]
    fwd = np.ascontiguousarray(rows + 1, dtype=np.uint8)
    rev = np.ascontiguousarray(4 - rows[:, ::-1], dtype=np.uint8)
    return fwd.view(f"S{w}").ravel(), rev.view(f"S{w}").ravel()


def _canonical(rows):
    fwd, rev = _strands(rows)
    return np.where(fwd <= rev, fwd, rev)


def _assert_carried_state_is_the_codes(
    table, codes, offsets, solid_kmers, k, names
):
    """What a table carries instead of bases, against the bases
    ``_materialize`` lays out: junction ids and rc bits of both ends
    (``names``, id -> canonical end, accumulates over the rounds), every
    solid seed once, every record k-mer a solid k-mer."""
    assert np.array_equal(np.diff(offsets), table.n_kmers + k - 1)
    first = np.concatenate([offsets[:-1], offsets[1:] - (k - 1)])
    ends = codes[first[:, None] + np.arange(k - 1)]
    fwd, rev = _strands(ends)
    canon = np.where(fwd <= rev, fwd, rev)
    ids = np.concatenate([table.jl, table.jr])
    rc = np.concatenate([table.rcl, table.rcr])
    pal = table.pal[ids]
    assert np.array_equal(pal, fwd == rev)
    # A palindrome's end is its own reverse complement: either bit holds.
    assert np.array_equal(rc & ~pal, fwd != canon)
    for i, name in zip(ids.tolist(), canon.tolist()):
        assert names.setdefault(i, name) == name
    by_name = sorted(names.items(), key=lambda item: item[1])
    assert [i for i, _name in by_name] == sorted(names)  # one-to-one, ascending

    assert table.seeds.shape[0] == table.n_kmers.sum()
    assert np.array_equal(np.sort(table.seeds), np.arange(solid_kmers.shape[0]))
    record_end = np.repeat(offsets[1:], np.diff(offsets))
    starts = np.flatnonzero(np.arange(codes.shape[0]) + k <= record_end)
    windows = codes[starts[:, None] + np.arange(k)]
    assert np.array_equal(
        np.sort(_canonical(windows)), np.sort(_canonical(solid_kmers))
    )


def _assert_same_rounds(kernel_trace, solid_kmers, reference_trace, k):
    names = {}
    for (merges, table), (ref_merges, segments) in zip(kernel_trace, reference_trace):
        assert merges == ref_merges
        assert list(segments) == [s.sid for s in segments.values()]
        codes, offsets = contrail._materialize(table, k)
        assert _rows(table, codes, offsets) == [
            (s.sid, s.codes, s.cov_sum, s.n_kmers) for s in segments.values()
        ]
        _assert_carried_state_is_the_codes(
            table, codes, offsets, solid_kmers, k, names
        )
    assert len(kernel_trace) == len(reference_trace)


def _assert_matches_reference(store, params, n_ranks, booked):
    """Round by round, job by job, then the assembled result."""
    ref_trace = []
    want = reference.reference_contrail_assemble(
        store, params, n_ranks, trace=ref_trace
    )
    ref_jobs = booked[:]
    del booked[:]
    trace, solid_kmers = _kernel_rounds(store, params, n_ranks)
    _assert_same_rounds(trace, solid_kmers, ref_trace, params.k)
    assert booked == ref_jobs  # every job, pair_<r> peaks included
    del booked[:]

    got = ContrailAssembler().assemble(store, params, n_ranks=n_ranks)
    assert booked == ref_jobs
    assert got.contigs == want.contigs
    assert [repr(c.coverage) for c in got.contigs] == [
        repr(c.coverage) for c in want.contigs
    ]
    assert got.stats == want.stats
    assert got.usage == want.usage
    return got


class TestAgainstReference:
    @pytest.mark.parametrize("n_ranks", (1, 4, 16, 128))
    @pytest.mark.parametrize("k", (21, 31, 41, 63))  # 41, 63: two-word junctions
    def test_every_job_every_round_and_the_assembly(
        self, reads_single, reads_paired, booked, k, n_ranks
    ):
        reads = reads_single[:250] if k < 40 else reads_paired[:300]
        got = _assert_matches_reference(
            ReadStore.from_reads(reads),
            AssemblyParams(k=k, min_contig_length=max(50, k)),
            n_ranks,
            booked,
        )
        assert got.contigs and got.stats["compression_rounds"] > 3

    def test_no_solid_kmer(self, booked):
        """No read, and one read whose k-mers all stay below min_count:
        ``kmer_count`` and an empty ``pair_0`` are still booked."""
        seq = "ACGTACGTTGCAACGTTTGACCA"
        for reads in ([], [FastqRecord(id="r", seq=seq, qual="I" * len(seq))]):
            del booked[:]
            got = _assert_matches_reference(
                ReadStore.from_reads(reads),
                AssemblyParams(k=5, min_count=len(seq), min_contig_length=5),
                4,
                booked,
            )
            assert got.stats["mr_jobs"] == 2 and not got.contigs

    def test_generated_genomes_reach_every_branch(self, booked, monkeypatch):
        """Small genomes with a planted repeat, hairpin, palindromic
        (k-1)-mer, tandem cycle and two tips converging on a dead-end
        junction: the oracle's counters must show all four join cases,
        the second tail, the self-adjacency skip and the kept-apart
        branch were compared, not just present."""
        monkeypatch.setattr(reference, "BRANCHES", type(reference.BRANCHES)())

        @settings(max_examples=25, deadline=None, derandomize=True, database=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            k=st.sampled_from((5, 7, 11, 35)),  # even k-1: palindromes exist
            n_ranks=st.sampled_from((1, 2, 3, 8)),
        )
        def run(seed, k, n_ranks):
            del booked[:]
            _assert_matches_reference(
                ReadStore.from_reads(_planted_reads(seed, k)),
                AssemblyParams(k=k, min_contig_length=k),
                n_ranks,
                booked,
            )

        run()
        fired = reference.BRANCHES
        assert all(
            fired[branch] > 0
            for branch in (
                "join_1", "join_2", "join_3", "join_4",
                "second_tail", "self_adjacent", "kept_apart",
            )
        ), dict(fired)


def _random_seq(rng, n: int) -> str:
    return "".join("ACGT"[i] for i in rng.integers(0, 4, n))


def _planted_reads(seed: int, k: int) -> list[FastqRecord]:
    """Each transcript read twice (so every k-mer is solid), either strand."""
    rng = np.random.default_rng(seed)

    def rand(n):
        return _random_seq(rng, n)

    def palindrome():  # a (k-1)-mer equal to its rc
        half = rand((k - 1) // 2)
        return half + reverse_complement(half)

    repeat, stem, dead_end, unit = rand(k + 3), rand(k + 2), rand(k - 1), rand(k + 4)
    transcripts = [
        rand(3 * k) + repeat + rand(2 * k) + repeat + rand(2 * k),
        rand(2 * k) + stem + rand(4) + reverse_complement(stem) + rand(k),  # hairpin
        *(rand(2 * k) + palindrome() + rand(2 * k) for _ in range(3)),
        unit * 3,  # a cycle: compresses to a segment adjacent to itself
        rand(2 * k) + dead_end,  # two tips that end on the same (k-1)-mer,
        rand(2 * k) + dead_end,  # which nothing follows
    ]
    reads = []
    for i, seq in enumerate(transcripts):
        for copy in range(2):
            if rng.integers(2):
                seq = reverse_complement(seq)
            reads.append(FastqRecord(id=f"t{i}.{copy}", seq=seq, qual="I" * len(seq)))
    return reads


#: sha256 over every job's ``MRJobStats``, the overall reducer peak and
#: every contig's sequence and ``repr(coverage)``, recorded at the parent
#: of the PR that made the rounds array kernels (PR 19, commit 5246cde)
#: under PYTHONHASHSEED=0 and =1: "identical to the parent", not only to
#: the oracle that was moved.
PARENT_DIGESTS = {
    ("single", 400, 21, 8):
        "2d18ea36d5ba5354971f2f0af21264a918f7a207127a93a4f6f53aef07524248",
    ("single", 400, 31, 128):
        "4d95456357948199cce2a0414c1a622cdbc802629b2fb49a16390169ea1c0b6d",
    ("paired", 600, 41, 8):
        "e870842ad8112e7855a618115cad61c6aa23272ec00b8863d6a68fa4a19c045d",
    ("paired", 600, 63, 3):
        "b8605339d012858dbacf8ad51c3ed7e515686475d8d630d35b0d3190ab381aed",
}


@pytest.mark.parametrize("case", PARENT_DIGESTS, ids=lambda c: "-".join(map(str, c)))
def test_books_and_assembles_what_the_parent_did(
    case, reads_single, reads_paired, booked
):
    library, n_reads, k, n_ranks = case
    reads = {"single": reads_single, "paired": reads_paired}[library][:n_reads]
    res = ContrailAssembler().assemble(
        ReadStore.from_reads(reads),
        AssemblyParams(k=k, min_contig_length=max(50, k)),
        n_ranks=n_ranks,
    )
    payload = json.dumps(
        [
            [dataclasses.asdict(stats) for stats, _peak, _phase in booked],
            res.usage.peak_rank_memory_bytes,
            [[c.seq, repr(c.coverage)] for c in res.contigs],
        ],
        sort_keys=True,
    )
    assert hashlib.sha256(payload.encode()).hexdigest() == PARENT_DIGESTS[case]


class TestDerivedCountJob:
    @pytest.mark.parametrize("k", (21, 33))  # one packed word, two
    @pytest.mark.parametrize("n_workers", (1, 4, 16))
    def test_books_what_the_executed_job_measures(self, reads_single, n_workers, k):
        store = ReadStore.from_reads(reads_single[:300])
        params = AssemblyParams(k=k, min_contig_length=50)
        derived, executed = MapReduceEngine(n_workers), ExecEngine(n_workers)
        spectrum = resolve_spectrum(store, k)
        solid = ContrailAssembler()._derive_kmer_count(
            derived, store, params, spectrum
        )
        want = reference.executed_kmer_count(executed, store, params)

        assert want and want == dict(
            zip(
                packed_to_ints(spectrum.distinct[solid], k),
                spectrum.counts[solid].tolist(),
            )
        )
        # MRJobStats; then PhaseUsage and the reducer-partition peak.
        assert derived.job_stats == executed.job_stats
        assert derived.usage == executed.usage
        assert derived.usage.peak_rank_memory_bytes > 0


#: A word at the edges of ``x mod (2**61 - 1)``: zero, the largest
#: residue, the modulus, one past it, and the top of the word.
EDGE_WORDS = (0, 2**61 - 2, 2**61 - 1, 2**61, 2**64 - 1)
WORDS = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**64 - 1))


class TestPlacementHash:
    """``kmer_count`` places a key by ``_int_hash``: it must be
    ``hash(int)`` of the packed-int keys the executed job hashes."""

    @staticmethod
    def _want(rows, k):
        return [hash(key) for key in packed_to_ints(rows, k)]

    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(WORDS, max_size=40), k=st.sampled_from((21, 33)))
    def test_is_hash_of_the_executed_keys(self, words, k):
        width = packedmod.words_for(k)  # one word, two
        rows = np.array(words[: len(words) // width * width], dtype=np.uint64)
        rows = rows.reshape(-1, width)
        assert contrail._int_hash(rows).tolist() == self._want(rows, k)

    def test_every_word_at_every_edge(self):
        one = np.array(EDGE_WORDS, dtype=np.uint64)[:, None]
        two = np.array(list(itertools.product(EDGE_WORDS, repeat=2)), dtype=np.uint64)
        assert contrail._int_hash(one).tolist() == self._want(one, 21)
        assert contrail._int_hash(two).tolist() == self._want(two, 33)


class TestClosedFormMeasures:
    @pytest.mark.parametrize("n_workers", (1, 4, 16))
    def test_round_jobs_charge_what_generic_nbytes_charges(
        self, reads_single, n_workers, booked
    ):
        """Four rounds: the kernels' closed-form key and value sizes
        against the oracle's generic ``nbytes`` walk."""
        store = ReadStore.from_reads(reads_single[:300])
        ref_trace = []
        reference.reference_contrail_assemble(
            store, PARAMS, n_workers, trace=ref_trace, max_rounds=4
        )
        generic = booked[:]
        del booked[:]
        trace, solid_kmers = _kernel_rounds(store, PARAMS, n_workers, max_rounds=4)

        # merged segments, so value sizes vary
        assert trace[-1][1].n_kmers.max() > 1
        _assert_same_rounds(trace, solid_kmers, ref_trace, PARAMS.k)
        assert len(booked) == 9
        assert booked == generic  # MRJobStats, PhaseUsage and peak per job

    @given(
        sid=st.integers(min_value=0, max_value=2**40),
        codes=st.binary(max_size=200),
        cov=st.floats(allow_nan=False, allow_infinity=False),
        n_kmers=st.integers(min_value=1, max_value=10**6),
    )
    def test_segment_closed_form(self, sid, codes, cov, n_kmers):
        seg = reference._Segment(sid=sid, codes=codes, cov_sum=cov, n_kmers=n_kmers)
        assert len(codes) + contrail.SEGMENT_RECORD_OVERHEAD == nbytes(seg)


@pytest.mark.parametrize("n", (0, 1, 9, 10, 11, 101, 12345))
def test_repr_rank_is_the_string_order(n):
    """The output order's ``repr(sid)`` key, computed without strings."""
    want = np.argsort(np.arange(n).astype("S"), kind="stable")
    assert np.array_equal(np.argsort(contrail._repr_rank(n)), want)


class TestConvergenceFlag:
    def test_junctions_left_on_small_input_are_reported(self, reads_single, caplog):
        """The loop stops on "no merge fired" (ROADMAP 3(a)(ii)), here
        after 15 rounds with 20 junctions still compressible: each has
        two incidences on distinct segments.  The flag and the warning
        say so, and the oracle counts the same junctions."""
        store = ReadStore.from_reads(reads_single[:300])
        with caplog.at_level(logging.WARNING, logger=contrail.__name__):
            res = ContrailAssembler().assemble(store, PARAMS, n_ranks=4)
        assert res.stats["compression_converged"] is False
        assert res.stats["compression_rounds"] == 15 < ContrailAssembler.max_rounds
        assert "with 20 compressible junctions left" in caplog.text
        trace = []
        reference.reference_contrail_assemble(store, PARAMS, n_ranks=4, trace=trace)
        assert reference.compressible_junctions(trace[-1][1], PARAMS.k) == 20

    def test_converged_when_no_junction_is_left(self, caplog):
        """Two overlapping k-mers join in one round into one contig."""
        seq = _random_seq(np.random.default_rng(0), PARAMS.k + 1)
        reads = [FastqRecord(f"r{i}", seq, "I" * len(seq)) for i in range(3)]
        params = dataclasses.replace(PARAMS, min_contig_length=PARAMS.k)
        with caplog.at_level(logging.WARNING, logger=contrail.__name__):
            res = ContrailAssembler().assemble(
                ReadStore.from_reads(reads), params, n_ranks=4
            )
        assert res.stats["compression_converged"] is True
        assert [c.seq for c in res.contigs] in ([seq], [reverse_complement(seq)])
        assert not caplog.records

    def test_round_cap_is_reported(self, reads_single, caplog, monkeypatch):
        monkeypatch.setattr(ContrailAssembler, "max_rounds", 1)
        with caplog.at_level(logging.WARNING, logger=contrail.__name__):
            res = ContrailAssembler().assemble(
                ReadStore.from_reads(reads_single[:300]), PARAMS, n_ranks=4
            )
        assert res.stats["compression_converged"] is False
        assert res.stats["compression_rounds"] == 1
        assert "max_rounds=1" in caplog.text

    @pytest.mark.xfail(strict=True, reason="ROADMAP 3(a)")
    def test_one_linear_chain_becomes_one_contig(self):
        """ROADMAP 3(a)(ii): the loop ends on "no merge fired", not on
        "no compressible junction left".  One 81-bp sequence read five
        times is a single chain of 61 k-mers; round 0 fires 1 merge,
        round 1 14, round 2 none with 45 two-ended junctions left — and
        the run reports ``compression_converged`` with no contig."""
        seq = _random_seq(np.random.default_rng(0), 81)
        reads = [FastqRecord(id=f"r{i}", seq=seq, qual="I" * 81) for i in range(5)]
        res = ContrailAssembler().assemble(
            ReadStore.from_reads(reads),
            AssemblyParams(k=21, min_contig_length=30),
            n_ranks=4,
        )
        assert [len(c.seq) for c in res.contigs] == [81]


_SEED_SCRIPT = """
import dataclasses, json
from repro.assembly.base import AssemblyParams
from repro.assembly.contrail import ContrailAssembler
from repro.parallel.mapreduce import MapReduceEngine
from repro.seq.datasets import tiny_dataset
from repro.seq.readstore import ReadStore

jobs, book = [], MapReduceEngine.record_job
def spy(self, stats, peak=0):
    jobs.append((dataclasses.asdict(stats), peak))
    book(self, stats, peak)
MapReduceEngine.record_job = spy

orders, merge = [], ContrailAssembler._job_merge
def spy_merge(self, *args):
    table = merge(self, *args)
    orders.append(table.sid.tolist())
    return table
ContrailAssembler._job_merge = spy_merge

reads = tiny_dataset(paired=False, seed=1).run.all_reads()[:400]
res = ContrailAssembler().assemble(
    ReadStore.from_reads(reads), AssemblyParams(k=21, min_contig_length=50),
    n_ranks=8,
)
print(json.dumps(
    {"contigs": [c.seq for c in res.contigs], "jobs": jobs, "orders": orders}
))
"""


def test_results_independent_of_hash_seed():
    """ROADMAP aim 3b: contigs, the segment order after every round and
    every job's statistics *and reducer peak* do not move with
    PYTHONHASHSEED."""
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    a, b = runs
    assert a["contigs"] and a["contigs"] == b["contigs"]
    assert len(a["jobs"]) > 10 and len(a["orders"]) > 5
    assert a["jobs"] == b["jobs"]
    assert a["orders"] == b["orders"]
