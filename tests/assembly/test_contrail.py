"""Contrail's array kernels against the record-at-a-time oracle
(``contrail_reference``: every job's statistics, ``PhaseUsage`` and
reducer peak, the merge list and the segment table after every round,
then the whole assembly), a digest pin of what the parent commit booked,
the derived count job against the executed one, the convergence flag and
hash-seed independence."""

import dataclasses
import hashlib
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
from repro.parallel.usage import nbytes
from repro.seq.alphabet import reverse_complement
from repro.seq.fastq import FastqRecord
from repro.seq.readstore import ReadStore
from tests.assembly import contrail_reference as reference

PARAMS = AssemblyParams(k=21, min_contig_length=50)
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def booked(monkeypatch):
    """Every job any engine books from here on, in order:
    ``(MRJobStats, reducer peak, PhaseUsage)``."""
    jobs = []
    book = MapReduceEngine._book

    def spy(self, stats, peak, sp):
        book(self, stats, peak, sp)
        jobs.append((stats, peak, self.usage.phases[-1]))

    monkeypatch.setattr(MapReduceEngine, "_book", spy)
    return jobs


def _kernel_rounds(store, params, n_ranks, max_rounds=ContrailAssembler.max_rounds):
    """``ContrailAssembler.assemble``'s driver loop, keeping
    ``(merges as (head sid, tail sid), table)`` after every round."""
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
    return trace


def _rows(table) -> list[tuple]:
    """A kernel table as the oracle's records, in record order."""
    codes, bounds = table.codes.tobytes(), table.offsets.tolist()
    return [
        (sid, codes[a:b], cov, n)
        for sid, a, b, cov, n in zip(
            table.sid.tolist(), bounds, bounds[1:],
            table.cov_sum.tolist(), table.n_kmers.tolist(),
        )
    ]


def _assert_same_rounds(kernel_trace, reference_trace, k):
    assert len(kernel_trace) == len(reference_trace)
    for (merges, table), (ref_merges, segments) in zip(kernel_trace, reference_trace):
        assert merges == ref_merges
        assert list(segments) == [s.sid for s in segments.values()]
        rows = _rows(table)
        assert rows == [
            (s.sid, s.codes, s.cov_sum, s.n_kmers) for s in segments.values()
        ]
        # The carried ends are the ends of the codes they were never read from.
        ends = np.frombuffer(
            b"".join(c[: k - 1] + c[-(k - 1):] for _sid, c, _cov, _n in rows),
            dtype=np.uint8,
        ).reshape(-1, 2, k - 1)
        assert np.array_equal(table.left, packedmod.pack(ends[:, 0]))
        assert np.array_equal(table.right, packedmod.pack(ends[:, 1]))


def _assert_matches_reference(store, params, n_ranks, booked):
    """Round by round, job by job, then the assembled result."""
    ref_trace = []
    want = reference.reference_contrail_assemble(
        store, params, n_ranks, trace=ref_trace
    )
    ref_jobs = booked[:]
    del booked[:]
    _assert_same_rounds(_kernel_rounds(store, params, n_ranks), ref_trace, params.k)
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

    j = k - 1
    half = rand(j // 2)
    palindrome = half + reverse_complement(half)  # a (k-1)-mer equal to its rc
    repeat, stem, dead_end, unit = rand(k + 3), rand(k + 2), rand(j), rand(k + 4)
    transcripts = [
        rand(3 * k) + repeat + rand(2 * k) + repeat + rand(2 * k),
        rand(2 * k) + stem + rand(4) + reverse_complement(stem) + rand(k),  # hairpin
        rand(2 * k) + palindrome + rand(2 * k),
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
        derived, executed = MapReduceEngine(n_workers), MapReduceEngine(n_workers)
        spectrum = resolve_spectrum(store, k)
        solid = ContrailAssembler()._derive_kmer_count(
            derived, store, params, spectrum
        )
        want = reference.executed_kmer_count(executed, store, params)

        assert want and want == dict(
            zip(
                packedmod.packed_to_ints(spectrum.distinct[solid], k),
                spectrum.counts[solid].tolist(),
            )
        )
        # MRJobStats; then PhaseUsage and the reducer-partition peak.
        assert derived.job_stats == executed.job_stats
        assert derived.usage == executed.usage
        assert derived.usage.peak_rank_memory_bytes > 0


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
        trace = _kernel_rounds(store, PARAMS, n_workers, max_rounds=4)

        # merged segments, so value sizes vary
        assert np.diff(trace[-1][1].offsets).max() > PARAMS.k
        _assert_same_rounds(trace, ref_trace, PARAMS.k)
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


class TestConvergenceFlag:
    def test_converged_on_small_input(self, reads_single, caplog):
        with caplog.at_level(logging.WARNING, logger=contrail.__name__):
            res = ContrailAssembler().assemble(
                ReadStore.from_reads(reads_single[:300]), PARAMS, n_ranks=4
            )
        assert res.stats["compression_converged"] is True
        assert res.stats["compression_rounds"] < ContrailAssembler.max_rounds
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
            AssemblyParams(
                k=21, min_contig_length=30, clip_tips=False, pop_bubbles=False
            ),
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

jobs, book = [], MapReduceEngine._book
def spy(self, stats, peak, sp):
    jobs.append((dataclasses.asdict(stats), peak))
    book(self, stats, peak, sp)
MapReduceEngine._book = spy

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
