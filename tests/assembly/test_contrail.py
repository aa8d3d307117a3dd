"""Contrail's MapReduce accounting (the derived count job against the
executed one, the closed-form record sizes against the generic walk),
convergence flag and hash-seed independence."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.assembly import contrail
from repro.assembly import packed as packedmod
from repro.assembly.base import AssemblyParams
from repro.assembly.contrail import ContrailAssembler, _Segment, _segment_nbytes
from repro.assembly.kmers import canonical_kmers_packed
from repro.assembly.sweep import resolve_spectrum
from repro.parallel.mapreduce import MapReduceEngine, MRJob
from repro.parallel.usage import nbytes
from repro.seq.readstore import ReadStore

PARAMS = AssemblyParams(k=21, min_contig_length=50)
SRC = Path(__file__).resolve().parents[2] / "src"


def _derived_kmer_count(engine, store, params) -> dict[bytes, int]:
    return ContrailAssembler()._derive_kmer_count(
        engine, store, params, resolve_spectrum(store, params.k)
    )


def _executed_kmer_count(engine, store, params) -> dict[int, int]:
    """The ``kmer_count`` job streamed through the engine as a generic
    :class:`MRJob`, one read at a time — what ``_derive_kmer_count``
    books without running.  Keys travel as packed integers and are
    priced at their logical k-byte record size."""
    k = params.k

    def mapper(_rid, codes):
        for key in packedmod.packed_to_ints(canonical_kmers_packed(codes, k), k):
            yield key, 1

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


class TestDerivedCountJob:
    @pytest.mark.parametrize("k", (21, 33))  # one packed word, two
    @pytest.mark.parametrize("n_workers", (1, 4, 16))
    def test_books_what_the_executed_job_measures(self, reads_single, n_workers, k):
        store = ReadStore.from_reads(reads_single[:300])
        params = AssemblyParams(k=k, min_contig_length=50)
        derived, executed = MapReduceEngine(n_workers), MapReduceEngine(n_workers)
        got = _derived_kmer_count(derived, store, params)
        want = _executed_kmer_count(executed, store, params)

        rows = packedmod.pack(
            np.frombuffer(b"".join(got), dtype=np.uint8).reshape(-1, k)
        )
        assert want and want == dict(
            zip(packedmod.packed_to_ints(rows, k), got.values())
        )
        # MRJobStats; then PhaseUsage and the reducer-partition peak.
        assert derived.job_stats == executed.job_stats
        assert derived.usage == executed.usage
        assert derived.usage.peak_rank_memory_bytes > 0


def _initial_segments(reads) -> dict[int, _Segment]:
    counts = _derived_kmer_count(
        MapReduceEngine(1), ReadStore.from_reads(reads), PARAMS
    )
    return {
        i: _Segment(sid=i, codes=kmer, cov_sum=float(c), n_kmers=1)
        for i, (kmer, c) in enumerate(sorted(counts.items()))
    }


def _run_rounds(segments, n_workers: int, rounds: int = 4):
    """``rounds`` pair/merge rounds, each job on a fresh engine so its own
    partition peak is visible; returns (stats, usage) per job and every
    job's output."""
    asm = ContrailAssembler()
    booked, outputs = [], []
    for round_no in range(rounds):
        engine = MapReduceEngine(n_workers)
        merges = asm._job_pair(engine, segments, PARAMS.k, round_no)
        booked.append((engine.job_stats[0], engine.usage))
        engine = MapReduceEngine(n_workers)
        segments = asm._job_merge(engine, segments, merges, PARAMS.k, round_no)
        booked.append((engine.job_stats[0], engine.usage))
        outputs.append((merges, segments))
    return booked, outputs


class TestClosedFormMeasures:
    @pytest.mark.parametrize("n_workers", (1, 4, 16))
    def test_round_jobs_charge_what_generic_nbytes_charges(
        self, reads_single, n_workers, monkeypatch
    ):
        segments = _initial_segments(reads_single[:300])
        closed, out_closed = _run_rounds(segments, n_workers)
        # Same jobs with the measures dropped: the engine's generic walk.
        monkeypatch.setattr(
            contrail, "MRJob", lambda name, m, r, **_kw: MRJob(name, m, r)
        )
        generic, out_generic = _run_rounds(segments, n_workers)

        # merged segments, so value sizes vary
        assert any(len(s.codes) > PARAMS.k for s in out_closed[-1][1].values())
        assert out_closed == out_generic
        assert closed == generic  # MRJobStats, PhaseUsage and peak per job

    @given(
        sid=st.integers(min_value=0, max_value=2**40),
        codes=st.binary(max_size=200),
        cov=st.floats(allow_nan=False, allow_infinity=False),
        n_kmers=st.integers(min_value=1, max_value=10**6),
    )
    def test_segment_closed_form(self, sid, codes, cov, n_kmers):
        seg = _Segment(sid=sid, codes=codes, cov_sum=cov, n_kmers=n_kmers)
        assert _segment_nbytes(seg) == len(codes) + 78 == nbytes(seg)


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

reads = tiny_dataset(paired=False, seed=1).run.all_reads()[:400]
res = ContrailAssembler().assemble(
    ReadStore.from_reads(reads), AssemblyParams(k=21, min_contig_length=50),
    n_ranks=8,
)
print(json.dumps({"contigs": [c.seq for c in res.contigs], "jobs": jobs}))
"""


def test_results_independent_of_hash_seed():
    """ROADMAP aim 3b: contigs and every job's statistics do not move
    with PYTHONHASHSEED; only ``pair_<r>`` (bytes keys, placed by
    ``hash()``) may size its reduce partitions differently."""
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
    assert len(a["jobs"]) > 10
    assert [s for s, _peak in a["jobs"]] == [s for s, _peak in b["jobs"]]
    for (stats, peak_a), (_stats, peak_b) in zip(a["jobs"], b["jobs"]):
        if not stats["name"].startswith("pair_"):
            assert peak_a == peak_b, stats["name"]
