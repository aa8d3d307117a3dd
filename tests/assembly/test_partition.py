"""``ray.partition_spectrum`` against the per-rank shard path it replaced.

The one function books ``kmer_extract`` / ``kmer_count`` /
``graph_build`` from the ``bincount``s of the spectrum's partition
(``KmerSpectrum.partition``) and returns it; the oracle
(:mod:`tests.assembly.partition_reference`) cuts, thresholds and re-merges
a ``KmerTable`` per rank.  Rows, counts, owners, the per-rank walks and
the whole usage record must be equal — and so must every Ray / ABySS
result built on top.
"""

import random
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.assembly.abyss import AbyssAssembler
from repro.assembly.base import AssemblyParams
from repro.assembly.dbg import extract_unitigs_by_owner
from repro.assembly.ray import RayAssembler, partition_spectrum
from repro.assembly.sweep import build_spectra
from repro.parallel.comm import SimWorld
from repro.seq.fastq import FastqRecord
from repro.seq.readstore import ReadStore
from tests.assembly.partition_reference import reference_partition_spectrum
from tests.assembly.test_parity import assert_results_identical
from tests.parallel.exec_reference import ExecWorld


def _store(seqs):
    return ReadStore.from_reads(
        [FastqRecord(id=f"r{i}", seq=s, qual="I" * len(s)) for i, s in enumerate(seqs)]
    )


@pytest.fixture(scope="module")
def generated_store():
    """Overlapping error-free reads of one random transcript, so counts
    spread from 1 to the coverage depth, with a few N reads on top."""
    rng = random.Random(22)
    ref = "".join(rng.choice("ACGT") for _ in range(600))
    seqs = [ref[i : i + 80] for i in range(0, 520, 7)] * 2
    seqs += [ref[40:90] + "N" + ref[91:150], "", "ACGT"]
    rng.shuffle(seqs)
    return _store(seqs)


def _reference_partition(world, spectrum, min_count):
    """The oracle's table and owner column, walked by owner: what the
    assemblers read off ``partition_spectrum``'s result."""
    table, owners = reference_partition_spectrum(world, spectrum, min_count)
    walks = extract_unitigs_by_owner(table, owners, world.size)
    return SimpleNamespace(table=table, owners=owners, walks=walks)


def _partition_like_reference(spectrum, p, min_count):
    """``partition_spectrum``'s ``(table, owners, usage)``, once every
    array (dtype included), the per-rank walks and the whole usage
    record have been held equal to the per-rank path's."""
    world, ref_world = SimWorld(p), ExecWorld(p)
    part = partition_spectrum(world, spectrum, min_count)
    ref = _reference_partition(ref_world, spectrum, min_count)
    table, owners = part.table, part.owners
    for a, b in (
        (table.packed, ref.table.packed),
        (table.count_array, ref.table.count_array),
        (owners, ref.owners),
    ):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    assert [(list(u), s) for u, s in part.walks] == ref.walks
    usage, ref_usage = world.usage, ref_world.usage
    assert usage.phases == ref_usage.phases
    assert usage.peak_rank_memory_bytes == ref_usage.peak_rank_memory_bytes
    assert usage.n_ranks == ref_usage.n_ranks
    return table, owners, usage


class TestPartitionBooking:
    @pytest.mark.parametrize("k", (21, 51))
    @pytest.mark.parametrize("p", (1, 3, 8))
    @pytest.mark.parametrize("min_count", (1, 2, None))
    def test_equals_per_rank_path(self, generated_store, k, p, min_count):
        (spectrum,) = build_spectra(generated_store, (k,))
        if min_count is None:  # above every count: nothing survives
            min_count = int(spectrum.counts.max()) + 1
        table, _, usage = _partition_like_reference(spectrum, p, min_count)
        assert len(table) == int((spectrum.counts >= min_count).sum())
        assert [ph.name for ph in usage.phases] == [
            "kmer_extract",
            "kmer_count",
            "graph_build",
        ]

    def test_rank_that_owns_nothing(self):
        # Three distinct 21-mers over eight ranks: most ranks hold none,
        # and are still charged (0.0) in every phase.
        store = _store(["ACGTTGCATGCAAGGCTTAACCG"])
        (spectrum,) = build_spectra(store, (21,))
        assert spectrum.n_distinct == 3
        _, owners, _ = _partition_like_reference(spectrum, 8, 1)
        assert np.bincount(owners, minlength=8).min() == 0

    @pytest.mark.parametrize("seqs", ([], ["ACGT", "NNNNNNNNNNNNNNNNNNNNNNNNN"]))
    def test_empty_spectrum(self, seqs):
        (spectrum,) = build_spectra(_store(seqs), (21,))
        assert spectrum.n_distinct == 0
        table, _, usage = _partition_like_reference(spectrum, 3, 2)
        assert len(table) == 0 and usage.peak_rank_memory_bytes == 0


class TestAssemblersUnchanged:
    """Ray and ABySS on top of the oracle partition give the results
    they give on top of ``partition_spectrum``, at every (k, n_ranks)
    ``test_assemblers.py`` and ``test_parity.py`` run them at."""

    @pytest.mark.parametrize("assembler", (RayAssembler, AbyssAssembler))
    @pytest.mark.parametrize(
        "store_name, k, n_ranks",
        [("store_single", 31, n) for n in (1, 2, 3, 4, 8)]
        + [("store_single", 63, 4), ("store_paired", 63, 4)]
        + [("store_paired", k, n) for k in (31, 51) for n in (1, 3, 8)],
    )
    def test_result_identical(
        self, request, monkeypatch, assembler, store_name, k, n_ranks
    ):
        store = request.getfixturevalue(store_name)
        params = AssemblyParams(k=k, min_contig_length=100)
        (spectrum,) = build_spectra(store, (k,))
        got = assembler().assemble(store, params, n_ranks=n_ranks, spectrum=spectrum)
        module = sys.modules[assembler.__module__]
        monkeypatch.setattr(module, "partition_spectrum", _reference_partition)
        # The oracle partition executes its alltoall: give it a world that can.
        monkeypatch.setattr(module, "SimWorld", ExecWorld)
        ref = assembler().assemble(store, params, n_ranks=n_ranks, spectrum=spectrum)
        assert_results_identical(got, ref)
        # 50 bp reads hold no 63-mer: the empty table through both assemblers.
        assert got.contigs or (store_name, k) == ("store_single", 63)
