"""The array read simulator equals the per-fragment oracle, record for record.

``ReadSimulator.run`` keeps only the Generator calls per fragment and per
read and builds every read with array kernels; ``reads_reference.py`` is
the loop it replaced.  Equal records, ids, origins and Generator end state
mean every data set, and so every golden, is unchanged.
"""

import numpy as np
import pytest

from repro.seq import alphabet
from repro.seq import transcriptome as tx
from repro.seq.genome import GenomeSpec, synthesize_genome
from repro.seq.reads import ADAPTER, ReadSimSpec, ReadSimulator
from repro.seq.transcriptome import Transcript, Transcriptome
from tests.seq.reads_reference import ReferenceReadSimulator


@pytest.fixture(scope="module")
def txome():
    genome = synthesize_genome(GenomeSpec(name="g", size_bp=80_000, n_genes=40, seed=3))
    return tx.from_genome(genome, np.random.default_rng(0))


@pytest.fixture(scope="module")
def short_txome():
    """Transcripts around and below a 100 bp read — one under the 30 bp
    fragment floor — and one with uncalled bases, which a substitution
    must leave alone."""
    rng = np.random.default_rng(11)
    lengths = (12, 29, 30, 45, 70, 99, 100, 101, 160, 400)
    transcripts = [
        Transcript(f"t{i}", rng.integers(0, 4, n).astype(np.uint8), 1.0)
        for i, n in enumerate(lengths)
    ]
    transcripts[-1].codes[::7] = alphabet.N
    return Transcriptome("short", transcripts)


def same_run(txome, spec):
    """Run both simulators on ``spec``; assert they agree; return the run."""
    new, old = ReadSimulator(txome, spec), ReferenceReadSimulator(txome, spec)
    got, want = new.run(), old.run()
    assert got.reads == want.reads
    assert got.mates == want.mates
    assert got.origins == want.origins
    assert new._rng.bit_generator.state == old._rng.bit_generator.state
    return got


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("paired", [False, True])
def test_default_runs_equal_the_oracle(txome, seed, paired):
    spec = ReadSimSpec(
        read_length=100 if paired else 50, n_reads=400, paired=paired, seed=seed
    )
    run = same_run(txome, spec)
    assert len(run.reads) == 400
    assert sum(r.seq.count("N") for r in run.reads) > 0


@pytest.mark.parametrize("duplicate_fraction", [0.0, 0.5])
@pytest.mark.parametrize("paired", [False, True])
def test_duplicates_equal_the_oracle(txome, paired, duplicate_fraction):
    spec = ReadSimSpec(
        read_length=100, n_reads=300, paired=paired, seed=5,
        duplicate_fraction=duplicate_fraction,
    )
    run = same_run(txome, spec)
    assert len(run.reads) == 300
    assert run.reads[-1].id == "read00000299" + ("/1" if paired else "")


@pytest.mark.parametrize("paired", [False, True])
def test_read_through_into_adapter_and_junk(txome, paired):
    """Fragments shorter than the read: adapter, then junk drawn between
    the fragment's draws and the read's error mask, on both mates."""
    spec = ReadSimSpec(
        read_length=100, n_reads=300, paired=paired, seed=7,
        fragment_mean=100 if paired else 60, fragment_sd=40,
        error_rate_start=0.0, error_rate_end=0.0, n_rate=0.0,
    )
    run = same_run(txome, spec)
    junk = [o.length < 100 - len(ADAPTER) for o in run.origins]
    assert sum(junk) > 10
    assert any(ADAPTER in r.seq for r in run.reads)
    if paired:
        assert any(ADAPTER in r.seq for r in run.mates)


@pytest.mark.parametrize("paired", [False, True])
def test_transcripts_shorter_than_the_read(short_txome, paired):
    spec = ReadSimSpec(
        read_length=100, n_reads=500, paired=paired, seed=3,
        error_rate_start=0.2, error_rate_end=0.3, n_rate=0.05,
    )
    run = same_run(short_txome, spec)
    assert {o.length for o in run.origins} >= {12, 29, 30, 45}


@pytest.mark.parametrize("duplicate_fraction", [0.0, 0.5])
@pytest.mark.parametrize("n_reads", [0, 1])
@pytest.mark.parametrize("paired", [False, True])
def test_zero_and_one_read(txome, paired, n_reads, duplicate_fraction):
    spec = ReadSimSpec(
        read_length=100, n_reads=n_reads, paired=paired, seed=4,
        duplicate_fraction=duplicate_fraction,
    )
    run = same_run(txome, spec)
    assert len(run.reads) == n_reads
    assert len(run.mates) == (n_reads if paired else 0)
