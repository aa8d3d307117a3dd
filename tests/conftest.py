"""Shared fixtures: small data sets reused across the test suite."""

import pytest
from hypothesis import Phase, settings

from repro.seq.datasets import tiny_dataset
from repro.seq.readstore import ReadStore

#: ``tools/mutants.py`` runs a row's tests under this profile.  The first
#: failing example kills the row, so the shrink phase, which only makes
#: that example smaller, is skipped.
settings.register_profile(
    "mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


@pytest.fixture(scope="session")
def ds_single():
    """Tiny single-end (B. glumae-like) data set."""
    return tiny_dataset(paired=False, seed=1)


@pytest.fixture(scope="session")
def ds_paired():
    """Tiny paired-end (P. crispa-like) data set."""
    return tiny_dataset(paired=True, seed=1)


@pytest.fixture(scope="session")
def reads_single(ds_single):
    return ds_single.run.all_reads()


@pytest.fixture(scope="session")
def reads_paired(ds_paired):
    return ds_paired.run.all_reads()


@pytest.fixture(scope="session")
def store_single(reads_single):
    """``reads_single`` encoded once: what every assembler consumes."""
    return ReadStore.from_reads(reads_single)


@pytest.fixture(scope="session")
def store_paired(reads_paired):
    return ReadStore.from_reads(reads_paired)
