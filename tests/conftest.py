"""Shared fixtures: small data sets reused across the test suite."""

import pytest

from repro.seq.datasets import tiny_dataset
from repro.seq.readstore import ReadStore


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
