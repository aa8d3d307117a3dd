"""Every paper artifact in EXPERIMENTS.md: its claims hold on the
reproduced rows, and its block is the current rendering of those rows.

A stale block fails with its name; rewrite them all with
``PYTHONPATH=src python -m benchmarks.experiments``.
"""

import pytest

from benchmarks.experiments import ARTIFACTS, DOC, doc_blocks, failed_claims, render


@pytest.fixture(scope="module")
def blocks():
    return doc_blocks(DOC.read_text())


@pytest.mark.parametrize("name", ARTIFACTS)
def test_claims_hold(name):
    failed = failed_claims(name)
    assert not failed, f"{name}: " + "; ".join(failed)


@pytest.mark.parametrize("name", ARTIFACTS)
def test_block_is_current(name, blocks):
    assert blocks.get(name) == f"\n{render(name)}\n", (
        f"EXPERIMENTS.md's paper-table block {name!r} differs from its "
        "rendering; run `PYTHONPATH=src python -m benchmarks.experiments`"
    )


def test_every_block_is_an_artifact(blocks):
    assert list(blocks) == list(ARTIFACTS)
