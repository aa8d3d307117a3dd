"""Fig. 2 as a tier-1 invariant: the three workflow patterns over one
data set, at the smallest input the simulator generates (500 reads).

The three runs differ only in pattern knobs, so they are the sweep
traffic the run cache serves: QC computes once."""

import pytest

from repro.core import rnnotator
from repro.core.assembly_cache import AssemblyCache, use_assembly_cache
from repro.seq.datasets import B_GLUMAE, generate_dataset
from tests.paper_tables import PAPER_FIG2, reproduce_fig2, run_fig2


@pytest.fixture(scope="module")
def fig2():
    dataset = generate_dataset(B_GLUMAE, scale=0.00002, seed=7)
    qc_calls = []
    kernel = rnnotator.preprocess

    def counting(*args, **kwargs):
        qc_calls.append(1)
        return kernel(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp, use_assembly_cache(AssemblyCache()):
        mp.setattr(rnnotator, "preprocess", counting)
        runs = run_fig2(dataset, assemblers=("ray",), kmer_list=(25, 31))
    return runs, len(qc_calls)


def test_distributed_patterns_are_faster_and_cost_more(fig2):
    runs, _ = fig2
    assert reproduce_fig2(runs) == PAPER_FIG2


def test_every_pattern_assembles_the_same_transcripts(fig2):
    runs, _ = fig2
    conv, static, dynamic = (
        [t.seq for t in r.transcripts] for r in runs.values()
    )
    assert conv and conv == static == dynamic


def test_qc_is_a_cache_hit_after_the_first_pattern(fig2):
    _, qc_calls = fig2
    assert qc_calls == 1
