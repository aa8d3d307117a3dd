"""Fig. 4 (upper) as a tier-1 invariant: Ray at k = 51 on r3.2xlarge, 8
to 32 cores (one to four nodes), on a quarter, half and all of a
P. crispa-like read set, through the bench harness's ``run_assembly``
and ``price_assembly`` as EXPERIMENTS.md's panel is, priced by the
default cost model.

The read set is the bench one at ``SCALE`` instead of
``BENCH_PARAMS``'s: the smallest tried where the claims hold.  At
0.00015 the quarter and the half both sit on the simulator's 500-read
floor, so "more input takes longer" fails between them."""

import pytest

from repro.bench import harness
from repro.parallel.costmodel import CostModel
from repro.seq.datasets import P_CRISPA, generate_dataset
from tests.paper_tables import FIG4_UPPER_CLAIMS

SCALE = 0.0002
FRACTIONS = (0.25, 0.5, 1.0)
CORES = (8, 16, 24, 32)


def small_dataset(name, fraction=1.0):
    """``harness.bench_dataset`` at ``SCALE``, same seed and boost."""
    assert name == "P_crispa"
    _, boost = harness.BENCH_PARAMS[name]
    return generate_dataset(
        P_CRISPA, scale=SCALE, seed=7, coverage_boost=boost * fraction
    )


@pytest.fixture(scope="module")
def runs():
    """``{fraction: {cores: (result, paper-scale TTC)}}``."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "bench_dataset", small_dataset)
        for fraction in FRACTIONS:
            dataset = small_dataset("P_crispa", fraction)
            out[fraction] = {}
            for cores in CORES:
                # The memo's undecorated function, so no small-scale
                # result stays cached for the real benchmarks.
                result = harness.run_assembly.__wrapped__(
                    "P_crispa", "ray", 51, cores, False, fraction
                )
                ttc = harness.price_assembly(
                    CostModel(), result, dataset, "r3.2xlarge", cores // 8
                )
                out[fraction][cores] = result, ttc
    return out


@pytest.mark.parametrize("claim", sorted(FIG4_UPPER_CLAIMS))
def test_data_parallelism_claim_holds(runs, claim):
    """The panel as ``benchmarks/experiments.fig4_upper`` builds it."""
    series = {
        fraction: {cores: ttc for cores, (_, ttc) in by_cores.items()}
        for fraction, by_cores in runs.items()
    }
    assert FIG4_UPPER_CLAIMS[claim](series), series


def test_each_core_is_one_rank(runs):
    """``run_assembly`` hands the core count to Ray as its rank count."""
    for by_cores in runs.values():
        for cores, (result, _) in by_cores.items():
            assert result.stats["n_ranks"] == result.usage.n_ranks == cores
