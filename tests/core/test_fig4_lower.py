"""Fig. 4 (lower) as a tier-1 invariant: four Ray jobs, one per k, run
through ``PilotManager`` / ``UnitManager`` on 1, 2, 3 and 4 r3.2xlarge
nodes, at the smallest input the simulator generates (804 P. crispa-like
reads; a smaller scale extrapolates every job past the node's memory).

Each job takes one node's eight slots, so the stage's TTC is SGE packing
the jobs onto the nodes: their sum on one node, the slowest on four."""

import pytest

from repro.assembly.base import AssemblyParams
from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.ec2 import EC2Region
from repro.core.multikmer import make_assembly_workload
from repro.core.preprocess import preprocess
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.manager import PilotManager, UnitManager
from repro.seq.datasets import P_CRISPA, generate_dataset
from repro.seq.readstore import ReadStore
from tests.paper_tables import FIG4_LOWER_CLAIMS

KS = (51, 55, 59, 63)


def stage_on(nodes, store, dataset):
    """The four-job stage on a fresh ``nodes``-node pilot: its virtual
    TTC and each job's, by k."""
    clock = SimClock()
    events = EventQueue(clock)
    pm = PilotManager(EC2Region(clock), events)
    pilot = pm.launch(pm.submit(PilotDescription("P_B", "r3.2xlarge", nodes)))
    um = UnitManager(events)
    um.add_pilot(pilot)
    descs = [
        UnitDescription(
            name=f"ray_k{k}",
            work=make_assembly_workload(
                "ray", store, AssemblyParams(k=k), 8, dataset=dataset
            ),
            cores=8,
            tags={"k": k},
        )
        for k in KS
    ]
    start = clock.now
    units = um.run(um.submit_units(descs))
    return clock.now - start, {
        u.description.tags["k"]: u.finished_at - u.started_at for u in units
    }


@pytest.fixture(scope="module")
def runs():
    """``{nodes: (stage TTC, {k: job TTC})}``."""
    dataset = generate_dataset(P_CRISPA, scale=0.000005, seed=7)
    store = ReadStore.from_reads(preprocess(dataset.run.all_reads()).reads)
    yield {nodes: stage_on(nodes, store, dataset) for nodes in (1, 2, 3, 4)}
    store.close()


@pytest.mark.parametrize("claim", sorted(FIG4_LOWER_CLAIMS))
def test_task_parallelism_claim_holds(runs, claim):
    panel = {
        "stage": {nodes: ttc for nodes, (ttc, _) in runs.items()},
        "jobs": runs[1][1],
    }
    assert FIG4_LOWER_CLAIMS[claim](panel), panel


def test_a_jobs_ttc_does_not_depend_on_the_pilots_size(runs):
    """Each job gets one whole node however many the pilot holds."""
    (_, first), *rest = runs.values()
    assert sorted(first) == list(KS)
    for _, jobs in rest:
        assert jobs == pytest.approx(first, rel=1e-12)
