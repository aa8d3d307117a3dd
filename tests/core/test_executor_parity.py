"""Executor-backend parity: serial, thread and process pools must give
bit-identical assembly results and virtual TTCs for the same fan-out.

The executor backend only changes *where and when* the real Python
workloads run on the host; everything priced on the virtual clock is
derived from the deterministic measured usage, so all three backends
must agree exactly.  Also covers picklability of
:class:`repro.core.multikmer.AssemblyWorkload` (the process backend
round-trips it and its results through pickle).
"""

import pickle

import pytest

from repro.assembly.base import AssemblyParams
from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.ec2 import EC2Region
from repro.core.multikmer import AssemblyWorkload, make_assembly_workload
from repro.core.preprocess import preprocess
from repro.pilot.db import StateStore
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.manager import PilotManager, UnitManager
from repro.pilot.scheduler import RoundRobinScheduler
from repro.pilot.states import UnitState
from repro.seq.readstore import ReadStore

JOBS = [("ray", 31), ("ray", 37), ("velvet", 31), ("velvet", 37)]


@pytest.fixture(scope="module")
def pre_store(ds_single):
    """The pre-processed reads, encoded once for every workload here."""
    store = ReadStore.from_reads(preprocess(ds_single.run.all_reads()).reads)
    yield store
    store.close()


def fanout_descs(pre_store, ds):
    descs = []
    for name, k in JOBS:
        work = make_assembly_workload(
            name,
            pre_store,
            AssemblyParams(k=k, min_contig_length=100),
            n_ranks=8,
            dataset=ds,
        )
        descs.append(
            UnitDescription(
                name=f"{name}_k{k}",
                work=work,
                cores=8,
                scale=1.0,
                stage="transcript-assembly",
                tags={"assembler": name, "k": k},
            )
        )
    return descs


def run_fanout(pre_store, ds, executor):
    clock = SimClock()
    events = EventQueue(clock)
    region = EC2Region(clock)
    db = StateStore(clock)
    pm = PilotManager(region, events, db)
    pilot = pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 4)))
    um = UnitManager(
        db, events, scheduler=RoundRobinScheduler(), executor=executor
    )
    um.add_pilot(pilot)
    units = um.submit_units(fanout_descs(pre_store, ds))
    um.run(units)
    um.close()
    assert all(u.state is UnitState.DONE for u in units)
    return units, clock.now


class TestWorkloadPicklability:
    def test_assembly_workload_roundtrips(self, pre_store, ds_single):
        work = make_assembly_workload(
            "velvet", pre_store, AssemblyParams(k=31), n_ranks=1,
            dataset=ds_single,
        )
        assert isinstance(work, AssemblyWorkload)
        clone = pickle.loads(pickle.dumps(work))
        assert clone == work

    def test_pickled_workload_gives_identical_output(self, pre_store, ds_single):
        work = make_assembly_workload(
            "velvet", pre_store, AssemblyParams(k=31), n_ranks=1,
            dataset=ds_single,
        )
        clone = pickle.loads(pickle.dumps(work))
        result, usage = work()
        result2, usage2 = clone()
        assert result.contigs == result2.contigs
        assert usage == usage2


class TestBackendParity:
    @pytest.fixture(scope="class")
    def serial_run(self, pre_store, ds_single):
        return run_fanout(pre_store, ds_single, "serial")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_identical_to_serial(self, backend, serial_run, pre_store, ds_single):
        base_units, base_now = serial_run
        units, now = run_fanout(pre_store, ds_single, backend)
        assert now == base_now  # same total virtual time
        for u, b in zip(units, base_units):
            assert u.description.name == b.description.name
            # bit-identical assembly outputs ...
            assert u.result.contigs == b.result.contigs
            assert u.result.stats == b.result.stats
            # ... identical extrapolated usage and virtual timeline.
            assert u.usage == b.usage
            assert u.started_at == b.started_at
            assert u.finished_at == b.finished_at
            assert u.ttc == b.ttc
            # real wall-time was recorded by every backend
            assert u.real_seconds is not None and u.real_seconds > 0

    def test_serial_run_is_deterministic(self, serial_run, pre_store, ds_single):
        base_units, base_now = serial_run
        units, now = run_fanout(pre_store, ds_single, "serial")
        assert now == base_now
        for u, b in zip(units, base_units):
            assert u.result.contigs == b.result.contigs
            assert u.ttc == b.ttc
