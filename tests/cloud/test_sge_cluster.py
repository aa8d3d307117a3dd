"""Tests for the SGE scheduler, the StarCluster builder and storage."""

import pytest

from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.cluster import Cluster, ClusterError, build_cluster
from repro.cloud.ec2 import EC2Region
from repro.cloud.sge import JobState, SGEError, SGEJob, SGEScheduler
from repro.cloud.storage import TransferModel


def make_sched(nodes=None):
    q = EventQueue()
    return q, SGEScheduler(q, nodes or {"n0": 8, "n1": 8})


class TestSGE:
    def test_single_job_runs(self):
        q, s = make_sched()
        job = SGEJob("j", slots=8, duration=100.0)
        s.qsub(job)
        s.run_to_completion()
        assert job.state is JobState.DONE
        assert job.started_at == 0.0
        assert job.finished_at == 100.0

    def test_concurrent_jobs_share_cluster(self):
        q, s = make_sched()
        j1 = SGEJob("a", slots=8, duration=100.0)
        j2 = SGEJob("b", slots=8, duration=100.0)
        s.qsub(j1)
        s.qsub(j2)
        s.run_to_completion()
        # 16 slots total: both run immediately in parallel
        assert j1.finished_at == j2.finished_at == 100.0

    def test_queueing_when_full(self):
        q, s = make_sched({"n0": 8})
        j1 = SGEJob("a", slots=8, duration=100.0)
        j2 = SGEJob("b", slots=8, duration=50.0)
        s.qsub(j1)
        s.qsub(j2)
        assert j2.state is JobState.QUEUED
        s.run_to_completion()
        assert j2.started_at == 100.0
        assert j2.finished_at == 150.0
        assert j2.wait_seconds == 100.0

    def test_parallel_environment_spans_nodes(self):
        q, s = make_sched({"n0": 8, "n1": 8, "n2": 8})
        job = SGEJob("mpi", slots=20, duration=10.0)
        s.qsub(job)
        s.run_to_completion()
        assert sum(job.allocation.values()) == 20
        assert len(job.allocation) == 3

    def test_oversized_job_rejected(self):
        q, s = make_sched()
        with pytest.raises(SGEError):
            s.qsub(SGEJob("big", slots=100, duration=1.0))

    def test_zero_slot_job_rejected(self):
        q, s = make_sched()
        with pytest.raises(SGEError):
            s.qsub(SGEJob("none", slots=0, duration=1.0))

    def test_fifo_no_skip_ahead(self):
        q, s = make_sched({"n0": 8})
        j1 = SGEJob("big", slots=8, duration=100.0)
        j2 = SGEJob("bigger", slots=8, duration=10.0)
        j3 = SGEJob("small", slots=1, duration=1.0)
        for j in (j1, j2, j3):
            s.qsub(j)
        s.run_to_completion()
        # strict FIFO: small cannot jump the queue
        assert j3.started_at >= j2.finished_at

    def test_duration_callable_gets_allocation(self):
        q, s = make_sched({"n0": 8, "n1": 8})
        seen = {}

        def dur(alloc):
            seen.update(alloc)
            return 42.0

        job = SGEJob("fn", slots=10, duration=dur)
        s.qsub(job)
        s.run_to_completion()
        assert sum(seen.values()) == 10
        assert job.finished_at == 42.0

    def test_on_complete_callback(self):
        q, s = make_sched()
        done = []
        job = SGEJob("cb", slots=1, duration=5.0, on_complete=lambda j: done.append(j.name))
        s.qsub(job)
        s.run_to_completion()
        assert done == ["cb"]

    def test_qstat(self):
        q, s = make_sched({"n0": 8})
        s.qsub(SGEJob("a", slots=8, duration=10.0))
        s.qsub(SGEJob("b", slots=8, duration=10.0))
        stat = s.qstat()
        assert stat["r"] == 1 and stat["qw"] == 1
        s.run_to_completion()
        assert s.qstat()["done"] == 2

    def test_slots_restored_after_completion(self):
        q, s = make_sched()
        s.qsub(SGEJob("a", slots=16, duration=10.0))
        s.run_to_completion()
        assert s.slots_free == s.slots_total

    def test_needs_nodes(self):
        with pytest.raises(SGEError):
            SGEScheduler(EventQueue(), {})


class TestCluster:
    def make_cluster(self, n=3, itype="c3.2xlarge"):
        clock = SimClock()
        region = EC2Region(clock)
        events = EventQueue(clock)
        return region, events, build_cluster(region, events, itype, n)

    def test_build(self):
        region, events, cluster = self.make_cluster(3)
        assert cluster.n_nodes == 3
        assert cluster.total_slots == 24
        # provisioning + setup elapsed
        assert region.clock.now == pytest.approx(90 + 120)

    def test_homogeneity_enforced(self):
        clock = SimClock()
        region = EC2Region(clock)
        events = EventQueue(clock)
        a = region.run_instances("c3.2xlarge", 1)
        b = region.run_instances("r3.2xlarge", 1)
        with pytest.raises(ClusterError):
            Cluster("x", a + b, SGEScheduler(events, {"a": 8, "b": 8}), events)

    def test_grow(self):
        region, events, cluster = self.make_cluster(2)
        cluster.grow(region, 3)
        assert cluster.n_nodes == 5
        assert cluster.total_slots == 40

    def test_shrink(self):
        region, events, cluster = self.make_cluster(5)
        doomed = cluster.shrink_to(region, 1)
        assert len(doomed) == 4
        assert cluster.n_nodes == 1
        assert len(region.ledger.lines) == 4

    def test_shrink_busy_rejected(self):
        region, events, cluster = self.make_cluster(2)
        cluster.scheduler.qsub(SGEJob("hog", slots=16, duration=1000.0))
        with pytest.raises(ClusterError):
            cluster.shrink_to(region, 1)


class TestTransferModel:
    def test_upload_matches_paper_anchor(self):
        """4.4 GB at the default WAN bandwidth ~= 3 min 35 s (§IV.C)."""
        tm = TransferModel(SimClock())
        secs = tm.upload(int(4.4 * 1024**3))
        assert secs == pytest.approx(215, rel=0.08)

    def test_copy_same_vm_free(self):
        tm = TransferModel(SimClock())
        assert tm.copy(10**9, "vm-a", "vm-a") == 0.0

    def test_copy_between_vms(self):
        tm = TransferModel(SimClock())
        secs = tm.copy(125e6, "vm-a", "vm-b")
        assert secs == pytest.approx(1.0)

    def test_clock_advances(self):
        clock = SimClock()
        tm = TransferModel(clock)
        tm.upload(tm.wan_bandwidth * 10)
        assert clock.now == pytest.approx(10.0)

    def test_log_and_totals(self):
        tm = TransferModel(SimClock())
        tm.upload(100)
        tm.copy(200, "vm-a", "vm-b")
        assert [r.n_bytes for r in tm.log] == [100, 200]
        assert tm.total_seconds > 0

    def test_negative_rejected(self):
        tm = TransferModel(SimClock())
        with pytest.raises(ValueError):
            tm.upload(-1)
