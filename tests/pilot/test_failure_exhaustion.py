"""Regression tests for the restart-exhaustion bugfix sweep.

The original ``UnitManager.run`` dropped units that exhausted their
``max_restarts`` budget and returned normally — success-shaped results
with FAILED units silently left behind.  These tests pin the new
contract: permanent failures raise :class:`UnitFailureError` (with
telemetry), transient (preemption) failures earn no pilot exclusion and
may retry in place, and the livelock guard is a configurable knob that
only counts rounds without progress.
"""

import pytest

from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.ec2 import EC2Region
from repro.cloud.spot import SpotPreemptor
from repro.obs import Tracer, use_tracer
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.elastic import ElasticPool
from repro.pilot.manager import (
    ManagerError,
    PilotManager,
    UnitFailureError,
    UnitManager,
)
from repro.pilot.states import UnitState
from repro.pilot.unit import ComputeUnit
from tests.cloud.test_sge_cluster import qstat
from tests.pilot.lifecycle import placements


def sim():
    clock = SimClock()
    events = EventQueue(clock)
    region = EC2Region(clock)
    return clock, events, region


def make_work(compute=1e6, mem=10**7, ranks=8):
    def work():
        u = ResourceUsage(n_ranks=ranks)
        u.add_phase(
            PhaseUsage("w", "generic", critical_compute=compute,
                       total_compute=compute * ranks)
        )
        u.peak_rank_memory_bytes = mem
        return "result", u

    return work


def oom_desc(name="oom", max_restarts=0, **kw):
    return UnitDescription(
        name=name, work=make_work(mem=10**9), cores=8, scale=0.01,
        max_restarts=max_restarts, **kw,
    )


class TestExhaustionRaises:
    def test_zero_budget_raises_immediately(self):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        um = UnitManager(events)
        um.add_pilot(pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 1))))
        units = um.submit_units([oom_desc(max_restarts=0)])
        with pytest.raises(UnitFailureError) as exc_info:
            um.run(units)
        (u,) = exc_info.value.units
        assert u is units[0]
        assert u.restarts == 0
        assert u.state is UnitState.FAILED
        assert "oom" in str(exc_info.value)
        assert "OOM" in str(exc_info.value)  # the unit's error is listed

    def test_budget_of_one_tries_both_pilots_then_raises(self):
        """failed_on exclusions steer the single restart to the untried
        pilot; exhausting the budget there raises."""
        clock, events, region = sim()
        pm = PilotManager(region, events)
        p1 = pm.launch(pm.submit(PilotDescription("P1", "c3.2xlarge", 1)))
        p2 = pm.launch(pm.submit(PilotDescription("P2", "c3.2xlarge", 1)))
        um = UnitManager(events)
        um.add_pilot(p1)
        um.add_pilot(p2)
        units = um.submit_units([oom_desc(max_restarts=1)])
        with use_tracer(Tracer(clock)) as tracer:
            with pytest.raises(UnitFailureError):
                um.run(units)
        (u,) = units
        assert u.restarts == 1
        assert sorted(placements(tracer, u)) == sorted([p1.pilot_id, p2.pilot_id])

    def test_exhaustion_emits_telemetry(self):
        clock, events, region = sim()
        tracer = Tracer(clock)
        with use_tracer(tracer):
            pm = PilotManager(region, events)
            um = UnitManager(events)
            um.add_pilot(
                pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 1)))
            )
            units = um.submit_units([oom_desc(max_restarts=0)])
            with pytest.raises(UnitFailureError):
                um.run(units)
        assert tracer.metrics.counters["units_failed_permanently"].value == 1
        names = [r["name"] for r in tracer.records()]
        assert "unit.failed_permanently" in names

    def test_survivors_complete_before_the_raise(self):
        """A mixed round still finishes the healthy units: the raise
        reports the failures without discarding completed work."""
        clock, events, region = sim()
        pm = PilotManager(region, events)
        um = UnitManager(events)
        um.add_pilot(
            pm.launch(pm.submit(PilotDescription("P", "r3.2xlarge", 2)))
        )
        units = um.submit_units(
            [
                UnitDescription(
                    name="ok", work=make_work(mem=10**7), cores=8, scale=0.01
                ),
                oom_desc(name="dead"),
            ]
        )
        with pytest.raises(UnitFailureError) as exc_info:
            um.run(units)
        ok, dead = units
        assert ok.state is UnitState.DONE
        assert ok.result == "result"
        assert exc_info.value.units == [dead]

    def test_a_unit_ending_its_round_cancelled_raises(self, monkeypatch):
        """``run`` returns only when every unit is DONE: a unit that ends
        a round CANCELED (final, but not FAILED) raises instead of being
        returned beside the DONE ones."""
        clock, events, region = sim()
        pm = PilotManager(region, events)
        um = UnitManager(events)
        pilot = pm.launch(pm.submit(PilotDescription("P", "r3.2xlarge", 1)))
        um.add_pilot(pilot)
        units = um.submit_units(
            [UnitDescription(name="gone", work=make_work(), cores=8, scale=0.01)]
        )
        monkeypatch.setattr(
            um._agents[pilot.pilot_id],
            "collect",
            lambda unit: unit.advance(UnitState.CANCELED),
        )
        with pytest.raises(ManagerError, match="never completed.*CANCELED"):
            um.run(units)


class TestTransientRestart:
    def run_with_preemption(self, max_restarts):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        pilot = pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 2)))
        preemptor = SpotPreemptor(
            region, events, cluster=pilot.cluster,
            protect={pilot.cluster.head.vm_id},
        )
        um = UnitManager(events)
        um.add_pilot(pilot)
        # Spans both nodes, so losing the worker kills it mid-run.
        desc = UnitDescription(
            name="wide", work=make_work(ranks=16, mem=10**6), cores=16,
            scale=0.01, max_restarts=max_restarts,
        )
        units = um.submit_units([desc])
        preemptor.arm_in([1.0])
        return um, units, preemptor

    def test_preempted_unit_retries_on_same_pilot(self):
        """Transient failures earn no failed_on exclusion: the retry may
        legally land on the pilot whose node was reclaimed, and completes
        on the surviving capacity."""
        um, units, preemptor = self.run_with_preemption(max_restarts=1)
        with use_tracer(Tracer()) as tracer:
            um.run(units)
        (u,) = units
        assert len(preemptor.preempted) == 1
        assert u.state is UnitState.DONE
        assert u.restarts == 1
        pilots = placements(tracer, u)
        assert len(pilots) == 2
        assert len(set(pilots)) == 1  # same pilot both attempts

    def test_preempted_unit_without_budget_raises(self):
        um, units, preemptor = self.run_with_preemption(max_restarts=0)
        with pytest.raises(UnitFailureError):
            um.run(units)
        (u,) = units
        assert u.failure_transient
        assert "preempted" in u.error

    def test_preemption_telemetry(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with use_tracer(tracer):
            um, units, preemptor = self.run_with_preemption(max_restarts=1)
            um.run(units)
        assert tracer.metrics.counters["units_preempted"].value == 1
        assert tracer.metrics.counters["units_restarted"].value == 1
        assert tracer.metrics.counters["vms_preempted"].value == 1

    def test_each_attempt_leaves_one_exec_span(self):
        """The attempt the reclaim cut short is flagged ``preempted``; the
        retry that completed carries ``oom`` instead."""
        with use_tracer(Tracer()) as tracer:
            um, units, _ = self.run_with_preemption(max_restarts=1)
            um.run(units)
        flags = [
            {k: v for k, v in s.attrs.items() if k in ("oom", "preempted")}
            for s in tracer.spans
            if s.name == "exec:wide"
        ]
        assert flags == [{"preempted": True}, {"oom": False}]


class TestNoProgressRounds:
    def livelocked_manager(self, max_restart_rounds, monkeypatch):
        """Force every failure to be transient so no exclusion is ever
        learned and no round makes progress."""
        clock, events, region = sim()
        pm = PilotManager(region, events)
        um = UnitManager(events, max_restart_rounds=max_restart_rounds)
        um.add_pilot(
            pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 1)))
        )

        def boom():
            raise RuntimeError("flaky")

        orig = ComputeUnit.fail
        monkeypatch.setattr(
            ComputeUnit,
            "fail",
            lambda self, error, transient=False: orig(
                self, error, transient=True
            ),
        )
        units = um.submit_units(
            [UnitDescription(name="flaky", work=boom, cores=1,
                             max_restarts=10_000)]
        )
        return um, units

    def test_loop_gives_up_after_configured_rounds(self, monkeypatch):
        um, units = self.livelocked_manager(3, monkeypatch)
        with pytest.raises(ManagerError, match="did not converge"):
            um.run(units)
        assert units[0].restarts == 3

    def test_knob_is_respected(self, monkeypatch):
        um, units = self.livelocked_manager(1, monkeypatch)
        with pytest.raises(ManagerError, match="did not converge"):
            um.run(units)
        assert units[0].restarts == 1


class TestElasticPool:
    def pool(self, n_nodes=2, max_nodes=4):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        pilot = pm.launch(
            pm.submit(PilotDescription("P", "c3.2xlarge", n_nodes))
        )
        pool = ElasticPool(
            region, events, cluster=pilot.cluster, pilot=pilot,
            min_nodes=1, max_nodes=max_nodes,
        )
        return clock, events, region, pilot, pool

    def test_grows_to_cover_queue_depth(self):
        from repro.cloud.sge import SGEJob

        clock, events, region, pilot, pool = self.pool(n_nodes=1)
        sched = pilot.cluster.scheduler
        sched.qsub(SGEJob(name="a", slots=8, duration=100.0))
        sched.qsub(SGEJob(name="b", slots=8, duration=100.0))  # queued
        assert pool.rebalance() == 1
        assert pool.inflight == 1
        assert pool.rebalance() == 0  # inflight counted against demand
        events.run()
        assert pool.inflight == 0
        assert pool.grown_total == 1
        assert pilot.cluster.n_nodes == 2
        assert pilot.n_nodes == 2  # pilot resized to track the pool
        assert qstat(sched)["done"] == 2

    def test_growth_capped_at_max_nodes(self):
        from repro.cloud.sge import SGEJob

        clock, events, region, pilot, pool = self.pool(
            n_nodes=1, max_nodes=2
        )
        sched = pilot.cluster.scheduler
        for i in range(6):
            sched.qsub(SGEJob(name=f"j{i}", slots=8, duration=100.0))
        pool.rebalance()
        events.run()
        assert pilot.cluster.n_nodes == 2

    def test_preemption_hook_replaces_lost_node(self):
        from repro.cloud.sge import SGEJob

        clock, events, region, pilot, pool = self.pool(n_nodes=2)
        preemptor = SpotPreemptor(
            region, events, cluster=pilot.cluster,
            protect={pilot.cluster.head.vm_id},
        )
        preemptor.on_preempt.append(pool.on_preempt)
        sched = pilot.cluster.scheduler
        sched.qsub(SGEJob(name="a", slots=8, duration=500.0))
        sched.qsub(SGEJob(name="b", slots=8, duration=500.0))
        sched.qsub(SGEJob(name="c", slots=8, duration=500.0))  # queued
        preemptor.arm_in([10.0])
        events.run()
        # The worker died (taking job b), the pool replaced it, and the
        # queued job c eventually ran on the replacement.
        assert len(preemptor.preempted) == 1
        assert pool.grown_total >= 1
        assert sched.jobs and qstat(sched)["qw"] == 0
        assert qstat(sched)["done"] == 2  # a and c; b died with its node

    def test_shrink_idle_keeps_busy_workers(self):
        from repro.cloud.sge import SGEJob

        clock, events, region, pilot, pool = self.pool(n_nodes=3)
        head, busy, idle = pilot.cluster.vms
        job = SGEJob(name="a", slots=16, duration=500.0)
        pilot.cluster.scheduler.qsub(job)
        assert set(job.allocation) == {head.vm_id, busy.vm_id}
        assert pool.shrink_idle() == 1
        assert pilot.cluster.vms == [head, busy]

    def test_shrink_idle_releases_workers(self):
        clock, events, region, pilot, pool = self.pool(n_nodes=3)
        released = pool.shrink_idle()
        assert released == 2
        assert pilot.cluster.n_nodes == 1
        assert pilot.n_nodes == 1
        assert pool.shrunk_total == 2
        # Idempotent at the floor.
        assert pool.shrink_idle() == 0
