"""Regression tests for the restart/accounting bugfix sweep.

Covers three bugs that corrupted results under retry and S2 VM reuse:

* ``reset_for_restart`` leaving the failed attempt's execution record in
  place (stale ``usage``/``result``/timestamps, bogus ``ttc``);
* the agent sizing units against the *cluster* instead of the pilot's
  declared slice (``launch_on`` onto a larger borrowed cluster);
* the restart loop re-placing a deterministically failing unit on the
  pilot it already failed on.
"""

import pytest

from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.cluster import build_cluster
from repro.cloud.ec2 import EC2Region
from repro.cloud.instances import GiB
from repro.obs import Tracer, use_tracer
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.pilot.agent import PilotAgent
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.manager import PilotManager, UnitFailureError, UnitManager
from repro.pilot.scheduler import SchedulingError
from repro.pilot.states import UnitState
from repro.pilot.unit import ComputeUnit
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
    # 1 GiB/rank at sim scale, scale=0.01 -> 100 GiB/rank: measured OOM
    # on every instance type in the catalogue.
    return UnitDescription(
        name=name, work=make_work(mem=10**9), cores=8, scale=0.01,
        max_restarts=max_restarts, **kw,
    )


class TestResetClearsExecutionRecord:
    def failed_unit(self):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        pilot = pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 1)))
        um = UnitManager(events)
        um.add_pilot(pilot)
        units = um.submit_units([oom_desc()])
        with pytest.raises(UnitFailureError):
            um.run(units)
        return units[0]

    def test_failed_attempt_records_usage(self):
        u = self.failed_unit()
        assert u.state is UnitState.FAILED
        assert u.usage is not None
        assert u.ttc > 0
        assert u.real_seconds is not None

    def test_reset_clears_everything(self):
        u = self.failed_unit()
        u.reset_for_restart()
        assert u.state is UnitState.UNSCHEDULED
        assert u.restarts == 1
        assert u.pilot_id is None
        assert u.error is None
        assert u.result is None
        assert u.usage is None
        assert u.started_at is None
        assert u.finished_at is None
        assert u.real_seconds is None
        assert u.ttc == 0.0

    def test_reset_unit_reports_no_usage(self):
        """The ISSUE scenario: a restarted unit that fails the *static*
        check (which returns before re-executing) must not report the
        dead attempt's usage or a bogus ttc."""
        clock, events, region = sim()
        pm = PilotManager(region, events)
        # Fits r3.2xlarge (61 GiB) statically but OOMs measured.
        big = pm.launch(pm.submit(PilotDescription("big", "r3.2xlarge", 1)))
        small = pm.launch(pm.submit(PilotDescription("small", "c3.2xlarge", 1)))
        desc = UnitDescription(
            name="u", work=make_work(mem=10**9), cores=8, scale=0.01,
            memory_bytes=40 * GiB,
        )
        unit = ComputeUnit(desc)
        unit.advance(UnitState.UNSCHEDULED)
        unit.advance(UnitState.SCHEDULING)
        unit.assign(big.pilot_id)
        agent = PilotAgent(pilot=big)
        agent.submit(unit)
        agent.collect(unit)
        events.run()
        assert unit.state is UnitState.FAILED
        assert unit.usage is not None  # the dead attempt's record

        unit.reset_for_restart()
        unit.advance(UnitState.SCHEDULING)
        unit.assign(small.pilot_id)
        # 40 GiB declared does not fit c3.2xlarge: static check fails
        # before execution, so nothing new is recorded ...
        PilotAgent(pilot=small).submit(unit)
        assert unit.state is UnitState.FAILED
        assert "static" in unit.error
        # ... and the failed first attempt must not leak through.
        assert unit.usage is None
        assert unit.ttc == 0.0


class TestSliceCapping:
    def borrowed_pilot(self, pilot_nodes, cluster_nodes):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        cluster = build_cluster(
            region, events, "c3.2xlarge", cluster_nodes, name="borrowed"
        )
        pilot = pm.submit(
            PilotDescription("P", "c3.2xlarge", n_nodes=pilot_nodes)
        )
        pm.launch_on(pilot, cluster)
        return clock, events, cluster, pilot

    def run_direct(self, agent, events, desc):
        unit = ComputeUnit(desc)
        unit.advance(UnitState.UNSCHEDULED)
        unit.advance(UnitState.SCHEDULING)
        unit.assign(agent.pilot.pilot_id)
        agent.submit(unit)
        if unit.state is UnitState.PENDING_EXECUTION:
            agent.collect(unit)
        events.run()
        return unit

    def test_slots_capped_at_pilot_slice(self):
        """A 1-node pilot on a 4-node borrowed cluster grants at most
        its own 8 slots, not the cluster's 32."""
        clock, events, cluster, pilot = self.borrowed_pilot(1, 4)
        agent = PilotAgent(pilot=pilot)
        desc = UnitDescription(
            name="wide", work=make_work(), cores=32, scale=0.01
        )
        unit = self.run_direct(agent, events, desc)
        assert unit.state is UnitState.DONE
        (job,) = cluster.scheduler.jobs.values()
        assert job.slots == 8
        assert sum(job.allocation.values()) == 8

    def test_slice_is_slower_than_whole_cluster(self):
        """The same unit takes longer on a 1-node slice than on a pilot
        that really owns all 4 nodes."""
        def ttc_with(pilot_nodes):
            clock, events, cluster, pilot = self.borrowed_pilot(
                pilot_nodes, 4
            )
            agent = PilotAgent(pilot=pilot)
            # 32 ranks oversubscribe the 8-core slice 4x (small per-rank
            # memory so packing them on one node stays within 16 GiB).
            desc = UnitDescription(
                name="wide", work=make_work(ranks=32, mem=10**6), cores=32,
                scale=0.01,
            )
            unit = self.run_direct(agent, events, desc)
            assert unit.state is UnitState.DONE
            return unit.ttc

        assert ttc_with(1) > ttc_with(4)

    def test_static_check_uses_slice_nodes(self):
        """Declared 20 GiB over cores=16 spans 2 nodes on the cluster
        but only 1 on the pilot's slice -> static OOM on c3 (16 GiB)."""
        clock, events, cluster, pilot = self.borrowed_pilot(1, 4)
        agent = PilotAgent(pilot=pilot)
        desc = UnitDescription(
            name="tall", work=make_work(), cores=16, scale=0.01,
            memory_bytes=20 * GiB,
        )
        unit = self.run_direct(agent, events, desc)
        assert unit.state is UnitState.FAILED
        assert "static" in unit.error


class TestRestartElsewhere:
    def test_no_same_pilot_retry_loop(self):
        """A deterministic OOM on the only pilot fails after ONE restart
        attempt with a SchedulingError — not after max_restarts loops on
        the pilot it already failed on."""
        clock, events, region = sim()
        pm = PilotManager(region, events)
        pilot = pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 1)))
        um = UnitManager(events)
        um.add_pilot(pilot)
        units = um.submit_units([oom_desc(max_restarts=8)])
        with pytest.raises(SchedulingError):
            um.run(units)
        (u,) = units
        assert u.restarts == 1  # one reset, then no untried pilot
        assert u.state is UnitState.FAILED
        assert "untried" in u.error

    def test_each_pilot_tried_once(self):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        pilots = [
            pm.launch(pm.submit(PilotDescription(f"P{i}", "c3.2xlarge", 1)))
            for i in range(3)
        ]
        um = UnitManager(events)
        for p in pilots:
            um.add_pilot(p)
        units = um.submit_units([oom_desc(max_restarts=10)])
        with use_tracer(Tracer(clock)) as tracer:
            with pytest.raises(SchedulingError):
                um.run(units)
        (u,) = units
        assert u.restarts == 3
        tried = placements(tracer, u)
        assert sorted(tried) == sorted(p.pilot_id for p in pilots)
        # A unit no pilot fits any more fails for good, counted as such.
        assert tracer.metrics.counters["units_failed_permanently"].value == 1

    def test_restart_still_succeeds_elsewhere(self):
        """The healthy path: OOM on the small pilot, restart lands on
        the (untried) big pilot and finishes."""
        clock, events, region = sim()
        pm = PilotManager(region, events)
        small = pm.launch(pm.submit(PilotDescription("small", "c3.2xlarge", 1)))
        big = pm.launch(pm.submit(PilotDescription("big", "r3.2xlarge", 1)))
        um = UnitManager(events)
        um.add_pilot(small)
        um.add_pilot(big)
        # 40 GiB/rank at paper scale: OOMs c3 (16 GiB), fits r3 (61 GiB).
        desc = UnitDescription(
            name="u", work=make_work(mem=4 * 10**8, ranks=1), cores=8,
            scale=0.01, max_restarts=1,
        )
        units = um.submit_units([desc])
        um.run(units)
        (u,) = units
        assert u.state is UnitState.DONE
        assert u.pilot_id == big.pilot_id
        assert u.restarts == 1
