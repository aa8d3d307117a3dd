"""Integration tests for pilots, units, schedulers, agents and managers."""

import pytest

from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.ec2 import EC2Region
from repro.cloud.instances import GiB
from repro.obs import Tracer, use_tracer
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.manager import (
    ManagerError,
    PilotManager,
    UnitFailureError,
    UnitManager,
)
from repro.pilot.pilot import Pilot
from repro.pilot.scheduler import (
    MemoryAwareScheduler,
    SchedulingError,
    unit_fits_pilot,
)
from repro.pilot.states import PilotState, StateError, UnitState
from repro.pilot.unit import ComputeUnit
from tests.pilot.lifecycle import pilot_states, unit_states


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


def unit_desc(name="u", cores=8, scale=0.01, mem_paper=0, **kw):
    return UnitDescription(
        name=name, work=make_work(**kw), cores=cores, scale=scale,
        memory_bytes=mem_paper,
    )


class TestPilotLifecycle:
    def test_launch_builds_cluster(self):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        pilot = pm.submit(PilotDescription("PA", "c3.2xlarge", n_nodes=3))
        assert pilot.state is PilotState.NEW
        pm.launch(pilot)
        assert pilot.state is PilotState.ACTIVE
        assert pilot.cluster.n_nodes == 3
        assert len(region.running()) == 3

    def test_finish_terminates_owned_vms(self):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        pilot = pm.launch(pm.submit(PilotDescription("PA", "c3.2xlarge", 2)))
        pm.finish(pilot)
        assert pilot.state is PilotState.DONE
        assert region.running() == []
        assert region.total_cost > 0

    def test_s2_launch_on_existing_cluster(self):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        p1 = pm.launch(pm.submit(PilotDescription("PA", "c3.2xlarge", 2)))
        cluster = p1.cluster
        pm.finish_keep_vms = None  # not part of API; S2 finishes pilots only
        p2 = pm.submit(PilotDescription("PB", "c3.2xlarge", 2))
        pm.launch_on(p2, cluster)
        assert p2.state is PilotState.ACTIVE
        assert p2.cluster is cluster
        assert not p2.owns_vms
        # finishing the borrowing pilot must NOT kill the shared VMs
        pm.finish(p2)
        assert len(region.running()) == 2

    def test_launch_on_mismatched_type_rejected(self):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        p1 = pm.launch(pm.submit(PilotDescription("PA", "c3.2xlarge", 2)))
        p2 = pm.submit(PilotDescription("PB", "r3.2xlarge", 2))
        with pytest.raises(ManagerError):
            pm.launch_on(p2, p1.cluster)

    def test_launch_on_too_small_cluster_rejected(self):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        p1 = pm.launch(pm.submit(PilotDescription("PA", "c3.2xlarge", 1)))
        p2 = pm.submit(PilotDescription("PB", "c3.2xlarge", 5))
        with pytest.raises(ManagerError):
            pm.launch_on(p2, p1.cluster)

    def test_state_history_in_db(self):
        """The trace is the pilot's state record (its database)."""
        clock, events, region = sim()
        with use_tracer(Tracer(clock)) as tracer:
            pm = PilotManager(region, events)
            pilot = pm.launch(pm.submit(PilotDescription("PA", "c3.2xlarge", 1)))
        assert pilot_states(tracer, pilot) == [
            "NEW", "PENDING_LAUNCH", "LAUNCHING", "ACTIVE",
        ]

    def test_illegal_advance_rejected(self):
        clock, events, region = sim()
        pilot = Pilot(PilotDescription("P", "c3.2xlarge", 1))
        with pytest.raises(StateError):
            pilot.advance(PilotState.ACTIVE)


class TestSchedulers:
    def make_pilots(self):
        small = Pilot(PilotDescription("small", "c3.2xlarge", 1))
        big = Pilot(PilotDescription("big", "r3.2xlarge", 4))
        return small, big

    def test_fits_cores(self, ):
        clock, events, region = sim()
        small, big = self.make_pilots()
        u = ComputeUnit(unit_desc(cores=16))
        assert not unit_fits_pilot(u, small)
        assert unit_fits_pilot(u, big)

    def test_fits_memory(self):
        clock, events, region = sim()
        small, big = self.make_pilots()
        u = ComputeUnit(unit_desc(cores=8, mem_paper=40 * GiB))
        assert not unit_fits_pilot(u, small)  # 40 GiB > c3's 16 GiB
        assert unit_fits_pilot(u, big)

    def test_memory_aware_prefers_cheap_when_fits(self):
        clock, events, region = sim()
        small, big = self.make_pilots()
        u = ComputeUnit(unit_desc(cores=8, mem_paper=8 * GiB))
        out = MemoryAwareScheduler().schedule([u], [small, big])
        assert out[u.unit_id] == small.pilot_id  # c3 is cheaper

    def test_memory_aware_escalates(self):
        clock, events, region = sim()
        small, big = self.make_pilots()
        u = ComputeUnit(unit_desc(cores=8, mem_paper=40 * GiB))
        out = MemoryAwareScheduler().schedule([u], [small, big])
        assert out[u.unit_id] == big.pilot_id

    def test_no_fit_raises(self):
        clock, events, region = sim()
        small, _ = self.make_pilots()
        u = ComputeUnit(unit_desc(cores=8, mem_paper=400 * GiB))
        with pytest.raises(SchedulingError):
            MemoryAwareScheduler().schedule([u], [small])

    def test_no_pilots_raises(self):
        clock, events, region = sim()
        u = ComputeUnit(unit_desc())
        with pytest.raises(SchedulingError):
            MemoryAwareScheduler().schedule([u], [])


class TestUnitExecution:
    def run_units(self, descs, pilot_desc=None):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        pilot = pm.launch(
            pm.submit(pilot_desc or PilotDescription("P", "c3.2xlarge", 2))
        )
        um = UnitManager(events)
        um.add_pilot(pilot)
        units = um.submit_units(descs)
        um.run(units)
        return clock, units, um, pilot

    def test_success_path(self):
        clock, units, _, _ = self.run_units([unit_desc(name="ok")])
        (u,) = units
        assert u.state is UnitState.DONE
        assert u.result == "result"
        assert u.ttc > 0
        assert u.usage is not None

    def test_concurrent_units_share_slots(self):
        descs = [unit_desc(name=f"u{i}", cores=8) for i in range(4)]
        clock, units, _, _ = self.run_units(descs)
        starts = sorted(u.started_at for u in units)
        # 2 nodes x 8 slots: two waves of two
        assert starts[0] == starts[1]
        assert starts[2] == starts[3]
        assert starts[2] > starts[0]

    def test_oom_fails_unit(self):
        # 1 GiB per rank at sim scale, scale=0.01 -> 100 GiB per rank.
        # With no restart budget the run surfaces the failure loudly
        # instead of returning normally with a FAILED unit.
        descs = [unit_desc(name="big", mem=10**9, scale=0.01)]
        with pytest.raises(UnitFailureError) as exc_info:
            self.run_units(descs)
        (u,) = exc_info.value.units
        assert u.state is UnitState.FAILED
        assert "OOM" in u.error
        assert "big" in str(exc_info.value)

    def test_static_oom_fails_before_execution(self):
        """Submitting directly to an agent (bypassing the scheduler's fit
        check) trips the agent's own static capacity guard."""
        from repro.pilot.agent import PilotAgent

        clock, events, region = sim()
        pm = PilotManager(region, events)
        pilot = pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 2)))
        agent = PilotAgent(pilot)
        unit = ComputeUnit(unit_desc(name="huge", mem_paper=400 * GiB))
        unit.advance(UnitState.UNSCHEDULED)
        unit.advance(UnitState.SCHEDULING)
        agent.submit(unit)
        assert unit.state is UnitState.FAILED
        assert "static" in unit.error

    def test_workload_exception_fails_unit(self):
        def boom():
            raise RuntimeError("kaput")

        desc = UnitDescription(name="bad", work=boom, cores=1)
        with pytest.raises(UnitFailureError) as exc_info:
            self.run_units([desc])
        (u,) = exc_info.value.units
        assert u.state is UnitState.FAILED
        assert "kaput" in u.error

    def test_restart_succeeds_on_bigger_pilot(self):
        """OOM on c3 -> restart -> memory-aware scheduler picks r3."""
        clock, events, region = sim()
        pm = PilotManager(region, events)
        small = pm.launch(pm.submit(PilotDescription("small", "c3.2xlarge", 1)))
        big = pm.launch(pm.submit(PilotDescription("big", "r3.2xlarge", 1)))
        um = UnitManager(events)
        um.add_pilot(small)
        um.add_pilot(big)
        # declared 40 GiB (paper scale): memory-aware goes straight to r3
        desc = UnitDescription(
            name="preproc", work=make_work(mem=4 * 10**8, ranks=1),
            cores=8, scale=0.01, memory_bytes=40 * GiB, max_restarts=1,
        )
        units = um.submit_units([desc])
        um.run(units)
        (u,) = units
        assert u.state is UnitState.DONE
        assert u.pilot_id == big.pilot_id

    def test_restart_counter(self):
        """Each restart lands on an untried pilot and bumps the counter;
        once every pilot has been tried the run fails with a
        SchedulingError instead of looping on a pilot it already
        failed on."""
        clock, events, region = sim()
        pm = PilotManager(region, events)
        p1 = pm.launch(pm.submit(PilotDescription("P1", "c3.2xlarge", 1)))
        p2 = pm.launch(pm.submit(PilotDescription("P2", "c3.2xlarge", 1)))
        um = UnitManager(events)
        um.add_pilot(p1)
        um.add_pilot(p2)
        desc = UnitDescription(
            name="oom", work=make_work(mem=10**9), cores=8, scale=0.01,
            max_restarts=5,
        )
        units = um.submit_units([desc])
        with pytest.raises(SchedulingError):
            um.run(units)
        (u,) = units
        # OOMed on both pilots, restarted after each: two attempts.
        assert u.restarts == 2
        assert u.state is UnitState.FAILED
        assert "untried" in u.error

    def test_a_unit_that_fits_no_pilot_cancels_the_others(self):
        """Only the unit that fits nowhere fails for good; the unit that
        fits is canceled, naming the blocking unit, and is neither
        recorded nor counted as a permanent failure."""
        with use_tracer(Tracer()) as tracer:
            clock, events, region = sim()
            pm = PilotManager(region, events)
            pilot = pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 1)))
            um = UnitManager(events)
            um.add_pilot(pilot)
            small, huge = um.submit_units([
                unit_desc(name="small"), unit_desc(name="huge", mem_paper=40 * GiB),
            ])
            with pytest.raises(SchedulingError) as exc_info:
                um.run([small, huge])
        assert exc_info.value.unit is huge
        assert huge.state is UnitState.FAILED
        assert "unit 'huge' fits no pilot" in huge.error
        assert small.state is UnitState.CANCELED
        assert "unit 'huge' fits no pilot" in small.error
        assert unit_states(tracer, small) == ["NEW", "UNSCHEDULED", "CANCELED"]
        (event,) = [e for e in tracer.events if e.name == "unit.failed_permanently"]
        assert event.attrs["unit"] == "huge"
        assert tracer.metrics.counters["units_failed_permanently"].value == 1

    def test_no_usable_pilot_fails_every_pending_unit(self):
        clock, events, region = sim()
        pm = PilotManager(region, events)
        pilot = pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 1)))
        um = UnitManager(events)
        um.add_pilot(pilot)
        units = um.submit_units([unit_desc(name="a"), unit_desc(name="b")])
        pm.cancel(pilot)
        with use_tracer(Tracer()) as tracer:
            with pytest.raises(SchedulingError, match="no usable pilots"):
                um.run(units)
        assert [u.state for u in units] == [UnitState.FAILED] * 2
        assert tracer.metrics.counters["units_failed_permanently"].value == 2

    def test_no_pilots_rejected(self):
        clock, events, region = sim()
        um = UnitManager(events)
        units = um.submit_units([unit_desc()])
        with pytest.raises(ManagerError):
            um.run(units)

    def test_unit_timeline_in_db(self):
        """The trace is the unit's state record (its database)."""
        with use_tracer(Tracer()) as tracer:
            clock, units, um, _ = self.run_units([unit_desc(name="tl")])
        (u,) = units
        assert unit_states(tracer, u) == [
            "NEW", "UNSCHEDULED", "SCHEDULING", "PENDING_EXECUTION",
            "EXECUTING", "DONE",
        ]
