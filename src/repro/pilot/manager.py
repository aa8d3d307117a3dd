"""PilotManager and UnitManager front-ends.

``PilotManager`` owns pilot lifecycles against the simulated EC2 region:
``launch`` (S1) and ``launch_on`` (S2, an existing cluster) share one
body, so both emit the same ``launch:`` span and state walk; finishing
or cancelling a pilot tears its VMs down when it owns them
(``tests/pilot/test_managers.py::TestPilotLifecycle``).

``UnitManager`` places compute units on pilots by the memory-aware rule
(:class:`MemoryAwareScheduler`, the only one), drives their execution
through the pilot agents, and restarts failed units elsewhere when
allowed — the pilot system's "starting, monitoring, and restarting"
role (§III.C; ``tests/pilot/test_failure_exhaustion.py``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cloud.clock import EventQueue
from repro.cloud.cluster import Cluster, build_cluster
from repro.cloud.ec2 import EC2Region
from repro.obs import get_tracer
from repro.parallel.costmodel import CostModel
from repro.parallel.executor import WorkloadExecutor, make_executor
from repro.pilot.agent import PilotAgent
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.pilot import Pilot
from repro.pilot.scheduler import MemoryAwareScheduler, SchedulingError
from repro.pilot.states import PilotState, UnitState
from repro.pilot.unit import ComputeUnit

if TYPE_CHECKING:  # import cycle: repro.core.__init__ -> ... -> this module
    from repro.core.assembly_cache import AssemblyCache
    from repro.core.checkpoint import CheckpointStore
    from repro.obs.live import StragglerDetector
    from repro.pilot.elastic import ElasticPool


class ManagerError(RuntimeError):
    pass


class UnitFailureError(ManagerError):
    """Units failed permanently (exhausted ``max_restarts``).

    Raised instead of returning success-shaped results with FAILED units
    silently left behind; ``units`` carries the permanently failed ones
    so callers can report or selectively recover.
    """

    def __init__(self, units: list["ComputeUnit"]) -> None:
        self.units = list(units)
        detail = ", ".join(
            f"{u.description.name} ({u.error})" for u in self.units
        )
        super().__init__(
            f"{len(self.units)} unit(s) failed permanently: {detail}"
        )


_log = logging.getLogger(__name__)


def _fail_permanently(units: list[ComputeUnit]) -> None:
    """Record units that will not run again: counted, logged and one
    ``unit.failed_permanently`` event each."""
    tracer = get_tracer()
    tracer.count("units_failed_permanently", len(units))
    for u in units:
        _log.error("unit %s failed permanently after %d restart(s): %s",
                   u.description.name, u.restarts, u.error)
        if tracer.enabled:
            tracer.event("unit.failed_permanently", category="scheduler",
                         thread=u.unit_id, unit=u.description.name,
                         restarts=u.restarts, error=u.error)


@dataclass
class PilotManager:
    """Creates, launches and cancels pilots on the region."""

    region: EC2Region
    events: EventQueue
    pilots: list[Pilot] = field(default_factory=list)

    def submit(self, description: PilotDescription) -> Pilot:
        pilot = Pilot(description=description)
        self.pilots.append(pilot)
        return pilot

    def launch(self, pilot: Pilot) -> Pilot:
        """S1-style launch: provision a fresh fleet for this pilot."""
        return self._launch(pilot, None)

    def launch_on(self, pilot: Pilot, cluster: Cluster) -> Pilot:
        """S2-style launch: bind to an existing cluster (VM reuse)."""
        if cluster.itype.name != pilot.description.instance_type:
            raise ManagerError(
                f"pilot wants {pilot.description.instance_type}, cluster is "
                f"{cluster.itype.name}"
            )
        if cluster.n_nodes < pilot.description.n_nodes:
            raise ManagerError(
                f"pilot wants {pilot.description.n_nodes} nodes, cluster has "
                f"{cluster.n_nodes}"
            )
        return self._launch(pilot, cluster)

    def _launch(self, pilot: Pilot, cluster: Cluster | None) -> Pilot:
        """Walk the pilot to ACTIVE on ``cluster``, or on a fleet of its
        own when there is none (the pilot then owns its VMs)."""
        desc = pilot.description
        reused = {} if cluster is None else {"cluster": cluster.name}
        with get_tracer().span(
            f"launch:{pilot.pilot_id}",
            category="pilot",
            process=pilot.pilot_id,
            instance_type=desc.instance_type,
            n_nodes=desc.n_nodes,
            reused_vms=cluster is not None,
            **reused,
        ):
            pilot.advance(PilotState.PENDING_LAUNCH)
            pilot.advance(PilotState.LAUNCHING)
            pilot.owns_vms = cluster is None
            if cluster is None:
                cluster = build_cluster(
                    self.region,
                    self.events,
                    desc.instance_type,
                    desc.n_nodes,
                    name=f"{pilot.pilot_id}.cluster",
                )
            pilot.bind_cluster(cluster)
            pilot.advance(PilotState.ACTIVE)
        return pilot

    def finish(self, pilot: Pilot) -> None:
        """Complete a pilot; terminates its fleet when it owns one (S1)."""
        pilot.advance(PilotState.DONE)
        if pilot.owns_vms and pilot.cluster is not None:
            self.region.terminate_all(pilot.cluster.vms)

    def cancel(self, pilot: Pilot) -> None:
        pilot.advance(PilotState.CANCELED)
        if pilot.owns_vms and pilot.cluster is not None:
            self.region.terminate_all(pilot.cluster.vms)


@dataclass
class UnitManager:
    """Schedules and executes compute units over a set of pilots.

    ``executor`` selects the workload-execution backend shared by all of
    this manager's pilot agents: ``"serial"`` (default), ``"thread"``,
    ``"process"``, or a ready :class:`WorkloadExecutor` instance.  The
    backend changes only *real* wall-time — virtual TTCs and results are
    identical across backends.
    """

    events: EventQueue
    cost_model: CostModel = field(default_factory=CostModel)
    executor: WorkloadExecutor | str = "serial"
    #: Durable checkpoint store forwarded to every agent (None = off):
    #: DONE outcomes are recorded under their checkpoint keys and
    #: replayed bit-identically on resume.
    checkpoint: "CheckpointStore | None" = None
    #: Run cache forwarded to every agent (None = off).
    cache: "AssemblyCache | None" = None
    #: Elastic pool controller (the S3 scheme): consulted each restart
    #: round to grow the pilot's cluster from SGE queue depth.
    elastic: "ElasticPool | None" = None
    #: Restart rounds that made no progress (no unit finished, no new
    #: exclusion learned) before the loop gives up as livelocked.
    #: Productive rounds do not count against it.
    max_restart_rounds: int = 10
    pilots: list[Pilot] = field(default_factory=list)
    units: list[ComputeUnit] = field(default_factory=list)
    _agents: dict[str, PilotAgent] = field(default_factory=dict)
    _straggler: "StragglerDetector | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.executor = make_executor(self.executor)
        if get_tracer().heartbeat_cadence > 0:
            # Agents share one straggler detector, so peer wall times
            # compare across the whole manager, not per pilot.
            from repro.obs.live import StragglerDetector

            self._straggler = StragglerDetector()

    def add_pilot(self, pilot: Pilot) -> None:
        if pilot.state is not PilotState.ACTIVE:
            raise ManagerError(f"{pilot.pilot_id} must be ACTIVE")
        self.pilots.append(pilot)
        self._agents[pilot.pilot_id] = PilotAgent(
            pilot=pilot,
            cost_model=self.cost_model,
            executor=self.executor,
            checkpoint=self.checkpoint,
            cache=self.cache,
            straggler=self._straggler,
        )

    def submit_units(
        self, descriptions: list[UnitDescription]
    ) -> list[ComputeUnit]:
        units = []
        for d in descriptions:
            unit = ComputeUnit(description=d)
            unit.advance(UnitState.UNSCHEDULED)
            units.append(unit)
            self.units.append(unit)
        return units

    def run(self, units: list[ComputeUnit] | None = None) -> list[ComputeUnit]:
        """Schedule, execute and (where allowed) restart units; returns
        them only when all are DONE, and raises otherwise.  Advances the
        virtual clock.

        Restarts honour the paper's §III.C "restarting [elsewhere]"
        semantics: a ``(unit, pilot)`` pair that already failed is never
        retried — except after *transient* failures (the unit's node was
        preempted), which are no fault of the unit's — and a unit whose
        restart fits no untried pilot fails with a
        :class:`SchedulingError` instead of looping.  A unit that fits no
        pilot fails alone; the other pending units end CANCELED.

        Units that exhaust ``description.max_restarts`` raise a
        :class:`UnitFailureError` listing them: a run with permanently
        failed units must never return success-shaped results.
        """
        run_units = list(units) if units is not None else list(self.units)
        pending = list(run_units)
        if not self.pilots:
            raise ManagerError("no pilots added")

        failed_on: dict[str, set[str]] = {}
        no_progress_rounds = 0
        while pending:
            try:
                assignment = MemoryAwareScheduler().schedule(
                    pending, self.pilots, exclude=failed_on
                )
            except SchedulingError as exc:
                # The unit that fits nowhere fails; the others, which
                # might have fit, are canceled with it as the reason.
                for unit in pending:
                    if exc.unit is None or unit is exc.unit:
                        if unit.state is UnitState.UNSCHEDULED:
                            unit.advance(UnitState.SCHEDULING)
                        unit.fail(str(exc))
                    else:
                        unit.error = f"canceled: {exc}"
                        unit.advance(UnitState.CANCELED)
                _fail_permanently(pending if exc.unit is None else [exc.unit])
                raise
            # Phase 1: dispatch every workload (they run concurrently
            # under a parallel executor backend) ...
            for unit in pending:
                unit.advance(UnitState.SCHEDULING)
                unit.assign(assignment[unit.unit_id])
                self._agents[unit.pilot_id].submit(unit)
            # ... phase 2: collect outcomes in submission order, which
            # enqueues the SGE jobs deterministically, then let virtual
            # time run.
            for unit in pending:
                if unit.state is UnitState.PENDING_EXECUTION:
                    self._agents[unit.pilot_id].collect(unit)
            if self.elastic is not None:
                # The queue is now fully populated for this round: grow
                # the pool if demand outstrips free slots.  Replacement
                # nodes land mid-run as provisioning events.
                self.elastic.rebalance()
            self.events.run()

            stuck = [
                u
                for u in pending
                if u.state not in (UnitState.DONE, UnitState.FAILED)
            ]
            if stuck:
                # The event queue drained with units neither DONE nor
                # FAILED — their SGE jobs can never start (capacity lost
                # and never replaced), or they were cancelled.  Surface
                # it: a unit leaves ``pending`` only DONE or through the
                # FAILED branch below, so a return means every unit is
                # DONE.
                raise ManagerError(
                    f"units never completed: "
                    f"{[(u.description.name, u.state.value) for u in stuck]}"
                )

            failed = [u for u in pending if u.state is UnitState.FAILED]
            made_progress = len(failed) < len(pending)
            for u in failed:
                # A transient failure (preempted node) says nothing
                # about the unit/pilot pairing, so it earns no
                # exclusion and the same pilot may be retried.
                if u.pilot_id is not None and not u.failure_transient:
                    if u.pilot_id not in failed_on.get(u.unit_id, set()):
                        made_progress = True
                    failed_on.setdefault(u.unit_id, set()).add(u.pilot_id)
            retryable = [
                u for u in failed if u.restarts < u.description.max_restarts
            ]
            exhausted = [
                u for u in failed if u.restarts >= u.description.max_restarts
            ]
            if exhausted:
                _fail_permanently(exhausted)
                raise UnitFailureError(exhausted)
            tracer = get_tracer()
            for u in retryable:
                _log.warning(
                    "restarting %s elsewhere (attempt %d, excluded pilots: %s)",
                    u.description.name,
                    u.restarts + 1,
                    sorted(failed_on.get(u.unit_id, ())),
                )
                tracer.count("units_restarted")
                if tracer.enabled:
                    tracer.event(
                        "unit.restart",
                        category="scheduler",
                        thread=u.unit_id,
                        unit=u.description.name,
                        excluded=sorted(failed_on.get(u.unit_id, ())),
                    )
                u.reset_for_restart()
            pending = retryable
            no_progress_rounds = 0 if made_progress else no_progress_rounds + 1
            if no_progress_rounds >= self.max_restart_rounds:
                raise ManagerError(
                    f"restart loop did not converge: {self.max_restart_rounds} "
                    f"consecutive round(s) without progress"
                )
        return run_units

    def close(self) -> None:
        """Release the executor backend's pool resources and stop any
        heartbeat threads (idempotent)."""
        for agent in self._agents.values():
            agent.stop_heartbeat()
        self.executor.shutdown()
