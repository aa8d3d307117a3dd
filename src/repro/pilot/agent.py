"""The pilot agent: executes compute units on the pilot's cluster.

The agent is where virtual time happens: it runs each unit's *real*
workload callable through a pluggable :class:`WorkloadExecutor`,
extrapolates the measured usage to paper scale, prices it with the cost
model against the SGE slot allocation actually granted, and enforces
node memory — a unit whose extrapolated footprint does not fit its nodes
fails with an OOM, the exact failure mode motivating the paper's
distributed assemblers.

Execution is split into two phases so workloads can run concurrently:

* :meth:`PilotAgent.submit` performs the static capacity check and
  dispatches the workload to the executor backend;
* :meth:`PilotAgent.collect` (or :meth:`PilotAgent.drain`) blocks on the
  workload's outcome, prices it, and enqueues the SGE job whose
  completion callback binds the result back into the unit on the
  virtual clock.

All capacity math is capped at the *pilot's* declared slice
(``pilot.n_nodes``), not the bound cluster's size: an S2 pilot launched
via ``launch_on`` onto a larger borrowed cluster must not silently use
the whole cluster.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cloud.sge import SGEJob
from repro.obs import get_tracer
from repro.obs.context import SpanContext, merge_worker_trace
from repro.parallel.costmodel import CostModel, MachineConfig, fits_in_memory
from repro.parallel.executor import (
    ReplayWorkload,
    SerialExecutor,
    WorkloadExecutor,
    WorkloadHandle,
)
from repro.parallel.usage import ResourceUsage
from repro.pilot.pilot import Pilot
from repro.pilot.states import PilotState, UnitState
from repro.pilot.unit import ComputeUnit

if TYPE_CHECKING:  # import cycle: repro.core.__init__ -> ... -> this module
    from repro.core.checkpoint import CheckpointStore
    from repro.obs.live import HeartbeatMonitor, InflightUnit, StragglerDetector

#: Fraction of the priced runtime a task burns before dying of OOM.
OOM_FAILURE_FRACTION = 0.3

_log = logging.getLogger(__name__)


class AgentError(RuntimeError):
    pass


#: Span attribute names the exec-span emitters set explicitly; unit
#: description tags never override these.
_RESERVED_EXEC_ATTRS = frozenset(
    {"unit", "stage", "slots", "nodes", "oom", "preempted"}
)


def _extra_tags(unit: ComputeUnit) -> dict:
    """Unit description tags to stamp onto the exec span (assembler, k,
    ...) so trace analytics can slice cost/time by them.  Keys the span
    already carries explicitly (e.g. ``nodes``, which reflects the SGE
    allocation actually granted, not the requested one) are dropped."""
    return {
        k: v
        for k, v in unit.description.tags.items()
        if k not in _RESERVED_EXEC_ATTRS
    }


@dataclass
class PilotAgent:
    """Executes units bound to one ACTIVE pilot."""

    pilot: Pilot
    cost_model: CostModel = field(default_factory=CostModel)
    executor: WorkloadExecutor = field(default_factory=SerialExecutor)
    #: Durable checkpoint store: DONE unit outcomes are recorded under
    #: their ``description.checkpoint_key`` and replayed on later runs.
    checkpoint: "CheckpointStore | None" = None
    #: Peer-comparison analyzer fed each completed workload's wall time;
    #: shared across agents when the manager injects one, else built
    #: with the first heartbeat monitor.
    straggler: StragglerDetector | None = None
    _pending: dict[
        str,
        tuple[ComputeUnit, WorkloadHandle, SpanContext | None, bool, float],
    ] = field(default_factory=dict, repr=False)
    _heartbeat: HeartbeatMonitor | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.pilot.cluster is None:
            raise AgentError(f"{self.pilot.pilot_id} has no cluster")

    # -- the pilot's slice of the cluster ----------------------------------

    @property
    def slice_nodes(self) -> int:
        """Nodes this agent may use: the pilot's slice, never more than
        the cluster actually has."""
        return min(self.pilot.n_nodes, self.pilot.cluster.n_nodes)

    @property
    def slice_slots(self) -> int:
        """SGE slots within the pilot's slice."""
        cluster = self.pilot.cluster
        return min(cluster.total_slots, self.slice_nodes * cluster.itype.vcpus)

    # -- phase 1: dispatch -------------------------------------------------

    def submit(self, unit: ComputeUnit) -> None:
        """Check static capacity and dispatch the unit's workload."""
        if self.pilot.state is not PilotState.ACTIVE:
            raise AgentError(f"{self.pilot.pilot_id} is not ACTIVE")
        cluster = self.pilot.cluster
        unit.advance(UnitState.PENDING_EXECUTION)
        tracer = get_tracer()

        # Static capacity check against the declared footprint, sized on
        # the pilot's slice (not the possibly larger borrowed cluster).
        itype = cluster.itype
        nodes_spanned = max(
            1, min(self.slice_nodes, -(-unit.description.cores // itype.vcpus))
        )
        declared = unit.description.memory_bytes
        if declared and declared / nodes_spanned > itype.memory_bytes:
            tracer.count("units_oom_static")
            _log.warning(
                "%s: unit %s fails static memory check on %s",
                self.pilot.pilot_id,
                unit.description.name,
                itype.name,
            )
            unit.fail(
                f"OOM (static): needs {declared / nodes_spanned / 1024**3:.1f} "
                f"GiB/node on {itype.name} ({itype.memory_gb:.0f} GiB)"
            )
            return

        if unit.description.cores > self.slice_slots:
            _log.warning(
                "%s: unit %s wants %d cores; capping at the pilot slice's "
                "%d slots",
                self.pilot.pilot_id,
                unit.description.name,
                unit.description.cores,
                self.slice_slots,
            )

        # A checkpointed outcome substitutes for the real computation but
        # still travels the full dispatch/collect/SGE path below, so the
        # replay is bit-identical in results, virtual TTC and trace
        # structure (see repro.core.checkpoint).
        work = unit.description.work
        replayed = False
        key = unit.description.checkpoint_key
        if self.checkpoint is not None and key is not None:
            record = self.checkpoint.get_unit(key)
            if record is not None:
                work = ReplayWorkload(
                    result=record.result,
                    usage=record.usage,
                    wall_seconds=record.wall_seconds,
                    worker_trace=record.worker_trace,
                )
                replayed = True
                tracer.count("checkpoint_hits")
            else:
                tracer.count("checkpoint_misses")

        # Dispatch the real workload; it may run concurrently with other
        # units' workloads.  Virtual time is charged when the SGE job
        # runs, after collect() binds the outcome back in.
        tracer.count("units_submitted")
        with tracer.span(
            f"dispatch:{unit.description.name}",
            category="agent",
            process=self.pilot.pilot_id,
            thread=unit.unit_id,
            backend=self.executor.name,
        ) as dispatch:
            # The context rides with the workload across the executor
            # boundary; worker records are re-parented under this
            # dispatch span when the outcome is collected.
            context = SpanContext.capture(
                tracer,
                parent_span_id=dispatch.span_id,
                process=self.pilot.pilot_id,
                thread=unit.unit_id,
            )
            handle = self.executor.submit(work, context)
        self._pending[unit.unit_id] = (
            unit, handle, context, replayed, time.perf_counter(),
        )
        self._ensure_heartbeat(tracer)

    # -- heartbeats --------------------------------------------------------

    def _inflight_snapshot(self) -> list[InflightUnit]:
        """The pending table as the heartbeat thread sees it (a copy —
        the beat never holds the agent up)."""
        from repro.obs.live import InflightUnit

        executor_inflight = self.executor.inflight_count()
        return [
            InflightUnit(
                unit_id=unit_id,
                name=unit.description.name,
                stage=unit.description.stage,
                submitted_r=submitted_r,
                attrs={
                    "backend": self.executor.name,
                    "executor_inflight": executor_inflight,
                },
            )
            for unit_id, (unit, _, _, _, submitted_r) in list(
                self._pending.items()
            )
        ]

    def _ensure_heartbeat(self, tracer) -> None:
        """Beat every ``tracer.heartbeat_cadence`` real seconds while
        workloads are in flight (0, and always with tracing off: no
        thread).  Heartbeats live entirely on the real clock; virtual
        TTCs are identical with them on or off."""
        if tracer.heartbeat_cadence <= 0:
            return
        if self._heartbeat is None:
            from repro.obs.live import HeartbeatMonitor, StragglerDetector

            if self.straggler is None:
                self.straggler = StragglerDetector()
            self._heartbeat = HeartbeatMonitor(
                tracer,
                tracer.heartbeat_cadence,
                self._inflight_snapshot,
                process=self.pilot.pilot_id,
                detector=self.straggler,
            )
        self._heartbeat.start()

    def stop_heartbeat(self) -> None:
        """Stop the heartbeat thread (idempotent; restartable)."""
        if self._heartbeat is not None:
            self._heartbeat.stop()

    # -- phase 2: collect --------------------------------------------------

    def collect(self, unit: ComputeUnit) -> None:
        """Block on the unit's workload outcome and enqueue its SGE job."""
        try:
            unit, handle, context, replayed, _ = self._pending.pop(
                unit.unit_id
            )
        except KeyError:
            raise AgentError(
                f"{unit.unit_id} has no pending workload on "
                f"{self.pilot.pilot_id}"
            ) from None
        outcome = handle.outcome()
        if not self._pending and self._heartbeat is not None:
            self._heartbeat.stop()  # restarted by the next submit round
        if self.straggler is not None and outcome.ok:
            self.straggler.note_completion(outcome.wall_seconds)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "workload.outcome",
                category="executor",
                process=self.pilot.pilot_id,
                thread=unit.unit_id,
                ok=outcome.ok,
                wall_seconds=outcome.wall_seconds,
                backend=self.executor.name,
            )
            tracer.observe("workload_wall_seconds", outcome.wall_seconds)
            merged = merge_worker_trace(tracer, outcome.worker_trace, context)
            if merged:
                tracer.count("worker_records_merged", float(merged))
                tracer.event(
                    "worker_trace.merged",
                    category="executor",
                    process=self.pilot.pilot_id,
                    thread=unit.unit_id,
                    pid=outcome.worker_trace.pid,
                    records=merged,
                )
        if not outcome.ok:
            tracer.count("units_workload_errors")
            _log.warning(
                "%s: workload of %s raised: %s",
                self.pilot.pilot_id,
                unit.description.name,
                outcome.error,
            )
            # A dead worker breaks the whole pool and fails every future
            # in flight on it: like a preempted node that says nothing
            # about the unit or its pilot, so a restart may come back here.
            unit.fail(
                f"workload error: {outcome.error}",
                transient=isinstance(outcome.error, BrokenExecutor),
            )
            return
        unit.real_seconds = outcome.wall_seconds
        key = unit.description.checkpoint_key
        if self.checkpoint is not None and key is not None and not replayed:
            # Record the *raw* outcome (pre-scaling usage): replay runs
            # the identical pricing path, so TTCs match bit-for-bit.
            from repro.core.checkpoint import UnitCheckpoint

            self.checkpoint.put_unit(
                key,
                UnitCheckpoint(
                    result=outcome.result,
                    usage=outcome.usage,
                    wall_seconds=outcome.wall_seconds,
                    worker_trace=outcome.worker_trace,
                ),
            )
            tracer.count("checkpoint_puts")
        self._enqueue(unit, outcome.result, outcome.usage)

    def drain(self) -> None:
        """Collect every pending unit, in dispatch order."""
        for unit, _, _, _, _ in list(self._pending.values()):
            self.collect(unit)

    @property
    def pending_units(self) -> list[ComputeUnit]:
        return [unit for unit, _, _, _, _ in self._pending.values()]

    # -- pricing and the virtual-clock SGE job -----------------------------

    def _enqueue(self, unit: ComputeUnit, result, usage: ResourceUsage) -> None:
        cluster = self.pilot.cluster
        itype = cluster.itype
        scaled = usage.scaled(1.0 / unit.description.scale)
        oom = {"hit": False}

        def duration(alloc: dict[str, int]) -> float:
            # The pilot only holds slice_nodes of the cluster, so the
            # unit never spreads wider than its slice even when SGE
            # fragments the allocation across more physical nodes.
            n_nodes = min(len(alloc), self.slice_nodes)
            machine = MachineConfig(
                n_nodes=n_nodes,
                cores_per_node=itype.vcpus,
                compute_factor=itype.compute_factor,
                network_bandwidth=itype.network_bandwidth,
            )
            seconds = self.cost_model.task_seconds(scaled, machine)
            seconds += self.cost_model.io_seconds(
                unit.description.input_bytes + unit.description.output_bytes,
                machine,
            )
            ranks_per_node = -(-scaled.n_ranks // n_nodes)
            if not fits_in_memory(scaled, itype.memory_bytes, ranks_per_node):
                oom["hit"] = True
                return seconds * OOM_FAILURE_FRACTION
            return seconds

        def on_start_states() -> None:
            unit.advance(UnitState.EXECUTING)
            unit.started_at = cluster.events.clock.now

        def on_complete(job: SGEJob) -> None:
            unit.finished_at = cluster.events.clock.now
            tracer = get_tracer()
            if tracer.enabled:
                tracer.add_span(
                    f"exec:{unit.description.name}",
                    v_start=unit.started_at,
                    v_end=unit.finished_at,
                    category="unit",
                    process=self.pilot.pilot_id,
                    thread=unit.unit_id,
                    unit=unit.description.name,
                    stage=unit.description.stage,
                    slots=job.slots,
                    nodes=len(job.allocation),
                    oom=oom["hit"],
                    **_extra_tags(unit),
                )
            if oom["hit"]:
                peak = scaled.peak_rank_memory_bytes
                tracer.count("units_oom_measured")
                _log.warning(
                    "%s: unit %s hit a measured OOM on %s",
                    self.pilot.pilot_id,
                    unit.description.name,
                    itype.name,
                )
                unit.result = None
                unit.usage = scaled
                unit.fail(
                    f"OOM (measured): peak rank footprint "
                    f"{peak / 1024**3:.1f} GiB on {itype.name}"
                )
                return
            tracer.count("units_done")
            unit.result = result
            unit.usage = scaled
            unit.advance(UnitState.DONE)

        def timed_duration(alloc: dict[str, int]) -> float:
            on_start_states()
            return duration(alloc)

        def on_fail(job: SGEJob) -> None:
            # The job died with the node under it (spot preemption) or
            # was starved out by the capacity loss — not the unit's
            # fault, so the failure is transient: the restart loop may
            # legally retry on this same pilot.
            tracer = get_tracer()
            tracer.count("units_preempted")
            if job.started_at is not None:
                unit.finished_at = cluster.events.clock.now
                unit.usage = scaled  # burnt work, kept for accounting
                if tracer.enabled:
                    tracer.add_span(
                        f"exec:{unit.description.name}",
                        v_start=unit.started_at,
                        v_end=unit.finished_at,
                        category="unit",
                        process=self.pilot.pilot_id,
                        thread=unit.unit_id,
                        unit=unit.description.name,
                        stage=unit.description.stage,
                        slots=job.slots,
                        nodes=len(job.allocation),
                        preempted=True,
                        **_extra_tags(unit),
                    )
            _log.warning(
                "%s: unit %s lost its node: %s",
                self.pilot.pilot_id,
                unit.description.name,
                job.error,
            )
            unit.fail(f"preempted: {job.error}", transient=True)

        job = SGEJob(
            name=unit.description.name,
            slots=min(unit.description.cores, self.slice_slots),
            duration=timed_duration,
            on_complete=on_complete,
            on_fail=on_fail,
        )
        cluster.scheduler.qsub(job)


def merged_usage(
    units: list[ComputeUnit], include_failed: bool = False
) -> ResourceUsage:
    """Sequentially merge the scaled usage of finished units.

    By default only DONE units contribute: a FAILED unit's usage (e.g.
    the partial record of a measured OOM) describes work whose outputs
    were discarded.  Pass ``include_failed=True`` to account for that
    burnt work too — e.g. when totalling what a run actually consumed.
    """
    total = ResourceUsage()
    for u in units:
        if u.usage is None:
            continue
        if u.state is not UnitState.DONE and not include_failed:
            continue
        total = total.merge(u.usage)
    return total
