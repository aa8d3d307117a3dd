"""S3: the elastic reused pool.

S1 couples VM lifetimes to pilots, S2 reuses one fixed pool across
pilots.  S3 keeps S2's reuse but makes the pool *elastic mid-run*: a
controller watches the pilot cluster's SGE queue and grows the pool when
queued slot demand outstrips free capacity — which is exactly what
happens under spot preemption pressure, when reclaimed workers take
their slots (and their running jobs) with them — then shrinks idle
workers back between stages.

Growth is asynchronous (see :meth:`EC2Region.launch_async`): replacement
VMs become usable one provisioning delay later, as events on the virtual
clock, while queued jobs keep running on the surviving nodes.  The pilot
is resized to track the pool, so capacity checks and cost-model sizing
follow the live cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.clock import EventQueue
from repro.cloud.cluster import Cluster
from repro.cloud.ec2 import EC2Region
from repro.cloud.vm import VM
from repro.obs import get_tracer
from repro.pilot.pilot import Pilot


@dataclass
class ElasticPool:
    """Grows/shrinks one pilot's shared cluster from SGE queue depth."""

    region: EC2Region
    events: EventQueue
    cluster: Cluster
    pilot: Pilot | None = None
    min_nodes: int = 1
    max_nodes: int = 64
    #: Nodes launched but not yet provisioned (counted against demand so
    #: one pressure spike does not double-launch).
    inflight: int = 0
    grown_total: int = 0
    shrunk_total: int = 0

    # -- demand signals ----------------------------------------------------

    def queued_slot_demand(self) -> int:
        return sum(j.slots for j in self.cluster.scheduler.queue)

    def free_slots(self) -> int:
        return self.cluster.scheduler.free_slots

    # -- growth ------------------------------------------------------------

    def rebalance(self) -> int:
        """Launch nodes to cover queued demand; returns nodes launched."""
        vcpus = self.cluster.itype.vcpus
        deficit = (
            self.queued_slot_demand()
            - self.free_slots()
            - self.inflight * vcpus
        )
        if deficit <= 0:
            return 0
        headroom = self.max_nodes - (self.cluster.n_nodes + self.inflight)
        count = min(-(-deficit // vcpus), headroom)
        if count <= 0:
            return 0
        self._launch(count)
        return count

    def on_preempt(self, vm: VM) -> None:
        """Preemption hook: track the shrunken pool, then re-grow it if
        the queue still has demand (wire via ``SpotPreemptor.on_preempt``)."""
        if self.pilot is not None:
            self.pilot.resize(max(1, self.cluster.n_nodes))
        self.rebalance()

    def _launch(self, count: int) -> None:
        self.inflight += count
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "elastic.grow",
                category="pilot",
                process=self.pilot.pilot_id if self.pilot else None,
                cluster=self.cluster.name,
                count=count,
                queued_slots=self.queued_slot_demand(),
                free_slots=self.free_slots(),
            )

        def ready(batch: list[VM]) -> None:
            self.inflight -= len(batch)
            self.grown_total += len(batch)
            for vm in batch:
                self.cluster.adopt_vm(vm)
            if self.pilot is not None:
                self.pilot.resize(self.cluster.n_nodes)
            tracer = get_tracer()
            tracer.count("elastic_nodes_added", len(batch))
            tracer.gauge("elastic_pool_nodes", self.cluster.n_nodes)

        self.region.launch_async(
            self.cluster.itype, count, self.events, on_ready=ready
        )

    # -- shrink ------------------------------------------------------------

    def shrink_idle(self) -> int:
        """Terminate fully idle workers down to ``min_nodes`` (called
        between stages); returns nodes released."""
        sched = self.cluster.scheduler
        released = 0
        for vm in list(reversed(self.cluster.vms)):
            if self.cluster.n_nodes <= self.min_nodes:
                break
            if vm is self.cluster.head or not sched.is_idle(vm.vm_id):
                continue
            sched.release_node(vm.vm_id)
            self.cluster.vms.remove(vm)
            self.region.terminate(vm)
            released += 1
        if released:
            self.shrunk_total += released
            if self.pilot is not None:
                self.pilot.resize(self.cluster.n_nodes)
            tracer = get_tracer()
            tracer.count("elastic_nodes_released", released)
            tracer.gauge("elastic_pool_nodes", self.cluster.n_nodes)
        return released
