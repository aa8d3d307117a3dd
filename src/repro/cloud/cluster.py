"""StarCluster analog: turn a set of VMs into an SGE cluster.

The paper builds its EC2 clusters with a customized StarCluster script
(§IV.A.ii): one head node plus workers, a shared filesystem, and SGE
configured with one slot per core.  ``build_cluster`` reproduces that
step including its setup delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.clock import EventQueue
from repro.cloud.ec2 import EC2Region
from repro.cloud.instances import InstanceType
from repro.cloud.sge import SGEScheduler
from repro.cloud.vm import VM, VMState
from repro.obs import get_tracer

#: StarCluster configuration time (NFS export, SGE install, host keys).
SETUP_SECONDS = 120.0


class ClusterError(RuntimeError):
    pass


@dataclass
class Cluster:
    """A running SGE cluster over a homogeneous set of VMs."""

    name: str
    vms: list[VM]
    scheduler: SGEScheduler
    events: EventQueue

    def __post_init__(self) -> None:
        if not self.vms:
            raise ClusterError("cluster needs at least one VM")
        itypes = {vm.itype.name for vm in self.vms}
        if len(itypes) > 1:
            raise ClusterError(
                f"StarCluster-style clusters are homogeneous; got {itypes}"
            )

    @property
    def head(self) -> VM:
        return self.vms[0]

    @property
    def itype(self) -> InstanceType:
        return self.head.itype

    @property
    def n_nodes(self) -> int:
        return len(self.vms)

    @property
    def total_slots(self) -> int:
        return self.scheduler.total_slots

    def grow(self, region: EC2Region, count: int) -> list[VM]:
        """Add worker nodes (used by the S2 scheme when a later pilot
        needs a bigger cluster than the current one)."""
        new = region.run_instances(self.itype, count)
        for vm in new:
            self.adopt_vm(vm)
        return new

    def adopt_vm(self, vm: VM) -> None:
        """Register an already-RUNNING VM as a worker node (elastic
        growth lands its asynchronously provisioned VMs through here)."""
        if vm.state is not VMState.RUNNING:
            raise ClusterError(f"{vm.vm_id} is not running")
        if vm.itype.name != self.itype.name:
            raise ClusterError(
                f"cluster is {self.itype.name}; cannot adopt {vm.itype.name}"
            )
        vm.label = self.name
        self.vms.append(vm)
        self.scheduler.add_node(vm.vm_id, vm.itype.vcpus)

    def lose_vm(self, vm: VM) -> list:
        """A worker was reclaimed under us (spot preemption): drop it
        and fail the SGE jobs that were running on it.

        The head node anchors the shared filesystem and the SGE qmaster;
        losing it kills the whole cluster, so it must be kept on-demand
        (a :class:`ClusterError` here is a modelling bug, not a
        recoverable event).  Tolerates VMs already dropped (the
        preemption/teardown race) by returning no failed jobs.
        """
        if vm not in self.vms:
            return []
        if vm is self.head:
            raise ClusterError(
                f"head node {vm.vm_id} lost: cluster {self.name} is down"
            )
        self.vms.remove(vm)
        return self.scheduler.remove_node(vm.vm_id)

    def shrink_to(self, region: EC2Region, keep: int) -> list[VM]:
        """Terminate all but the first ``keep`` nodes (idle ones only)."""
        if keep < 1:
            raise ClusterError("must keep at least the head node")
        doomed = self.vms[keep:]
        busy = [vm.vm_id for vm in doomed if not self.scheduler.is_idle(vm.vm_id)]
        if busy:
            raise ClusterError(f"cannot shrink: nodes busy {busy}")
        for vm in doomed:
            self.scheduler.release_node(vm.vm_id)
            region.terminate(vm)
        self.vms = self.vms[:keep]
        return doomed


def build_cluster(
    region: EC2Region,
    events: EventQueue,
    itype: InstanceType | str,
    n_nodes: int,
    name: str = "starcluster",
) -> Cluster:
    """Launch VMs and configure them as an SGE cluster (StarCluster)."""
    if n_nodes < 1:
        raise ClusterError("n_nodes must be >= 1")
    t0 = region.clock.now
    vms = region.run_instances(itype, n_nodes)
    for vm in vms:
        vm.label = name
    region.clock.advance(SETUP_SECONDS)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.add_span(
            f"cluster.setup:{name}",
            v_start=t0,
            v_end=region.clock.now,
            category="cloud",
            process="ec2",
            cluster=name,
            n_nodes=n_nodes,
            instance_type=vms[0].itype.name,
        )
    scheduler = SGEScheduler(events, {vm.vm_id: vm.itype.vcpus for vm in vms})
    return Cluster(name=name, vms=vms, scheduler=scheduler, events=events)
