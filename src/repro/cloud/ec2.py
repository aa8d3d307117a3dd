"""Region-level EC2-style API: run, track and terminate instances.

On-demand semantics per the paper's §IV.C: the *user* (here, the pilot
layer's S1/S2 matching schemes) decides when VMs start and stop, pays the
provisioning delay on every launch, and is billed whole instance-hours on
termination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cloud.billing import BillingLedger, BillingLine
from repro.cloud.clock import SimClock
from repro.cloud.instances import InstanceType, get_instance_type
from repro.cloud.vm import VM, VMError, VMState
from repro.obs import get_tracer

#: Time from RunInstances to a usable node (boot + contextualization).
DEFAULT_PROVISION_SECONDS = 90.0


@dataclass
class EC2Region:
    """A simulated region bound to a virtual clock."""

    clock: SimClock
    provision_seconds: float = DEFAULT_PROVISION_SECONDS
    ledger: BillingLedger = field(default_factory=BillingLedger)
    vms: dict[str, VM] = field(default_factory=dict)
    _ids: itertools.count = field(default_factory=itertools.count, repr=False)

    def run_instances(
        self, itype: InstanceType | str, count: int = 1
    ) -> list[VM]:
        """Launch ``count`` VMs; the clock advances past provisioning.

        Returns RUNNING VMs (the paper's pipeline always blocks on
        readiness before submitting work; fleets provision in parallel so
        one delay covers the whole batch).
        """
        return self._launch(itype, count)

    def launch_async(
        self,
        itype: InstanceType | str,
        count: int,
        events,
        on_ready=None,
    ) -> list[VM]:
        """Launch VMs without blocking the clock (elastic replenishment).

        Unlike :meth:`run_instances`, which advances the clock past the
        provisioning window, this schedules readiness as an event
        ``provision_seconds`` in the future — so it is safe to call while
        other events are pending (mid-run growth from an event callback
        would otherwise move the clock past them).  The VMs are returned
        PENDING; ``on_ready(batch)`` fires once they are RUNNING.
        """
        return self._launch(itype, count, events, on_ready)

    def _launch(self, itype, count, events=None, on_ready=None) -> list[VM]:
        """Create ``count`` VMs now and provision them: past a clock
        advance, or on ``events`` one provisioning delay later."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if isinstance(itype, str):
            itype = get_instance_type(itype)
        now = self.clock.now
        batch = [
            VM(vm_id=f"i-{next(self._ids):06d}", itype=itype, launched_at=now)
            for _ in range(count)
        ]
        self.vms.update((vm.vm_id, vm) for vm in batch)

        def ready() -> None:
            for vm in batch:
                vm.mark_running(self.clock.now)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.add_span(
                    "vm.provision",
                    v_start=now,
                    v_end=self.clock.now,
                    category="cloud",
                    process="ec2",
                    count=count,
                    instance_type=itype.name,
                    vm_ids=[vm.vm_id for vm in batch],
                    **({} if events is None else {"asynchronous": True}),
                )
                tracer.count("vms_launched", count)
                tracer.gauge("vms_running", len(self.running()))
            if on_ready is not None:
                on_ready(batch)

        if events is None:
            self.clock.advance(self.provision_seconds)
            ready()
        else:
            events.schedule_in(self.provision_seconds, ready, tag="ec2.provision")
        return batch

    def terminate(self, vm: VM) -> None:
        """Terminate and bill one VM."""
        self._end(vm, preempted=False)

    def preempt(self, vm: VM) -> BillingLine | None:
        """The cloud reclaims a spot/preemptible VM.

        Idempotent: racing normal teardown is legal and bills nothing
        twice.  Billing runs up to the preemption time (the kill path),
        not to some later teardown.  Returns the billing line, or
        ``None`` when the VM was already terminated.
        """
        return self._end(vm, preempted=True)

    def _end(self, vm: VM, preempted: bool) -> BillingLine | None:
        """End ``vm``, bill it and record its ``vm.lifetime`` span; a
        reclaim of an already dead VM ends and bills nothing."""
        if vm.vm_id not in self.vms:
            raise VMError(f"unknown VM {vm.vm_id}")
        if not preempted:
            vm.mark_terminated(self.clock.now)
        elif not vm.kill(self.clock.now, preempted=True):
            return None
        line = self.ledger.charge_vm(vm, self.clock.now)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_span(
                "vm.lifetime",
                v_start=vm.launched_at,
                v_end=self.clock.now,
                category="cloud",
                process="ec2",
                thread=vm.vm_id,
                vm_id=vm.vm_id,
                pilot=vm.label,
                instance_type=vm.itype.name,
                hours_billed=line.hours_billed,
                cost_usd=line.cost,
                **({"preempted": True} if preempted else {}),
            )
            if preempted:
                tracer.event(
                    "vm.preempt",
                    category="cloud",
                    process="ec2",
                    thread=vm.vm_id,
                    instance_type=vm.itype.name,
                )
            tracer.count("vms_preempted" if preempted else "vms_terminated")
            tracer.count("billed_usd", line.cost)
            tracer.gauge("vms_running", len(self.running()))
        return line

    def terminate_all(self, vms: list[VM] | None = None) -> None:
        targets = vms if vms is not None else list(self.vms.values())
        for vm in targets:
            if vm.state is not VMState.TERMINATED:
                self.terminate(vm)

    def running(self) -> list[VM]:
        return [v for v in self.vms.values() if v.state is VMState.RUNNING]

    @property
    def total_cost(self) -> float:
        return self.ledger.total_cost
