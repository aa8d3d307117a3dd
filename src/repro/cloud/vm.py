"""Virtual machine lifecycle."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cloud.instances import InstanceType


class VMState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    TERMINATED = "terminated"


class VMError(RuntimeError):
    """Illegal VM operation (double terminate, using a dead VM, ...)."""


@dataclass
class VM:
    """One virtual machine instance."""

    vm_id: str
    itype: InstanceType
    launched_at: float
    state: VMState = VMState.PENDING
    running_at: float | None = None
    terminated_at: float | None = None
    #: True when the cloud reclaimed this VM (spot preemption) rather
    #: than the user terminating it.
    preempted: bool = False
    #: Which cluster/pilot this VM serves (set by the cluster layer so
    #: billing spans can be attributed to a pilot); ``None`` until bound.
    label: str | None = None

    def mark_running(self, now: float) -> None:
        if self.state is not VMState.PENDING:
            raise VMError(f"{self.vm_id}: cannot start from {self.state}")
        self.state = VMState.RUNNING
        self.running_at = now

    def mark_terminated(self, now: float) -> None:
        if self.state is VMState.TERMINATED:
            raise VMError(f"{self.vm_id}: already terminated")
        self.state = VMState.TERMINATED
        self.terminated_at = now

    def kill(self, now: float, preempted: bool = True) -> bool:
        """Forced termination (spot reclaim, crash): legal from any
        state and idempotent, unlike :meth:`mark_terminated` — an
        external kill racing normal teardown must not crash the sim.

        Returns ``True`` if this call terminated the VM, ``False`` if it
        was already dead (the race).  :meth:`billable_seconds` then runs
        up to the kill time only.
        """
        if self.state is VMState.TERMINATED:
            return False
        self.state = VMState.TERMINATED
        self.terminated_at = now
        self.preempted = preempted
        return True

    def billable_seconds(self, now: float) -> float:
        """Seconds from launch until termination (or ``now`` if running).

        EC2 bills from launch request, including the provisioning window.
        """
        end = self.terminated_at if self.terminated_at is not None else now
        return max(0.0, end - self.launched_at)
