"""Per-hour billing, as EC2 charged in 2016 (full instance-hours).

The paper reports the sample run's cost ($20.28 for 36 VMs over
~2 h 47 min); the ledger reproduces that arithmetic: every VM is billed
``ceil(uptime / 3600) * price_per_hour``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cloud.vm import VM


@dataclass(frozen=True)
class BillingLine:
    vm_id: str
    instance_type: str
    seconds: float
    hours_billed: int
    cost: float


@dataclass
class BillingLedger:
    """Accumulates VM charges."""

    lines: list[BillingLine] = field(default_factory=list)

    def charge_vm(self, vm: VM, now: float) -> BillingLine:
        """Bill one VM for its lifetime so far (idempotence is the
        caller's responsibility — EC2 bills on termination)."""
        seconds = vm.billable_seconds(now)
        hours = max(1, math.ceil(seconds / 3600.0 - 1e-9)) if seconds > 0 else 0
        line = BillingLine(
            vm_id=vm.vm_id,
            instance_type=vm.itype.name,
            seconds=seconds,
            hours_billed=hours,
            cost=hours * vm.itype.price_per_hour,
        )
        self.lines.append(line)
        return line

    @property
    def total_cost(self) -> float:
        return sum(l.cost for l in self.lines)
