"""Pilot-VM matching schemes S1 and S2 (paper Fig. 5).

On-demand clouds make the user responsible for starting and stopping
VMs, so the pipeline must decide how pilot lifetimes map onto VM
lifetimes:

* **S1 — coupled**: every pilot starts with freshly provisioned VMs sized
  for its stage and terminates them when it finishes.  Optimal instance
  choice per stage, but pays provisioning and inter-pilot data transfer
  on every boundary.
* **S2 — decoupled (reuse)**: one VM pool is created up front and reused
  by successive pilots (grown/shrunk as needed).  No transfer or re-boot
  overheads — the sample run's "the same VM serves for all three pilots"
  — but the pool's instance type must satisfy the most demanding stage
  (P. crispa's pre-processing forces the expensive r3.2xlarge to stick
  around for the whole run).
* **S3 — elastic reused pool**: S2's reuse, plus mid-run elasticity — an
  :class:`~repro.pilot.elastic.ElasticPool` controller grows the pool
  when SGE queue depth outstrips free slots (the signature of spot
  preemption pressure) and shrinks idle workers back between stages.
  The natural scheme for running the fan-out on preemptible instances.
"""

from __future__ import annotations

import enum


class MatchingScheme(enum.Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"

    @property
    def reuses_vms(self) -> bool:
        return self in (MatchingScheme.S2, MatchingScheme.S3)

    @property
    def elastic(self) -> bool:
        return self is MatchingScheme.S3

    @classmethod
    def parse(cls, value: "MatchingScheme | str") -> "MatchingScheme":
        if isinstance(value, cls):
            return value
        try:
            return cls[value.upper()]
        except KeyError:
            raise ValueError(f"unknown matching scheme {value!r}") from None
