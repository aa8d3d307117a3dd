"""The Pilot entity: a held slice of cloud resources."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cloud.cluster import Cluster
from repro.obs import get_tracer
from repro.pilot.description import PilotDescription
from repro.pilot.states import PilotState, check_pilot_transition

_ids = itertools.count()


@dataclass
class Pilot:
    """A pilot: description + state + (once ACTIVE) a bound cluster."""

    description: PilotDescription
    pilot_id: str = field(default_factory=lambda: f"pilot.{next(_ids):04d}")
    state: PilotState = PilotState.NEW
    cluster: Cluster | None = None
    owns_vms: bool = True  # S1 pilots own their VMs; S2 pilots borrow
    #: Live slice size override set by the elastic (S3) pool; ``None``
    #: means the declared description.n_nodes.
    _elastic_nodes: int | None = field(default=None, repr=False)

    def advance(self, new: PilotState) -> None:
        """Move to ``new``, enforcing the transition table; the
        ``pilot.state`` trace event is the lifecycle's only record."""
        check_pilot_transition(self.state, new)
        old = self.state
        self.state = new
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "pilot.state",
                category="state",
                process=self.pilot_id,
                old=old.value,
                new=new.value,
            )

    @property
    def n_nodes(self) -> int:
        if self._elastic_nodes is not None:
            return self._elastic_nodes
        return self.description.n_nodes

    def resize(self, n_nodes: int) -> None:
        """Change the pilot's live slice size (the elastic S3 pool grows
        and shrinks pilots mid-run; S1/S2 pilots stay at their declared
        ``description.n_nodes``)."""
        if n_nodes < 1:
            raise ValueError("pilot needs at least one node")
        self._elastic_nodes = n_nodes
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "pilot.resize",
                category="pilot",
                process=self.pilot_id,
                n_nodes=n_nodes,
            )

    def bind_cluster(self, cluster: Cluster) -> None:
        if self.cluster is not None:
            raise RuntimeError(f"{self.pilot_id} already has a cluster")
        self.cluster = cluster
