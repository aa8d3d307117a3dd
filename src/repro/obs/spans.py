"""The one fold over trace records.

Every trace analysis — ``report``, ``diff``, ``critpath``,
``attribution``, the run ledger, the live ``monitor`` and the
:class:`~repro.obs.alerts.AlertEngine` — reads the record stream
(:func:`repro.obs.export.write_jsonl`'s archive or a
:class:`~repro.obs.tracer.TraceSink`'s live stream) through one
:class:`RunState`.  :meth:`RunState.apply` indexes each record once and
the analyses are views over the indexes, so this module is the single
place outside the format's writer and reader that knows a record's
``type``.

**Run scoping.**  One tracer over several runs writes them all into
one trace; the fold keeps the *last* run.  When a
``pipeline`` root span arrives, every record whose real timestamp
(``r0`` for a span, ``r`` otherwise) precedes the root's ``r0``
belongs to an earlier run and is dropped.  The rule gives the same
answer on the archive (sorted by real start: a root comes first in its
run) and on the live stream (a root closes last).  The final
``metrics`` snapshot is tracer-wide and never scoped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

#: Empty metrics snapshot, the shape :meth:`Metrics.snapshot` produces.
EMPTY_METRICS: dict = {"counters": {}, "gauges": {}, "histograms": {}}

#: Unit states that are final.
DONE, FAILED, CANCELED = "DONE", "FAILED", "CANCELED"
FINAL_STATES = {DONE, FAILED, CANCELED}


def v_duration(span: dict) -> float:
    """Virtual seconds covered by a span (0 when no clock was bound)."""
    if span["v0"] is None or span["v1"] is None:
        return 0.0
    return span["v1"] - span["v0"]


def r_duration(span: dict) -> float:
    """Real host seconds covered by a span."""
    return span["r1"] - span["r0"]


def stage_name(span: dict) -> str:
    """A stage span's logical name (``stage`` attr, else span name)."""
    return span["attrs"].get("stage", span["name"])


def _real_start(record: dict) -> float | None:
    return record.get("r0", record.get("r"))


@dataclass
class UnitView:
    """One pilot unit as its latest ``unit.state`` transition left it."""

    name: str = "?"
    stage: str = ""
    state: str = "NEW"


class RunState:
    """One run's records, indexed as they arrive (archive or stream)."""

    def __init__(self) -> None:
        #: The ``metrics`` snapshot (tracer-wide), once one arrived.
        self.snapshot: dict | None = None
        self._clear()

    def _clear(self) -> None:
        self.spans: list[dict] = []  # closed spans, stream order
        self.events: list[dict] = []  # stream order
        #: Closed ``stage`` spans by stage name (see :meth:`stage_spans`).
        self.stages: dict[str, dict] = {}
        #: The ``pipeline`` root span, once it closed.
        self.pipeline: dict | None = None
        #: ``unit``-category exec spans on the virtual clock, by stage.
        self.execs: dict[str, list[dict]] = {}
        #: Latest ``unit.state`` per unit thread id.
        self.units: dict[str, UnitView] = {}
        #: Merged worker tracks: workloads run and real seconds busy.
        self.workers: dict[str, dict] = {}
        #: Latest ``unit.heartbeat`` attrs per unit name.
        self.heartbeats: dict[str, dict] = {}
        #: ``alert``-category events (rules-engine firings).
        self.alerts: list[dict] = []
        #: The ``planner.prediction`` event's attrs.
        self.planner: dict = {}
        #: ``vm.lifetime`` billing spans and the dollars they bill.
        self.billing: list[dict] = []
        self.billed_usd = 0.0
        #: Counter-delta records and their sums (see :attr:`counters`).
        self._deltas: list[dict] = []
        self._delta_counters: dict[str, float] = {}
        #: (type, category, name) -> occurrences, over spans and events.
        self.name_counts: dict[tuple[str, str, str], int] = {}
        #: Real-time extent of the records seen.
        self.first_r: float | None = None
        self.last_r: float | None = None

    # -- ingestion ---------------------------------------------------------

    def apply(self, record: dict) -> str | None:
        """Index one record; returns its role — ``"stage"``,
        ``"billing"``, ``"planner"``, ``"heartbeat"``, ``"straggler"``,
        ``"alert"``, ``"span"``, ``"event"``, … — so a streaming
        consumer can react per record, or None for a shape no view
        reads (``span_open``, non-counter metric deltas)."""
        kind = record.get("type")
        if kind == "metrics":
            self.snapshot = record["data"]
            return "metrics"
        if kind == "span" and record.get("cat") == "pipeline":
            self._scope_to(record["r0"])
        lo = _real_start(record)
        if isinstance(lo, (int, float)):
            hi = record.get("r1", lo)
            self.first_r = lo if self.first_r is None else min(self.first_r, lo)
            self.last_r = hi if self.last_r is None else max(self.last_r, hi)
        if kind == "span":
            return self._apply_span(record)
        if kind == "event":
            return self._apply_event(record)
        if kind == "metric" and record.get("kind") == "counter":
            self._deltas.append(record)
            name = record["name"]
            self._delta_counters[name] = (
                self._delta_counters.get(name, 0.0) + record["value"]
            )
            return "counter"
        return None

    def _scope_to(self, r0: float) -> None:
        """Drop the records an earlier run left (module docstring)."""
        if self.first_r is None or not self.first_r < r0:
            return
        kept = [
            r
            for r in chain(self.spans, self.events, self._deltas)
            if (t := _real_start(r)) is None or t >= r0
        ]
        self._clear()
        for record in kept:
            self.apply(record)

    def _count(self, kind: str, record: dict) -> None:
        key = (kind, record.get("cat", ""), record["name"])
        self.name_counts[key] = self.name_counts.get(key, 0) + 1

    def _apply_span(self, record: dict) -> str:
        self.spans.append(record)
        self._count("span", record)
        cat, attrs = record.get("cat"), record["attrs"]
        if cat == "pipeline":
            self.pipeline = record
            return "pipeline"
        if cat == "stage":
            self.stages[stage_name(record)] = record
            return "stage"
        if cat == "unit":
            if record["v0"] is not None and attrs.get("stage") is not None:
                self.execs.setdefault(attrs["stage"], []).append(record)
            return "exec"
        if cat == "worker":
            w = self.workers.setdefault(
                record["process"], {"workloads": 0, "busy_r": 0.0}
            )
            if record.get("parent") is None or record["name"] == "workload":
                w["workloads"] += 1
                w["busy_r"] += r_duration(record)
            return "worker"
        if record["name"] == "vm.lifetime":
            self.billing.append(record)
            self.billed_usd += float(attrs.get("cost_usd") or 0.0)
            return "billing"
        return "span"

    def _apply_event(self, record: dict) -> str:
        self.events.append(record)
        self._count("event", record)
        name, attrs = record["name"], record.get("attrs", {})
        if name == "unit.state":
            view = self.units.setdefault(record["thread"], UnitView())
            view.name = attrs.get("unit", view.name)
            view.stage = attrs.get("stage", view.stage)
            view.state = attrs.get("new", view.state)
            return "unit"
        if name == "unit.heartbeat":
            self.heartbeats[attrs.get("unit", record["thread"])] = attrs
            return "heartbeat"
        if name == "unit.straggler":
            return "straggler"
        if name == "planner.prediction":
            self.planner = attrs
            return "planner"
        if record.get("cat") == "alert":
            self.alerts.append(record)
            return "alert"
        return "event"

    # -- views -------------------------------------------------------------

    @property
    def complete(self) -> bool:
        return self.pipeline is not None

    @property
    def outcome(self) -> str | None:
        """``done``, ``failed`` or ``killed`` from the closed root (an
        older root without one closed on success), else None."""
        root = self.pipeline
        return None if root is None else root["attrs"].get("outcome", "done")

    @property
    def metrics(self) -> dict:
        """The metrics snapshot (an empty one when none arrived)."""
        if self.snapshot is None:
            return {k: dict(v) for k, v in EMPTY_METRICS.items()}
        return self.snapshot

    @property
    def counters(self) -> dict:
        """Counters: the snapshot's, else the deltas streamed so far."""
        if self.snapshot is not None:
            return self.snapshot.get("counters", {})
        return self._delta_counters

    def ttc(self) -> float | None:
        """The run's end-to-end virtual TTC, from the pipeline root."""
        root = self.pipeline
        if root is None or root["v0"] is None or root["v1"] is None:
            return None
        return root["v1"] - root["v0"]

    def stage_spans(self) -> list[dict]:
        """The stage spans, ordered by virtual start."""
        return sorted(
            self.stages.values(),
            key=lambda s: (s["v0"] is None, s["v0"], s["v1"]),
        )

    def stage_seconds(self) -> dict[str, tuple[float, float]]:
        """stage name -> (virtual TTC, real seconds), by virtual start."""
        return {
            stage_name(s): (v_duration(s), r_duration(s))
            for s in self.stage_spans()
        }

    def spectrum_builds(self) -> list[dict]:
        return [s for s in self.spans if s["name"] == "spectrum.build"]

    def spectrum_build_s(self) -> float | None:
        """Real seconds in host-side spectrum builds; None when the run
        built none (a ``spectrum.skip`` instead: nothing was measured)."""
        builds = self.spectrum_builds()
        return sum(r_duration(s) for s in builds) if builds else None

    def stage_progress(self) -> dict[str, dict[str, int]]:
        """stage -> {done, failed, running, total} from unit final states."""
        out: dict[str, dict[str, int]] = {}
        for view in self.units.values():
            row = out.setdefault(
                view.stage or "?",
                {"done": 0, "failed": 0, "running": 0, "total": 0},
            )
            row["total"] += 1
            if view.state == DONE:
                row["done"] += 1
            elif view.state in (FAILED, CANCELED):
                row["failed"] += 1
            else:
                row["running"] += 1
        return out

    def unit_counts(self) -> tuple[int, int, int]:
        """(done, failed, running) units."""
        done = sum(1 for v in self.units.values() if v.state == DONE)
        failed = sum(
            1 for v in self.units.values() if v.state in (FAILED, CANCELED)
        )
        return done, failed, len(self.units) - done - failed

    def eta_seconds(self) -> float | None:
        """Real-seconds ETA from live unit throughput against the
        planner's predicted fan-out; None when not estimable."""
        done, _, running = self.unit_counts()
        if done <= 0 or running <= 0 or self.first_r is None:
            return None
        elapsed = self.last_r - self.first_r
        if elapsed <= 0:
            return None
        planned = self.planner.get("assembly_jobs")
        remaining = max(
            running, (planned - done) if isinstance(planned, int) else 0
        )
        return remaining * elapsed / done


def replay(records: Iterable[dict]) -> RunState:
    """Fold a record sequence."""
    state = RunState()
    for record in records:
        state.apply(record)
    return state


def fold(source: "RunState | Iterable[dict]") -> RunState:
    """``source`` folded; an already-folded :class:`RunState` passes."""
    return source if isinstance(source, RunState) else replay(source)
