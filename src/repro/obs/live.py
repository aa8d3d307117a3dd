"""Live telemetry: streaming JSONL sink, heartbeats, straggler analysis.

Everything post-hoc about the observability layer (report, critpath,
attribution, diff, ledger) reads a *finished* trace; this module is the
in-flight half the ROADMAP's multi-tenant service needs:

* :class:`JsonlStreamSink` — a :class:`~repro.obs.tracer.TraceSink`
  appending one JSON line per record as it happens, flushed per line, so
  ``python -m repro.obs monitor run.jsonl --follow`` (or plain
  ``tail -f``) can watch a run in progress.  Worker-trace merges stream
  too: :func:`~repro.obs.context.merge_worker_trace` routes re-written
  records through the tracer's emitting chokepoints.
* :class:`HeartbeatMonitor` — a daemon thread beating every ``cadence``
  real seconds over a snapshot of in-flight workloads (the pilot agent's
  pending table), emitting one ``unit.heartbeat`` event per unit with
  its real elapsed seconds.  Heartbeats are **real-clock only** and
  never touch the virtual clock, so the tracing-parity guarantee (same
  TTCs and dollars with or without telemetry) holds with them on.
* :class:`StragglerDetector` — robust peer comparison: a unit whose
  in-flight real elapsed exceeds ``max(median + k*MAD, min_ratio *
  median)`` of its *completed* peers' wall times is flagged once with a
  ``unit.straggler`` event.  Median + k·MAD (not mean + k·sigma) keeps
  one legitimate heavy shard from masking a genuinely hung one.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.obs.export import dump_record
from repro.obs.resources import PeriodicThread
from repro.obs.tracer import Tracer, TraceSink


class JsonlStreamSink(TraceSink):
    """Appends every record as one JSON line, flushed immediately.

    The resulting file is a superset of the archival ``write_jsonl``
    format: alongside the span-close/event records it carries
    ``span_open`` and ``metric`` lines (the fold,
    :class:`~repro.obs.spans.RunState`, reads only the counter deltas,
    until a snapshot supersedes them).  ``close`` appends the final
    ``{"type": "metrics"}`` snapshot when the sink was built with a
    tracer to snapshot, making the stream self-contained for post-hoc
    use as well.
    """

    def __init__(self, path: str | Path, tracer: Tracer | None = None) -> None:
        self.path = Path(path)
        self._tracer = tracer
        self._lock = threading.Lock()
        self._fh = self.path.open("w")

    def emit(self, record: dict) -> None:
        line = dump_record(record) + "\n"
        with self._lock:
            if self._fh.closed:
                return
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh.closed:
                return
            if self._tracer is not None:
                self._fh.write(
                    dump_record(
                        {
                            "type": "metrics",
                            "data": self._tracer.metrics.snapshot(),
                        }
                    )
                    + "\n"
                )
            self._fh.close()


class CollectorSink(TraceSink):
    """Buffers emitted records in memory — the test-and-engine-facing
    sink (the alert engine's post-hoc mode replays a trace through it)."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._lock = threading.Lock()

    def emit(self, record: dict) -> None:
        with self._lock:
            self.records.append(record)


class StragglerDetector:
    """Flags in-flight units running far beyond their completed peers.

    ``note_completion(wall_seconds)`` feeds finished peers;
    ``check(unit, elapsed)`` returns the evidence dict for a straggler
    (once per unit) or ``None``.  No verdicts are issued until
    ``min_peers`` completions exist — with nothing to compare against,
    everything would look normal (or nothing would).
    """

    def __init__(
        self,
        k: float = 3.0,
        min_peers: int = 3,
        min_ratio: float = 1.75,
    ) -> None:
        if min_peers < 2:
            raise ValueError("straggler detection needs at least 2 peers")
        self.k = k
        self.min_peers = min_peers
        self.min_ratio = min_ratio
        self._walls: list[float] = []
        self._flagged: set[str] = set()
        self._lock = threading.Lock()

    def note_completion(self, wall_seconds: float) -> None:
        with self._lock:
            self._walls.append(float(wall_seconds))

    def threshold(self) -> float | None:
        """Current elapsed-seconds cutoff, or None without enough peers."""
        with self._lock:
            walls = list(self._walls)
        if len(walls) < self.min_peers:
            return None
        med = statistics.median(walls)
        mad = statistics.median(abs(w - med) for w in walls)
        return max(med + self.k * mad, self.min_ratio * med)

    def check(self, unit: str, elapsed: float) -> dict | None:
        """Evidence attrs when ``unit`` is newly straggling, else None."""
        cutoff = self.threshold()
        if cutoff is None or elapsed <= cutoff:
            return None
        with self._lock:
            if unit in self._flagged:
                return None
            self._flagged.add(unit)
            peers = len(self._walls)
            median = statistics.median(self._walls)
        return {
            "unit": unit,
            "elapsed_r": elapsed,
            "threshold_r": cutoff,
            "peer_median_r": median,
            "peers": peers,
        }


@dataclass(frozen=True)
class InflightUnit:
    """One in-flight workload as the heartbeat thread sees it."""

    unit_id: str
    name: str
    stage: str = ""
    submitted_r: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)


class HeartbeatMonitor(PeriodicThread):
    """Daemon thread emitting periodic per-unit heartbeat events.

    ``inflight`` is polled each beat and must return the current
    :class:`InflightUnit` snapshot cheaply (the pilot agent snapshots
    its pending table under no lock — dict iteration over a copy).
    Each beat emits one ``unit.heartbeat`` event (category
    ``"heartbeat"``) per unit carrying its real elapsed seconds, and
    runs the optional :class:`StragglerDetector` over the same numbers,
    emitting ``unit.straggler`` (category ``"heartbeat"``, severity
    tagged) for fresh verdicts.  :meth:`start` beats once synchronously
    too; the thread itself is a
    :class:`~repro.obs.resources.PeriodicThread`.
    """

    def __init__(
        self,
        tracer: Tracer,
        cadence: float,
        inflight: Callable[[], Iterable[InflightUnit]],
        process: str = "main",
        detector: StragglerDetector | None = None,
    ) -> None:
        super().__init__(cadence, "repro-heartbeat")
        self.tracer = tracer
        self.inflight = inflight
        self.process = process
        self.detector = detector
        self.beats = 0

    def start(self) -> bool:
        # One synchronous beat per cycle: workloads faster than the
        # cadence would otherwise never be observed in flight.
        started = super().start()
        if started:
            self.beat()
        return started

    def tick(self) -> None:
        self.beat()

    def beat(self) -> None:
        """One heartbeat pass (callable directly from tests)."""
        units = list(self.inflight())
        now = time.perf_counter()
        for u in units:
            elapsed = now - u.submitted_r
            self.tracer.event(
                "unit.heartbeat",
                category="heartbeat",
                process=self.process,
                thread=u.unit_id,
                unit=u.name,
                stage=u.stage,
                elapsed_r=elapsed,
                inflight=len(units),
                **u.attrs,
            )
            if self.detector is not None:
                evidence = self.detector.check(u.name, elapsed)
                if evidence is not None:
                    self.tracer.event(
                        "unit.straggler",
                        category="heartbeat",
                        process=self.process,
                        thread=u.unit_id,
                        severity="warning",
                        stage=u.stage,
                        **evidence,
                    )
        self.beats += 1
