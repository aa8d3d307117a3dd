"""Cross-process span context, worker-side buffering, parent-side merge.

The pilot-system literature (Merzky et al., RADICAL-Pilot) reconciles
per-component timestamps collected in *different processes* onto one
timeline; this module is that machinery for the executor backends.
Three pieces:

* :class:`SpanContext` — the picklable capsule the dispatching side
  attaches to a workload: the dispatch span to re-parent under, the
  pilot/unit track names, a ``(wall, perf_counter)`` clock handshake and
  the resource-sampling cadence.
* :class:`BufferingTracer` — a :class:`~repro.obs.tracer.Tracer` the
  worker installs (thread-locally) around ``run_workload``: spans,
  events and metrics land in its private buffers, every span carries
  RSS/CPU endpoint snapshots, and an optional cadence thread emits
  ``category="resource"`` counter samples during long workloads.  Its
  whole state ships back as a :class:`WorkerTrace`.
* :func:`merge_worker_trace` — folds a :class:`WorkerTrace` into the
  parent tracer: span ids are re-issued from the parent's counter,
  worker-root spans are re-parented under the dispatch span, every real
  timestamp is shifted into the parent's ``perf_counter`` domain via the
  clock handshake (monotonic clocks are **not** comparable across
  processes), records land on one ``worker-<pid>`` track per worker
  process, and the worker's metric deltas are merged into the parent
  registry.

Clock alignment: ``perf_counter`` has an unspecified per-process epoch,
but both processes share the wall clock.  The dispatching side samples
``(wall_p, perf_p)`` when it builds the context; the worker samples
``(wall_w, perf_w)`` when it starts.  A worker timestamp ``x`` maps to
the parent domain as ``x + offset`` with

    offset = (perf_p - wall_p) - (perf_w - wall_w)

exact up to wall-clock skew between the two samples (microseconds for
forked workers on one host).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

from repro.obs.metrics import Metrics
from repro.obs.resources import CadenceSampler, ResourceSample, ResourceSampler
from repro.obs.tracer import (
    MAIN_TRACK,
    EventRecord,
    SpanHandle,
    SpanRecord,
    Tracer,
)


@dataclass(frozen=True)
class SpanContext:
    """What a workload needs to record spans for a remote parent.

    Picklable and immutable; built with :meth:`capture` inside the
    dispatch span so ``parent_span_id`` is the span the worker's records
    are re-parented under.
    """

    parent_span_id: int | None = None
    process: str = MAIN_TRACK
    thread: str = MAIN_TRACK
    parent_wall: float = 0.0  # time.time() at capture
    parent_perf: float = 0.0  # time.perf_counter() at capture
    #: Seconds between in-flight resource samples (0 = endpoints only).
    resource_cadence: float = 0.0

    @classmethod
    def capture(
        cls,
        tracer: Tracer,
        parent_span_id: int | None = None,
        process: str | None = None,
        thread: str | None = None,
    ) -> "SpanContext | None":
        """A context for the current instant, carrying the tracer's
        ``resource_cadence`` to the worker, or None when tracing is off
        (so disabled tracing ships zero extra bytes to workers)."""
        if not tracer.enabled:
            return None
        return cls(
            parent_span_id=parent_span_id,
            process=process if process is not None else MAIN_TRACK,
            thread=thread if thread is not None else MAIN_TRACK,
            parent_wall=time.time(),
            parent_perf=time.perf_counter(),
            resource_cadence=tracer.resource_cadence,
        )


@dataclass
class WorkerTrace:
    """Everything one traced workload recorded, ready to pickle home.

    All real timestamps are in the *worker's* ``perf_counter`` domain;
    the ``(worker_wall, worker_perf)`` handshake pair lets the parent
    shift them (see module docstring).  The metrics registry is a fresh
    one per workload, so every value in it is a delta.  ``pid`` is None
    for the records of a workload run inline (:meth:`inline`): they
    merge onto the dispatch's own track, not a worker's.
    """

    pid: int | None
    worker_wall: float
    worker_perf: float
    spans: list[SpanRecord] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)
    metrics: Metrics = field(default_factory=Metrics)

    def r_offset(self, context: SpanContext) -> float:
        """Seconds to add to worker real timestamps to land them in the
        dispatching process's ``perf_counter`` domain."""
        return (context.parent_perf - context.parent_wall) - (
            self.worker_perf - self.worker_wall
        )

    @classmethod
    def inline(cls, tracer: Tracer, since, context: SpanContext) -> "WorkerTrace":
        """What a workload run inline under ``context`` recorded on the
        dispatch's track of ``tracer`` after ``since`` (its span and
        event counts at the start).  It is in ``tracer`` already: only a
        replay merges it, onto the replay's own track."""
        track = (context.process, context.thread)
        spans, events = (
            [r for r in records[start:] if (r.process, r.thread) == track]
            for records, start in zip((tracer.spans, tracer.events), since)
        )
        return cls(None, context.parent_wall, context.parent_perf, spans, events)

    def replayed(self, context: SpanContext) -> "WorkerTrace":
        """This stored trace as its replay under ``context`` merges it: the
        worker starts at the replay's dispatch, so each record keeps its
        duration but lands in the resumed run, each span marked replayed."""
        spans = [
            replace(s, attrs={**s.attrs, "replayed": True}) for s in self.spans
        ]
        return replace(self, worker_wall=context.parent_wall, spans=spans)


class BufferingTracer(Tracer):
    """Worker-side tracer: buffers everything, samples resources.

    Unlike the parent tracer it is never bound to a virtual clock — the
    simulation clock lives in the dispatching process — so its records
    carry ``None`` virtual times, keeping the tracing-on/off parity
    guarantee trivially intact for worker spans.

    Top-level spans (the workload boundary) get endpoint resource
    attributes (``rss_bytes``, ``rss_delta_bytes``, ``cpu_seconds`` —
    close-time RSS, RSS growth across the span, CPU burned inside it).
    Nested spans skip the endpoint reads — procfs is not free, and a
    tight inner loop of instrumented spans must not pay two resource
    snapshots each; the cadence thread covers the interior instead.
    With ``cadence > 0`` a daemon thread emits ``category="resource"``
    events every ``cadence`` seconds.  One sample is always taken at open
    and at :meth:`close`, so even instant workloads record two points.
    """

    def __init__(
        self, cadence: float = 0.0, sampler: ResourceSampler | None = None
    ) -> None:
        super().__init__()
        self.pid = os.getpid()
        self.worker_wall = time.time()
        self.worker_perf = time.perf_counter()
        self._sampler = sampler or ResourceSampler()
        self._cadence: CadenceSampler | None = None
        self._record_sample(self._sampler.sample())
        if cadence > 0:
            self._cadence = CadenceSampler(cadence, self._record_sample)
            self._cadence.start()

    # -- resource sampling --------------------------------------------------

    def _record_sample(self, sample: ResourceSample) -> None:
        self.events.append(
            EventRecord(
                name="resource.sample",
                category="resource",
                v_time=None,
                r_time=sample.r_time,
                attrs={
                    "rss_bytes": sample.rss_bytes,
                    "cpu_seconds": sample.cpu_seconds,
                },
            )
        )

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        process: str | None = None,
        thread: str | None = None,
        **attrs: Any,
    ) -> Iterator[SpanHandle]:
        top_level = not self._stack()
        s0 = self._sampler.sample() if top_level else None
        with super().span(
            name, category=category, process=process, thread=thread, **attrs
        ) as handle:
            try:
                yield handle
            finally:
                if s0 is not None:
                    s1 = self._sampler.sample()
                    handle.set(
                        rss_bytes=s1.rss_bytes,
                        rss_delta_bytes=s1.rss_bytes - s0.rss_bytes,
                        cpu_seconds=s1.cpu_seconds - s0.cpu_seconds,
                    )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the cadence thread and take the final resource sample."""
        if self._cadence is not None:
            self._cadence.stop()
            self._cadence = None
        self._record_sample(self._sampler.sample())

    def to_worker_trace(self) -> WorkerTrace:
        return WorkerTrace(
            pid=self.pid,
            worker_wall=self.worker_wall,
            worker_perf=self.worker_perf,
            spans=list(self.spans),
            events=list(self.events),
            metrics=self.metrics,
        )


def worker_track(pid: int) -> str:
    """The trace track (process row) name for worker ``pid``."""
    return f"worker-{pid}"


def merge_worker_trace(
    tracer: Tracer, trace: "WorkerTrace | None", context: "SpanContext | None"
) -> int:
    """Fold a worker's records into the parent tracer; returns how many
    records were merged (0 when there is nothing to merge or tracing is
    off).  See the module docstring for the three rewrites applied."""
    if trace is None or context is None or not tracer.enabled:
        return 0
    offset = trace.r_offset(context)
    inline = trace.pid is None  # records of the dispatch's own track
    process = context.process if inline else worker_track(trace.pid)
    id_map = {s.span_id: next(tracer._ids) for s in trace.spans}
    merged = 0
    for s in trace.spans:
        parent_id = (
            id_map.get(s.parent_id, context.parent_span_id)
            if s.parent_id is not None
            else context.parent_span_id
        )
        tracer.record_span(
            replace(
                s,
                span_id=id_map[s.span_id],
                parent_id=parent_id,
                process=process,
                thread=context.thread if inline or s.thread == MAIN_TRACK else s.thread,
                r_start=s.r_start + offset,
                r_end=s.r_end + offset,
            )
        )
        merged += 1
    for e in trace.events:
        tracer.record_event(
            replace(
                e,
                process=process,
                thread=context.thread if inline or e.thread == MAIN_TRACK else e.thread,
                r_time=e.r_time + offset,
            )
        )
        merged += 1
    # Gauge recency is judged on real time; shift into the parent domain
    # before the registry merge compares timestamps.
    for gauge in trace.metrics.gauges.values():
        if gauge.updated_r is not None:
            gauge.updated_r += offset
    tracer.metrics.merge(
        trace.metrics,
        on_delta=tracer._emit_delta if tracer._sinks else None,
    )
    return merged
