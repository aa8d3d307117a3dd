"""Span/event tracing on two clocks at once.

Every record carries **virtual time** (the :class:`~repro.cloud.clock.SimClock`
the simulation charges TTCs and dollars on) *and* **real host time**
(``time.perf_counter``) — the dual-timestamp model the run reports are
built on.  Virtual time answers the paper's questions (where do the
stage TTCs go?); real time answers the reproduction's own (where does a
bench session's wall-clock go?).

The tracer is process-wide but explicitly injectable:

* :func:`get_tracer` returns the current tracer — a :class:`NullTracer`
  by default, whose every operation is a no-op, so instrumented code
  costs nothing when tracing is off;
* :func:`set_tracer` / :func:`use_tracer` install a real
  :class:`Tracer` (``use_tracer`` is the scoped form tests and the
  pipeline use).

The tracer never reads the wall clock to *drive* anything and never
touches the virtual clock at all: tracing on or off, every virtual
quantity in the system is bit-identical (enforced by
``tests/core/test_trace_parity.py``).

Instrumentation inside workloads is visible under **every** executor
backend.  The serial backend records inline into the ambient tracer; the
thread and process backends propagate a picklable
:class:`~repro.obs.context.SpanContext` with each workload, the worker
records into a thread-locally installed
:class:`~repro.obs.context.BufferingTracer` (installed via
:func:`set_thread_tracer`, which :func:`get_tracer` consults before the
process-wide tracer), and the collect path merges the shipped records
back: re-parented under the dispatching span, real timestamps aligned
into the parent's ``perf_counter`` domain via a wall-clock handshake,
one ``worker-<pid>`` track per worker process, metric deltas folded into
the parent registry.  The pilot-layer seams — state transitions, SGE
jobs, stage boundaries — are always recorded on the main thread
regardless of backend.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.obs.metrics import Metrics

_log = logging.getLogger("repro.obs")

#: Default process/thread track names for records emitted outside any span.
MAIN_TRACK = "main"


class TraceSink:
    """Receives trace records *as they happen* (the streaming bus).

    A sink attached via :meth:`Tracer.add_sink` is handed one dict per
    occurrence, in emission order:

    * ``{"type": "span_open", ...}``  when a ``span()`` body is entered
      (same keys as the close record, minus the end timestamps);
    * ``{"type": "span", ...}``       when a span closes (the archival
      JSONL schema, bit-identical to what ``write_jsonl`` stores);
    * ``{"type": "event", ...}``      for point events;
    * ``{"type": "metric", ...}``     for metric deltas
      (``kind`` counter/gauge/histogram, ``name``, ``value``, ``r``);
    * ``{"type": "metrics", "data": snapshot}`` once, from
      :meth:`close` of sinks that archive final state.

    ``emit`` may be called from any thread (heartbeat monitors and pool
    callbacks run off the main thread); implementations must lock their
    own state.  A raising sink is detached rather than allowed to take
    the run down — telemetry must never fail the pipeline.
    """

    def emit(self, record: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """End of stream; flush/teardown.  Default: nothing."""


@dataclass(frozen=True)
class EventRecord:
    """A point event: something happened at one instant."""

    name: str
    category: str = ""
    v_time: float | None = None  # virtual seconds (None: no clock bound)
    r_time: float = 0.0  # real perf_counter seconds
    process: str = MAIN_TRACK
    thread: str = MAIN_TRACK
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "type": "event",
            "name": self.name,
            "cat": self.category,
            "process": self.process,
            "thread": self.thread,
            "v": self.v_time,
            "r": self.r_time,
            "attrs": self.attrs,
        }


@dataclass(frozen=True)
class SpanRecord:
    """A completed span: something happened over an interval."""

    name: str
    category: str = ""
    v_start: float | None = None
    v_end: float | None = None
    r_start: float = 0.0
    r_end: float = 0.0
    process: str = MAIN_TRACK
    thread: str = MAIN_TRACK
    span_id: int = 0
    parent_id: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def v_duration(self) -> float:
        """Virtual seconds covered (0 when no clock was bound)."""
        if self.v_start is None or self.v_end is None:
            return 0.0
        return self.v_end - self.v_start

    @property
    def r_duration(self) -> float:
        return self.r_end - self.r_start

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "cat": self.category,
            "process": self.process,
            "thread": self.thread,
            "v0": self.v_start,
            "v1": self.v_end,
            "r0": self.r_start,
            "r1": self.r_end,
            "id": self.span_id,
            "parent": self.parent_id,
            "attrs": self.attrs,
        }


class SpanHandle:
    """The open span yielded by :meth:`Tracer.span`; lets the body attach
    attributes discovered mid-flight (``sp.set(n_contigs=17)``)."""

    __slots__ = ("process", "thread", "span_id", "extra")

    def __init__(self, process: str, thread: str, span_id: int) -> None:
        self.process = process
        self.thread = thread
        self.span_id = span_id
        self.extra: dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        self.extra.update(attrs)


class Tracer:
    """Records spans, point events and metrics on the dual clocks.

    ``clock`` is anything with a ``.now`` float attribute (duck-typed so
    this module stays import-free of the cloud layer); bind the run's
    :class:`SimClock` with :meth:`bind_clock` to get virtual timestamps —
    unbound, records carry ``None`` virtual times and only the real clock.
    """

    enabled: bool = True

    def __init__(
        self,
        clock: Any | None = None,
        *,
        resource_cadence: float = 0.0,
        heartbeat_cadence: float = 0.0,
        alert_rules: Iterable[Any] = (),
    ) -> None:
        self.clock = clock
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.metrics = Metrics()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sinks: list[TraceSink] = []
        #: Seconds between RSS/CPU samples taken *inside* workloads
        #: running on a pool backend (shipped back in the worker trace
        #: as ``resource.sample`` events).  0 keeps only the
        #: span-endpoint snapshots.
        self.resource_cadence = resource_cadence
        if heartbeat_cadence < 0:
            raise ValueError("heartbeat_cadence must be >= 0")
        #: Real seconds between per-unit ``unit.heartbeat`` events while
        #: workloads are in flight (0 = off).  Purely real-clock
        #: telemetry: results and virtual TTCs are bit-identical either
        #: way.
        self.heartbeat_cadence = heartbeat_cadence
        #: Declarative SLO/alert rules (see :mod:`repro.obs.alerts`):
        #: compact specs (``"heartbeat_timeout:30:critical"``) or
        #: :class:`~repro.obs.alerts.AlertRule` instances, validated
        #: here.  Non-empty, :meth:`alerting` rides an
        #: :class:`~repro.obs.alerts.AlertEngine` on each run as a live
        #: sink; firings become ``alert`` events in the trace and a
        #: summary on the pipeline span.  () = no engine.
        self.alert_rules: tuple = tuple(alert_rules)
        if self.alert_rules:
            from repro.obs.alerts import parse_rule

            self.alert_rules = tuple(map(parse_rule, self.alert_rules))
        self._alert_engine: Any | None = None

    # -- wiring ------------------------------------------------------------

    def bind_clock(self, clock: Any) -> None:
        """Attach the virtual clock whose ``.now`` timestamps records."""
        self.clock = clock

    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Attach a live :class:`TraceSink`; returns it for chaining."""
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        """Detach ``sink`` (no-op when it is not attached)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def close_sinks(self) -> None:
        """Detach and :meth:`~TraceSink.close` every attached sink."""
        sinks, self._sinks = self._sinks, []
        for sink in sinks:
            sink.close()

    @contextmanager
    def alerting(self) -> Iterator[list]:
        """Arm an :class:`~repro.obs.alerts.AlertEngine` over
        :attr:`alert_rules` for the ``with`` body — one pipeline run —
        and detach it whatever happens (``run_many`` reuses one tracer
        across runs and must not accumulate stale sinks).  Yields the
        list the run's firings land in; without rules it stays empty.
        """
        if not self.alert_rules:
            yield []
            return
        from repro.obs.alerts import AlertEngine

        engine = self._alert_engine = AlertEngine(self.alert_rules, tracer=self)
        self.add_sink(engine)
        try:
            yield engine.alerts
        finally:
            self._alert_engine = None
            engine.finalize()
            self.remove_sink(engine)

    def alert_summary(self) -> dict[str, int]:
        """Firing counts of the armed engine as pipeline-span attributes
        (``{}`` when :meth:`alerting` armed none).  Rules that only
        resolve at teardown (cache hit-rate floors, final budget check)
        must fire before the root span stamps the summary, so this
        finalizes the engine; finalize is idempotent."""
        engine = self._alert_engine
        if engine is None:
            return {}
        engine.finalize()
        counts = engine.summary()
        return {
            "alerts_total": sum(counts.values()),
            "alerts_critical": counts.get("critical", 0),
            "alerts_warning": counts.get("warning", 0),
            "alerts_info": counts.get("info", 0),
        }

    def _emit(self, record: dict) -> None:
        """Fan a record out to the attached sinks.  A sink that raises is
        detached: losing telemetry beats failing the run."""
        for sink in list(self._sinks):
            try:
                sink.emit(record)
            except Exception:
                self.remove_sink(sink)
                _log.warning(
                    "trace sink %r raised and was detached", sink, exc_info=True
                )

    def _vnow(self) -> float | None:
        clock = self.clock
        return clock.now if clock is not None else None

    def _stack(self) -> list[SpanHandle]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _track(
        self, process: str | None, thread: str | None
    ) -> tuple[str, str, int | None]:
        """Resolve (process, thread, parent span id), inheriting the
        enclosing span's tracks when not given explicitly."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        proc = process if process is not None else (
            parent.process if parent else MAIN_TRACK
        )
        thr = thread if thread is not None else (
            parent.thread if parent else MAIN_TRACK
        )
        return proc, thr, parent.span_id if parent else None

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        process: str | None = None,
        thread: str | None = None,
        **attrs: Any,
    ) -> Iterator[SpanHandle]:
        """Open a nested span covering the ``with`` body on both clocks."""
        proc, thr, parent_id = self._track(process, thread)
        handle = SpanHandle(proc, thr, next(self._ids))
        stack = self._stack()
        stack.append(handle)
        v0 = self._vnow()
        r0 = time.perf_counter()
        if self._sinks:
            self._emit(
                {
                    "type": "span_open",
                    "name": name,
                    "cat": category,
                    "process": proc,
                    "thread": thr,
                    "v": v0,
                    "r": r0,
                    "id": handle.span_id,
                    "parent": parent_id,
                    "attrs": attrs,
                }
            )
        try:
            yield handle
        finally:
            r1 = time.perf_counter()
            v1 = self._vnow()
            stack.pop()
            self.record_span(
                SpanRecord(
                    name=name,
                    category=category,
                    v_start=v0,
                    v_end=v1,
                    r_start=r0,
                    r_end=r1,
                    process=proc,
                    thread=thr,
                    span_id=handle.span_id,
                    parent_id=parent_id,
                    attrs={**attrs, **handle.extra},
                )
            )

    def add_span(
        self,
        name: str,
        v_start: float | None,
        v_end: float | None,
        category: str = "",
        process: str | None = None,
        thread: str | None = None,
        r_start: float | None = None,
        r_end: float | None = None,
        **attrs: Any,
    ) -> None:
        """Record a span retroactively from explicit timestamps — the form
        event-driven code uses (an SGE job's virtual start/finish are only
        known once its completion event fires)."""
        proc, thr, parent_id = self._track(process, thread)
        r_now = time.perf_counter()
        self.record_span(
            SpanRecord(
                name=name,
                category=category,
                v_start=v_start,
                v_end=v_end,
                r_start=r_now if r_start is None else r_start,
                r_end=r_now if r_end is None else r_end,
                process=proc,
                thread=thr,
                span_id=next(self._ids),
                parent_id=parent_id,
                attrs=attrs,
            )
        )

    def event(
        self,
        name: str,
        category: str = "",
        process: str | None = None,
        thread: str | None = None,
        v: float | None = None,
        **attrs: Any,
    ) -> None:
        """Record a point event (``v`` overrides the bound clock's now)."""
        proc, thr, _ = self._track(process, thread)
        self.record_event(
            EventRecord(
                name=name,
                category=category,
                v_time=self._vnow() if v is None else v,
                r_time=time.perf_counter(),
                process=proc,
                thread=thr,
                attrs=attrs,
            )
        )

    def record_span(self, record: SpanRecord) -> None:
        """Append a finished :class:`SpanRecord` and stream it to the
        sinks — the single chokepoint every span (inline, retroactive,
        merged-from-worker) goes through."""
        self.spans.append(record)
        if self._sinks:
            self._emit(record.to_dict())

    def record_event(self, record: EventRecord) -> None:
        """Append an :class:`EventRecord` and stream it (see
        :meth:`record_span`)."""
        self.events.append(record)
        if self._sinks:
            self._emit(record.to_dict())

    # -- metric conveniences ------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)
        if self._sinks:
            self._emit_delta("counter", name, amount)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)
        if self._sinks:
            self._emit_delta("gauge", name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)
        if self._sinks:
            self._emit_delta("histogram", name, value)

    def _emit_delta(self, kind: str, name: str, value: float) -> None:
        self._emit(
            {
                "type": "metric",
                "kind": kind,
                "name": name,
                "value": value,
                "r": time.perf_counter(),
            }
        )

    # -- views ---------------------------------------------------------------

    def records(self) -> list[dict]:
        """All spans and events as dicts, ordered by real timestamp."""
        out = [s.to_dict() for s in self.spans] + [e.to_dict() for e in self.events]
        out.sort(key=lambda d: d.get("r0", d.get("r", 0.0)))
        return out


class _NullSpanContext:
    """Reusable no-op context manager for :meth:`NullTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> SpanHandle:
        return _NULL_HANDLE

    def __exit__(self, *exc_info) -> bool:
        return False


class _NullHandle(SpanHandle):
    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


_NULL_HANDLE = _NullHandle(MAIN_TRACK, MAIN_TRACK, 0)
_NULL_CONTEXT = _NullSpanContext()


class NullTracer(Tracer):
    """The default tracer: every operation is a no-op.

    Instrumented code may call it unconditionally; nothing is recorded,
    allocated or timed, which is what keeps tracing zero-cost when
    disabled.
    """

    enabled = False

    def bind_clock(self, clock: Any) -> None:
        pass

    def add_sink(self, sink: TraceSink) -> TraceSink:
        # Zero-cost promise: a NullTracer never records, so it never
        # streams either.  The sink is returned unattached.
        return sink

    def span(self, name, category="", process=None, thread=None, **attrs):
        return _NULL_CONTEXT

    def add_span(self, *args, **kwargs) -> None:
        pass

    def record_span(self, record: SpanRecord) -> None:
        pass

    def record_event(self, record: EventRecord) -> None:
        pass

    def event(self, *args, **kwargs) -> None:
        pass

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


_DEFAULT = NullTracer()
_current: Tracer = _DEFAULT
_thread_local = threading.local()


def get_tracer() -> Tracer:
    """The active tracer: a thread-local override when one is installed
    (executor workers buffering for a remote parent), else the
    process-wide tracer (a no-op :class:`NullTracer` by default)."""
    override = getattr(_thread_local, "tracer", None)
    return override if override is not None else _current


def set_thread_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` for the *current thread only* (``None`` removes
    the override); returns the previous override.  This is how
    ``run_workload`` scopes a worker-side buffering tracer to one
    workload without touching the process-wide tracer other threads —
    including, under the thread backend, the main thread — record into.
    """
    previous = getattr(_thread_local, "tracer", None)
    _thread_local.tracer = tracer
    return previous


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` (``None`` restores the no-op default); returns
    the previously installed tracer so callers can restore it."""
    global _current
    previous = _current
    _current = tracer if tracer is not None else _DEFAULT
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None) -> Iterator[Tracer]:
    """Scoped :func:`set_tracer`: install for the ``with`` body, then
    restore whatever was installed before."""
    previous = set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)
