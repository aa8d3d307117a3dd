"""repro.obs — end-to-end tracing, metrics and trace analytics.

A process-wide but explicitly injectable :class:`Tracer` records spans
and point events on two clocks: **virtual time** (the simulation clock
every TTC and dollar figure is measured on) and **real host time**
(``perf_counter``).  A :class:`Metrics` registry counts what the event
stream makes awkward to count, and :func:`write_jsonl` archives both as
one JSONL trace.

``python -m repro.obs {report,diff,critpath,attribution,ledger,monitor}``
analyses a trace.  Each analysis is a view over one fold of its records
(:class:`~repro.obs.spans.RunState`) that returns its facts as data —
rows, or a dict of them.  ``--json`` prints that data; the text output
is the same data through one printer, :func:`~repro.obs.export.table`.

The layer also streams: attach a :class:`~repro.obs.live.JsonlStreamSink`
(or any :class:`TraceSink`) to a live tracer and every span open/close,
event and metric delta is pushed as it happens — ``python -m
repro.obs monitor run.jsonl --follow`` tails the file into a live
progress view, and :class:`~repro.obs.alerts.AlertEngine` evaluates
SLO/alert rules (stage-duration SLOs, budget burn, heartbeat timeouts,
stragglers, cache-hit floors) against the same stream.

Tracing is off by default (:class:`NullTracer`: every call a no-op) and
never perturbs virtual quantities — TTCs, usage, comm bytes and contigs
are bit-identical with tracing on or off.

Quickstart::

    from repro.obs import Tracer, use_tracer, write_jsonl

    tracer = Tracer()
    with use_tracer(tracer):
        result = RnnotatorPipeline().run(dataset, config)
    write_jsonl(tracer, "run.trace.jsonl")
    # then: python -m repro.obs report run.trace.jsonl
"""

from repro.obs.context import (
    BufferingTracer,
    SpanContext,
    WorkerTrace,
    merge_worker_trace,
    worker_track,
)
from repro.obs.logsetup import VirtualClockFormatter, logging_setup
from repro.obs.metrics import Counter, Gauge, Histogram, Metrics
from repro.obs.resources import (
    CadenceSampler,
    ResourceSample,
    ResourceSampler,
)
from repro.obs.tracer import (
    EventRecord,
    NullTracer,
    SpanRecord,
    Tracer,
    TraceSink,
    get_tracer,
    set_thread_tracer,
    set_tracer,
    use_tracer,
)

# The trace analytics, the exporters, the alert engine and the live
# sinks are importable from the package root but load on first use: a
# run without a tracer imports none of them.
_LAZY_EXPORTS = {
    "load_jsonl": "repro.obs.export",
    "text_summary": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "CostAttribution": "repro.obs.attribution",
    "attribute_costs": "repro.obs.attribution",
    "CriticalPath": "repro.obs.critpath",
    "compute_critical_path": "repro.obs.critpath",
    "RunLedger": "repro.obs.ledger",
    "build_record": "repro.obs.ledger",
    "check_regressions": "repro.obs.ledger",
    "Alert": "repro.obs.alerts",
    "AlertEngine": "repro.obs.alerts",
    "AlertRule": "repro.obs.alerts",
    "evaluate_alerts": "repro.obs.alerts",
    "parse_rule": "repro.obs.alerts",
    "CollectorSink": "repro.obs.live",
    "HeartbeatMonitor": "repro.obs.live",
    "InflightUnit": "repro.obs.live",
    "JsonlStreamSink": "repro.obs.live",
    "StragglerDetector": "repro.obs.live",
    "RunState": "repro.obs.spans",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = sorted([
    "BufferingTracer", "CadenceSampler", "Counter", "EventRecord", "Gauge",
    "Histogram", "Metrics", "NullTracer", "ResourceSample", "ResourceSampler",
    "SpanContext", "SpanRecord", "TraceSink", "Tracer", "VirtualClockFormatter",
    "WorkerTrace", "get_tracer", "logging_setup", "merge_worker_trace",
    "set_thread_tracer", "set_tracer", "use_tracer", "worker_track",
    *_LAZY_EXPORTS,
])
