"""repro.obs — end-to-end tracing, metrics and run reports.

The observability layer the timing arguments rest on: a process-wide but
explicitly-injectable :class:`Tracer` records spans and point events
carrying both **virtual time** (the simulation clock every TTC and
dollar figure is measured on) and **real host time** (``perf_counter``),
a :class:`Metrics` registry counts what the event stream makes awkward
to count, and exporters render it all as a JSONL log, a Chrome
``trace_event`` JSON (Perfetto / ``chrome://tracing``) or plain text.
``python -m repro.obs.report`` turns a trace file into per-stage
timelines, a virtual-vs-real breakdown and the hottest phases.

The layer also streams: attach a :class:`~repro.obs.live.JsonlStreamSink`
(or any :class:`TraceSink`) to a live tracer and every span open/close,
event and metric delta is pushed as it happens — ``python -m
repro.obs.monitor run.jsonl --follow`` tails the file into a live
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
    # then: python -m repro.obs.report run.trace.jsonl
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

# The trace-analytics CLIs (critpath, attribution, ledger, monitor) are
# also importable from the package root, but lazily: eager imports here
# would put them in sys.modules before ``python -m repro.obs.<cli>``
# executes them, tripping runpy's double-import warning on every CLI run.
# The exporters, the alert engine and the live sinks load the same way,
# on first use: a run without a tracer imports none of them.
_LAZY_EXPORTS = {
    "chrome_trace": "repro.obs.export",
    "load_jsonl": "repro.obs.export",
    "text_summary": "repro.obs.export",
    "write_chrome": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "CostAttribution": "repro.obs.attribution",
    "attribute_costs": "repro.obs.attribution",
    "CriticalPath": "repro.obs.critpath",
    "compute_critical_path": "repro.obs.critpath",
    "what_if": "repro.obs.critpath",
    "RunLedger": "repro.obs.ledger",
    "build_record": "repro.obs.ledger",
    "check_regressions": "repro.obs.ledger",
    "pipeline_ttc": "repro.obs.spans",
    "stage_times": "repro.obs.spans",
    "Alert": "repro.obs.alerts",
    "AlertEngine": "repro.obs.alerts",
    "AlertRule": "repro.obs.alerts",
    "default_rules": "repro.obs.alerts",
    "evaluate_alerts": "repro.obs.alerts",
    "parse_rule": "repro.obs.alerts",
    "CollectorSink": "repro.obs.live",
    "HeartbeatMonitor": "repro.obs.live",
    "InflightUnit": "repro.obs.live",
    "JsonlStreamSink": "repro.obs.live",
    "StragglerDetector": "repro.obs.live",
    "RunState": "repro.obs.monitor",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "Alert",
    "AlertEngine",
    "AlertRule",
    "BufferingTracer",
    "CadenceSampler",
    "CollectorSink",
    "CostAttribution",
    "Counter",
    "CriticalPath",
    "EventRecord",
    "Gauge",
    "HeartbeatMonitor",
    "Histogram",
    "InflightUnit",
    "JsonlStreamSink",
    "Metrics",
    "NullTracer",
    "ResourceSample",
    "ResourceSampler",
    "RunLedger",
    "RunState",
    "SpanContext",
    "SpanRecord",
    "StragglerDetector",
    "TraceSink",
    "Tracer",
    "VirtualClockFormatter",
    "WorkerTrace",
    "attribute_costs",
    "build_record",
    "check_regressions",
    "chrome_trace",
    "compute_critical_path",
    "default_rules",
    "evaluate_alerts",
    "get_tracer",
    "load_jsonl",
    "logging_setup",
    "merge_worker_trace",
    "parse_rule",
    "pipeline_ttc",
    "set_thread_tracer",
    "set_tracer",
    "stage_times",
    "text_summary",
    "use_tracer",
    "what_if",
    "worker_track",
    "write_chrome",
    "write_jsonl",
]
