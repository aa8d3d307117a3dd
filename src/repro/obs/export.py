"""Trace exporters: JSONL event log, Chrome ``trace_event`` JSON, text.

The JSONL log is the archival format (one record per line, metrics
snapshot appended last) and what ``python -m repro.obs`` reads.
The Chrome format loads directly in Perfetto / ``chrome://tracing``: one
"process" row per track (pilot, VM pool, SGE, pipeline), one "thread"
row per unit/rank/stage within it.  Both clocks are exported — pick the
timeline with ``clock="virtual"`` (default: the paper's TTC domain) or
``clock="real"`` (host wall-time).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.spans import RunState, fold, r_duration, replay, v_duration
from repro.obs.tracer import Tracer

#: Microseconds per (virtual or real) second — trace_event's ts unit.
_US = 1e6


def json_default(value):
    """Fallback serializer for tag values ``json`` does not know.

    Instrumentation tags whatever it has on hand — numpy scalars from a
    spectrum computation, raw digest bytes, paths, sets — and the
    exporter must never raise mid-run over it.  Numpy scalars flatten to
    their Python numbers, bytes decode (or hex-encode when not UTF-8),
    sets become sorted-ish lists, and anything else falls back to
    ``repr``."""
    if hasattr(value, "item") and callable(value.item):
        try:
            return value.item()  # numpy scalars / 0-d arrays
        except (TypeError, ValueError):
            pass
    if hasattr(value, "tolist") and callable(value.tolist):
        try:
            return value.tolist()  # numpy arrays
        except (TypeError, ValueError):
            pass
    if isinstance(value, (bytes, bytearray)):
        try:
            return value.decode("utf-8")
        except UnicodeDecodeError:
            return "hex:" + bytes(value).hex()
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return repr(value)


def dump_record(record: dict) -> str:
    """One trace record as a single JSON line (no trailing newline),
    robust to non-JSON-native tag values — shared by the archival
    writer and the live streaming sink."""
    return json.dumps(record, default=json_default)


def _records_of(source: "Tracer | Iterable[dict]") -> list[dict]:
    if isinstance(source, Tracer):
        return source.records()
    return list(source)


def write_jsonl(source: "Tracer | Iterable[dict]", path: str | Path) -> Path:
    """Write one record per line; a tracer source appends its metrics
    snapshot as a final ``{"type": "metrics"}`` record."""
    path = Path(path)
    records = _records_of(source)
    if isinstance(source, Tracer):
        records = records + [
            {"type": "metrics", "data": source.metrics.snapshot()}
        ]
    with path.open("w") as fh:
        for record in records:
            fh.write(dump_record(record) + "\n")
    return path


def load_jsonl(path: str | Path) -> list[dict]:
    """Read a trace written by :func:`write_jsonl` (or streamed by a
    :class:`~repro.obs.live.JsonlStreamSink`).

    A torn last line — a stream read mid-write ends in one — is
    skipped; an undecodable line anywhere else raises ``ValueError``
    naming it."""
    lines = Path(path).read_text().splitlines()
    records = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if number == len(lines):
                break
            raise ValueError(
                f"{path}:{number}: undecodable trace line ({exc.msg})"
            ) from None
    return records


def _span_times(record: dict, clock: str) -> tuple[float, float] | None:
    if clock == "virtual":
        if record["v0"] is None or record["v1"] is None:
            return None
        return record["v0"], record["v1"]
    return record["r0"], record["r1"]


def _event_time(record: dict, clock: str) -> float | None:
    if clock == "virtual":
        return record["v"]
    return record["r"]


def chrome_trace(
    source: "Tracer | Iterable[dict]", clock: str = "virtual"
) -> dict:
    """Build a Chrome ``trace_event`` document from a trace.

    Track names map to numeric pids/tids in order of first appearance,
    with ``process_name``/``thread_name`` metadata events so the viewer
    shows the original names.  Records without a timestamp on the chosen
    clock (e.g. spans recorded before a clock was bound, under
    ``clock="virtual"``) are skipped.
    """
    if clock not in ("virtual", "real"):
        raise ValueError(f"clock must be 'virtual' or 'real', not {clock!r}")
    records = _records_of(source)
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    trace_events: list[dict] = []

    def track(process: str, thread: str) -> tuple[int, int]:
        if process not in pids:
            pids[process] = len(pids) + 1
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[process],
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        key = (process, thread)
        if key not in tids:
            tids[key] = len(tids) + 1
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pids[process],
                    "tid": tids[key],
                    "args": {"name": thread},
                }
            )
        return pids[process], tids[key]

    for record in records:
        kind = record.get("type")
        if kind == "span":
            times = _span_times(record, clock)
            if times is None:
                continue
            t0, t1 = times
            pid, tid = track(record["process"], record["thread"])
            trace_events.append(
                {
                    "name": record["name"],
                    "cat": record["cat"] or "default",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": t0 * _US,
                    "dur": max(0.0, (t1 - t0)) * _US,
                    "args": dict(
                        record["attrs"],
                        v_seconds=record["v1"] - record["v0"]
                        if record["v0"] is not None and record["v1"] is not None
                        else None,
                        r_seconds=record["r1"] - record["r0"],
                    ),
                }
            )
        elif kind == "event" and record["cat"] == "resource":
            # Resource samples render as Perfetto counter tracks: one
            # "C" event per sampled quantity, charted per process row.
            t = _event_time(record, clock)
            if t is None:
                continue
            pid, _ = track(record["process"], record["thread"])
            attrs = record["attrs"]
            for counter, key, scale in (
                ("rss_mb", "rss_bytes", 1e-6),
                ("cpu_s", "cpu_seconds", 1.0),
            ):
                if key in attrs:
                    trace_events.append(
                        {
                            "name": counter,
                            "cat": "resource",
                            "ph": "C",
                            "pid": pid,
                            "tid": 0,
                            "ts": t * _US,
                            "args": {"value": attrs[key] * scale},
                        }
                    )
        elif kind == "event":
            t = _event_time(record, clock)
            if t is None:
                continue
            pid, tid = track(record["process"], record["thread"])
            trace_events.append(
                {
                    "name": record["name"],
                    "cat": record["cat"] or "default",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": t * _US,
                    "args": record["attrs"],
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome(
    source: "Tracer | Iterable[dict]",
    path: str | Path,
    clock: str = "virtual",
) -> Path:
    """Write a Chrome trace JSON file (open it in Perfetto)."""
    path = Path(path)
    path.write_text(
        json.dumps(chrome_trace(source, clock=clock), indent=1,
                   default=json_default)
    )
    return path


def text_summary(
    source: "Tracer | RunState | Iterable[dict]", top: int = 10
) -> str:
    """Plain-text digest: span counts by category, hottest spans on both
    clocks, and the metrics snapshot when present."""
    if isinstance(source, Tracer):
        state = replay(source.records())
        metrics = source.metrics.snapshot()
    else:
        state = fold(source)
        metrics = state.snapshot
    spans, events = state.spans, state.events

    lines = [f"trace: {len(spans)} spans, {len(events)} events"]
    by_cat: dict[str, int] = {}
    for s in spans:
        by_cat[s["cat"] or "default"] = by_cat.get(s["cat"] or "default", 0) + 1
    for cat, n in sorted(by_cat.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {cat:16s} {n:5d} spans")

    hottest_v = sorted(spans, key=v_duration, reverse=True)[:top]
    if any(v_duration(s) > 0 for s in hottest_v):
        lines.append(f"hottest spans (virtual, top {top}):")
        for s in hottest_v:
            if v_duration(s) <= 0:
                continue
            lines.append(
                f"  {v_duration(s):12.1f} s  {s['name']}  "
                f"[{s['process']}/{s['thread']}]"
            )
    hottest_r = sorted(spans, key=r_duration, reverse=True)[:top]
    if hottest_r:
        lines.append(f"hottest spans (real, top {top}):")
        for s in hottest_r:
            lines.append(
                f"  {r_duration(s):12.4f} s  {s['name']}  "
                f"[{s['process']}/{s['thread']}]"
            )
    if metrics:
        lines.append("metrics:")
        for name, value in metrics.get("counters", {}).items():
            lines.append(f"  counter   {name:32s} {value:g}")
        for name, value in metrics.get("gauges", {}).items():
            if value is not None:
                lines.append(f"  gauge     {name:32s} {value:g}")
        for name, h in metrics.get("histograms", {}).items():
            lines.append(
                f"  histogram {name:32s} n={h['count']} mean={h['mean']:.4g} "
                f"p95={h['p95']:.4g} max={h['max']:.4g}"
            )
    return "\n".join(lines)
