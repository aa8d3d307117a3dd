"""Trace exporters: the JSONL event log and a plain-text digest.

The JSONL log is the archival format (one record per line, metrics
snapshot appended last) and what ``python -m repro.obs`` reads.  Every
record keeps both clocks, so each analysis picks the one it needs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.spans import RunState, fold, r_duration, replay, v_duration
from repro.obs.tracer import Tracer


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


def write_jsonl(source: "Tracer | Iterable[dict]", path: str | Path) -> Path:
    """Write one record per line; a tracer source appends its metrics
    snapshot as a final ``{"type": "metrics"}`` record."""
    path = Path(path)
    if isinstance(source, Tracer):
        records = source.records() + [
            {"type": "metrics", "data": source.metrics.snapshot()}
        ]
    else:
        records = source
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
