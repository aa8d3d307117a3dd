"""Trace exporters: the JSONL event log, its line decoder, and the one
text printer (:func:`table`) every text view goes through.

The JSONL log is the archival format (one record per line, metrics
snapshot appended last) and what ``python -m repro.obs`` reads.  Every
record keeps both clocks, so each analysis picks the one it needs.
"""

from __future__ import annotations

import collections
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


def decode_line(line: str, where: str, last: bool = False) -> dict | None:
    """One trace line as its record: a JSON object with a ``type``.

    Anything else raises ``ValueError`` naming ``where`` (``path:line``),
    except an undecodable ``last`` line: a stream read mid-write ends in
    one, so it is torn, not corrupt, and decodes to ``None``."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        if last:
            return None
        raise ValueError(
            f"{where}: undecodable trace line ({exc.msg})"
        ) from None
    if not isinstance(record, dict) or "type" not in record:
        raise ValueError(f"{where}: not a trace record (an object with a type)")
    return record


def load_jsonl(path: str | Path) -> list[dict]:
    """Read a trace written by :func:`write_jsonl` (or streamed by a
    :class:`~repro.obs.live.JsonlStreamSink`), skipping blank lines and
    a torn last line (:func:`decode_line`)."""
    lines = Path(path).read_text().splitlines()
    records = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            last = number == len(lines)
            record = decode_line(line, f"{path}:{number}", last)
            if record is not None:
                records.append(record)
    return records


def table(title: str, columns: dict[str, str], rows: list[dict]) -> str:
    """The one text printer of the trace analytics.

    ``title`` (when not empty), a header line and one line per row, each
    indented two spaces; ``""`` when there are no rows.  ``columns`` maps
    each header, in order, to the format spec of its cells, and a row is a
    dict keyed by header: a header that no row has is left out, and a
    missing or ``None`` cell prints as ``-``.  A column with a spec holds
    numbers and aligns right, the others align left; each column is as
    wide as its widest cell."""
    if not rows:
        return ""
    cols = {h: f for h, f in columns.items() if any(h in r for r in rows)}
    grid = [list(cols)] + [
        ["-" if r.get(h) is None else format(r[h], f) for h, f in cols.items()]
        for r in rows
    ]
    widths = [max(map(len, cells)) for cells in zip(*grid)]
    lines = [title] if title else []
    for cells in grid:
        padded = (
            cell.rjust(width) if spec else cell.ljust(width)
            for cell, width, spec in zip(cells, widths, cols.values())
        )
        lines.append(("  " + "  ".join(padded)).rstrip())
    return "\n".join(lines)


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
        metrics = state.snapshot or {}
    spans = state.spans

    def hottest(clock: str, spec: str, duration, ranked: list[dict]) -> str:
        return table(
            f"hottest spans ({clock}, top {top}):",
            {f"{clock} s": spec, "span": "", "track": ""},
            [{f"{clock} s": duration(s), "span": s["name"],
              "track": f"{s['process']}/{s['thread']}"} for s in ranked],
        )

    by_cat = collections.Counter(s["cat"] or "default" for s in spans)
    metric_rows = [
        {"kind": kind[:-1], "name": name, "value": value}
        for kind in ("counters", "gauges")
        for name, value in metrics.get(kind, {}).items()
        if value is not None
    ]
    histograms = [
        {"name": name, "n": h["count"], "mean": h["mean"], "p95": h["p95"],
         "max": h["max"]}
        for name, h in metrics.get("histograms", {}).items()
    ]
    sections = [
        f"trace: {len(spans)} spans, {len(state.events)} events",
        table("", {"category": "", "spans": "d"},
              [{"category": c, "spans": n} for c, n in by_cat.most_common()]),
        hottest("virtual", ".1f", v_duration, [
            s for s in sorted(spans, key=v_duration, reverse=True)[:top]
            if v_duration(s) > 0
        ]),
        hottest("real", ".4f", r_duration,
                sorted(spans, key=r_duration, reverse=True)[:top]),
        table("metrics:", {"kind": "", "name": "", "value": "g"}, metric_rows),
        table("histograms:", {"name": "", "n": "d", "mean": ".4g",
                              "p95": ".4g", "max": ".4g"}, histograms),
    ]
    return "\n".join(s for s in sections if s)
