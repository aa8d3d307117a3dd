"""Virtual-time critical-path analysis over JSONL traces.

Reconstructs which spans actually bound a pipeline run.  The trace is a
set of spans on the shared virtual clock; the critical path is found by
a backward sweep from the run's end: at every instant we ask "which span
was the run waiting on just before t?", credit the interval back to that
span's start, and repeat from there.  The resulting segments tile
``[run start, run end]`` exactly, so the path total equals the pipeline
end-to-end virtual TTC by construction.

Every other span gets a *slack*: how much longer it could have run
before it would have delayed the run (the distance from its end to the
end of the critical segment covering that instant).  ``what_if``
re-prices the path under "span family X becomes f times as long/short"
queries so speedup work can be targeted before it is built.

CLI::

    python -m repro.obs.critpath trace.jsonl --top 8
    python -m repro.obs.critpath trace.jsonl --what-if 'exec:ray_*=0.5'
    python -m repro.obs.critpath trace.jsonl --json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterable, Sequence

from .export import load_jsonl
from .spans import pipeline_span, spans_of, v_duration

#: Virtual-time comparison tolerance.  Virtual timestamps are sums of a
#: few hundred float advances, so exact equality is too strict while
#: anything near a real span duration (>= milliseconds) is far coarser.
EPS = 1e-6

#: When several spans are simultaneously "the thing being waited on",
#: prefer the most specific description of the work.  A unit executing
#: inside a stage inside a pilot is reported as the unit, not the stage.
_CATEGORY_RANK = {
    "unit": 0,
    "workload": 1,
    "mapreduce": 2,
    "sge": 3,
    "executor": 4,
    "agent": 5,
    "phase": 6,
    "stage": 7,
    "scheduler": 8,
    "pilot": 9,
    "cloud": 10,
}
_DEFAULT_RANK = 20

#: Span categories that never carry the run on their own: the pipeline
#: root covers everything by definition, and bookkeeping spans
#: (state transitions, resource samples, the host-side spectrum build
#: whose spans advance no virtual time) describe the run rather than
#: advance it.
_EXCLUDED_CATEGORIES = {"pipeline", "resource", "state", "events", "spectrum"}


@dataclass(frozen=True)
class Segment:
    """One tile of the critical path: ``span`` bound the run on
    ``[v_start, v_end]``.  ``span is None`` marks an idle gap where no
    traced span was active (e.g. untraced clock advances)."""

    v_start: float
    v_end: float
    span: dict | None = None

    @property
    def duration(self) -> float:
        return self.v_end - self.v_start

    @property
    def name(self) -> str:
        return self.span["name"] if self.span is not None else "(idle)"

    @property
    def category(self) -> str:
        return self.span["cat"] if self.span is not None else "idle"


@dataclass
class CriticalPath:
    """The backward-sweep result: chronological segments tiling
    ``[v_start, v_end]``."""

    v_start: float
    v_end: float
    segments: list[Segment] = field(default_factory=list)

    @property
    def total(self) -> float:
        """Total virtual duration.  Computed as the hull ``end - start``
        (the same subtraction that defines the pipeline TTC), which the
        segments tile exactly."""
        return self.v_end - self.v_start

    def by_category(self) -> dict[str, float]:
        """category -> virtual seconds on the path, largest first."""
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.category] = out.get(seg.category, 0.0) + seg.duration
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def by_name(self) -> dict[str, float]:
        """span name -> virtual seconds on the path, largest first."""
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.name] = out.get(seg.name, 0.0) + seg.duration
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def slack(self, span: dict) -> float:
        """How much later ``span`` could have finished without delaying
        the run: distance from its end to the end of the critical
        segment covering that instant.  On-path spans get 0."""
        v1 = span.get("v1")
        if v1 is None:
            return 0.0
        covering = [
            seg.v_end - v1
            for seg in self.segments
            if seg.v_start - EPS <= v1 <= seg.v_end + EPS
        ]
        if not covering:
            return max(0.0, self.v_end - v1)
        return max(0.0, min(covering))

    def summary(self, top: int = 5) -> dict:
        """Compact rollup for the run ledger."""
        return {
            "total_virtual_s": self.total,
            "n_segments": len(self.segments),
            "by_category": {
                k: round(v, 6) for k, v in self.by_category().items()
            },
            "top": [
                {"name": name, "virtual_s": round(secs, 6)}
                for name, secs in list(self.by_name().items())[:top]
            ],
        }


def _eligible(records: Iterable[dict]) -> list[dict]:
    out = []
    for s in spans_of(records):
        if s["cat"] in _EXCLUDED_CATEGORIES:
            continue
        if s["v0"] is None or s["v1"] is None:
            continue  # worker-real-time-only spans carry no virtual clock
        if s["v1"] - s["v0"] <= EPS:
            continue  # instantaneous markers cannot bound the run
        out.append(s)
    return out


def _pick(candidates: list[dict], t: float) -> dict:
    """The span the run was waiting on just before instant ``t``.

    Preference order: spans that *end* at t (they released the run),
    then latest start (the most recent dependency), then the most
    specific category, then the shortest span (tightest description)."""
    return min(
        candidates,
        key=lambda s: (
            abs(s["v1"] - t) > EPS,  # enders first
            -s["v0"],
            _CATEGORY_RANK.get(s["cat"], _DEFAULT_RANK),
            s["v1"] - s["v0"],
            s["id"],
        ),
    )


def compute_critical_path(records: Sequence[dict]) -> CriticalPath:
    """Backward sweep from the run's end to its start.

    The run interval comes from the ``pipeline`` root span when present,
    else from the hull of all eligible spans.
    """
    eligible = _eligible(records)
    root = pipeline_span(records)
    if root is not None and root["v0"] is not None and root["v1"] is not None:
        start, end = root["v0"], root["v1"]
    elif eligible:
        start = min(s["v0"] for s in eligible)
        end = max(s["v1"] for s in eligible)
    else:
        raise ValueError("trace contains no spans with virtual time")

    segments: list[Segment] = []
    t = end
    while t > start + EPS:
        active = [
            s for s in eligible if s["v0"] < t - EPS and s["v1"] >= t - EPS
        ]
        if active:
            chosen = _pick(active, t)
            t_next = max(chosen["v0"], start)
            segments.append(Segment(t_next, t, chosen))
        else:
            # Idle gap: back up to the latest span end before t.
            prior = [s["v1"] for s in eligible if s["v1"] < t - EPS]
            t_next = max([p for p in prior if p >= start], default=start)
            segments.append(Segment(t_next, t, None))
        t = t_next
    segments.reverse()
    return CriticalPath(start, end, segments)


@dataclass(frozen=True)
class WhatIf:
    """Result of re-pricing the path under scale queries."""

    baseline_s: float
    projected_s: float
    matched_segments: int
    matched_s: float

    @property
    def delta_s(self) -> float:
        return self.projected_s - self.baseline_s


def parse_what_if(spec: str) -> tuple[str, float]:
    """Parse a ``PATTERN=FACTOR`` query, e.g. ``exec:ray_*=0.5``."""
    pattern, sep, factor = spec.rpartition("=")
    if not sep or not pattern:
        raise ValueError(f"what-if query must be PATTERN=FACTOR, got {spec!r}")
    return pattern, float(factor)


def _matches(seg: Segment, pattern: str) -> bool:
    if pattern.startswith("cat:"):
        return fnmatchcase(seg.category, pattern[4:])
    return fnmatchcase(seg.name, pattern)


def what_if(
    path: CriticalPath, queries: Sequence[tuple[str, float]]
) -> WhatIf:
    """Scale every path segment matching a query by its factor (first
    matching query wins) and re-total.

    This is first-order: it re-prices the *recorded* path rather than
    re-scheduling the run, so a large shrink that would promote some
    other span onto the path reports a lower bound on the new TTC.
    """
    projected = 0.0
    matched = 0
    matched_s = 0.0
    for seg in path.segments:
        factor = next(
            (f for pat, f in queries if _matches(seg, pat)), None
        )
        if factor is None:
            projected += seg.duration
        else:
            matched += 1
            matched_s += seg.duration
            projected += seg.duration * factor
    return WhatIf(path.total, projected, matched, matched_s)


def format_path(path: CriticalPath, top: int = 10) -> str:
    lines = []
    lines.append("== critical path (virtual time) ==")
    lines.append(
        f"total {path.total:.3f}s over {len(path.segments)} segments"
    )
    lines.append("")
    lines.append(
        f"{'from':>12} {'to':>12} {'secs':>10} {'share':>7}  span"
    )
    for seg in path.segments:
        share = seg.duration / path.total if path.total else 0.0
        lines.append(
            f"{seg.v_start:>12.3f} {seg.v_end:>12.3f}"
            f" {seg.duration:>10.3f} {share:>6.1%}"
            f"  {seg.name} [{seg.category}]"
        )
    lines.append("")
    lines.append("== by span, largest first ==")
    for name, secs in list(path.by_name().items())[:top]:
        share = secs / path.total if path.total else 0.0
        lines.append(f"  {secs:>10.3f}s {share:>6.1%}  {name}")
    lines.append("")
    lines.append("== by category ==")
    for cat, secs in path.by_category().items():
        share = secs / path.total if path.total else 0.0
        lines.append(f"  {secs:>10.3f}s {share:>6.1%}  {cat}")
    return "\n".join(lines)


def format_slack(
    records: Sequence[dict], path: CriticalPath, top: int = 10
) -> str:
    rows = []
    for span in _eligible(records):
        s = path.slack(span)
        if s > EPS:
            rows.append((s, span))
    rows.sort(key=lambda r: -r[0])
    lines = ["== largest slack (off-path spans) =="]
    if not rows:
        lines.append("  (none — every span is on the critical path)")
    for s, span in rows[:top]:
        lines.append(
            f"  {s:>10.3f}s slack"
            f"  {span['name']} [{span['cat']}]"
            f" dur={v_duration(span):.3f}s"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.critpath",
        description="Critical-path analysis of a JSONL trace.",
    )
    parser.add_argument("trace", help="JSONL trace file")
    parser.add_argument(
        "--top", type=int, default=10, help="rows in rollup tables"
    )
    parser.add_argument(
        "--what-if",
        action="append",
        default=[],
        metavar="PATTERN=FACTOR",
        help=(
            "re-price path segments whose span name (or cat:CATEGORY) "
            "matches PATTERN by FACTOR; repeatable"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)

    records = load_jsonl(args.trace)
    try:
        path = compute_critical_path(records)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    queries = [parse_what_if(q) for q in args.what_if]
    projection = what_if(path, queries) if queries else None

    # Self-check: the path must account for the whole run.
    ttc = None
    root = pipeline_span(records)
    if root is not None and root["v0"] is not None:
        ttc = root["v1"] - root["v0"]
    ok = ttc is None or abs(path.total - ttc) <= EPS

    if args.json:
        payload = {
            "total_virtual_s": path.total,
            "pipeline_ttc_s": ttc,
            "matches_pipeline_ttc": ok,
            "segments": [
                {
                    "v_start": seg.v_start,
                    "v_end": seg.v_end,
                    "duration_s": seg.duration,
                    "name": seg.name,
                    "category": seg.category,
                }
                for seg in path.segments
            ],
            "by_category": path.by_category(),
            "by_name": path.by_name(),
        }
        if projection is not None:
            payload["what_if"] = {
                "queries": [
                    {"pattern": p, "factor": f} for p, f in queries
                ],
                "baseline_s": projection.baseline_s,
                "projected_s": projection.projected_s,
                "delta_s": projection.delta_s,
                "matched_segments": projection.matched_segments,
                "matched_s": projection.matched_s,
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_path(path, top=args.top))
        print()
        print(format_slack(records, path, top=args.top))
        if ttc is not None:
            verdict = "matches" if ok else "DOES NOT MATCH"
            print()
            print(
                f"path total {path.total:.6f}s {verdict} "
                f"pipeline TTC {ttc:.6f}s"
            )
        if projection is not None:
            print()
            print("== what-if ==")
            for pat, f in queries:
                print(f"  scale {pat!r} by {f:g}")
            print(
                f"  projected TTC {projection.projected_s:.3f}s"
                f" (baseline {projection.baseline_s:.3f}s,"
                f" delta {projection.delta_s:+.3f}s,"
                f" {projection.matched_segments} segments"
                f" / {projection.matched_s:.3f}s matched)"
            )

    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
