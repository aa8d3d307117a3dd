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
end of the critical segment covering that instant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .export import table
from .spans import RunState, fold, v_duration

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

    def as_dict(self, ttc: float | None) -> dict:
        """The ``critpath --json`` payload, which the text also prints:
        every segment, both rollups and the self-check against the
        pipeline TTC ``ttc`` (``None`` when the trace has no pipeline
        span, which the path then cannot contradict)."""
        return {
            "total_virtual_s": self.total,
            "pipeline_ttc_s": ttc,
            "matches_pipeline_ttc": (
                ttc is None or abs(self.total - ttc) <= EPS
            ),
            "segments": [
                {"v_start": seg.v_start, "v_end": seg.v_end,
                 "duration_s": seg.duration, "name": seg.name,
                 "category": seg.category}
                for seg in self.segments
            ],
            "by_category": self.by_category(),
            "by_name": self.by_name(),
        }


def _eligible(state: RunState) -> list[dict]:
    out = []
    for s in state.spans:
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


def compute_critical_path(records: Iterable[dict] | RunState) -> CriticalPath:
    """Backward sweep from the run's end to its start.

    The run interval comes from the ``pipeline`` root span when present,
    else from the hull of all eligible spans.
    """
    state = fold(records)
    eligible = _eligible(state)
    if state.ttc() is not None:
        start, end = state.pipeline["v0"], state.pipeline["v1"]
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


def slack_rows(
    records: Iterable[dict] | RunState, path: CriticalPath
) -> list[dict]:
    """Every off-path span with its slack, largest first."""
    rows = [
        {"slack s": path.slack(span), "span": span["name"],
         "category": span["cat"], "duration s": v_duration(span)}
        for span in _eligible(fold(records))
    ]
    return sorted((r for r in rows if r["slack s"] > EPS),
                  key=lambda r: -r["slack s"])


def format_path(payload: dict, slack: list[dict], top: int = 10) -> str:
    """The text of :meth:`CriticalPath.as_dict` and :func:`slack_rows`."""
    total, segments = payload["total_virtual_s"], payload["segments"]

    def share(secs: float) -> float:
        return secs / total if total else 0.0

    def rollup(title: str, pairs) -> str:
        rows = [{"secs": v, "share": share(v), "name": k} for k, v in pairs]
        return table(title, {"secs": ".3f", "share": ".1%", "name": ""}, rows)

    sections = [
        "== critical path (virtual time) ==\n"
        f"total {total:.3f}s over {len(segments)} segments",
        table("", {"v_start": ".3f", "v_end": ".3f", "duration_s": ".3f",
                   "share": ".1%", "name": "", "category": ""},
              [{**seg, "share": share(seg["duration_s"])} for seg in segments]),
        rollup("== by span, largest first ==",
               list(payload["by_name"].items())[:top]),
        rollup("== by category ==", payload["by_category"].items()),
        table("== largest slack (off-path spans) ==",
              {"slack s": ".3f", "span": "", "category": "",
               "duration s": ".3f"}, slack[:top])
        or "== largest slack (off-path spans) ==\n"
        "  (none — every span is on the critical path)",
    ]
    ttc = payload["pipeline_ttc_s"]
    if ttc is not None:
        verdict = ("matches" if payload["matches_pipeline_ttc"]
                   else "DOES NOT MATCH")
        sections.append(
            f"path total {total:.6f}s {verdict} pipeline TTC {ttc:.6f}s"
        )
    return "\n\n".join(sections)
