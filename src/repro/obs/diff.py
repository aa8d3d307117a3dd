"""Trace diffing: make a BENCH regression a diffable artifact.

``python -m repro.obs diff base.jsonl other.jsonl`` compares two JSONL
traces written by :func:`repro.obs.write_jsonl`, each folded into a
:class:`~repro.obs.spans.RunState` (so each side is its last run):

* **per-stage deltas** — virtual TTC and real host seconds of every
  ``category="stage"`` span, side by side with absolute and relative
  drift (virtual times are deterministic for an identical-seed run, so
  any virtual drift is a real behaviour change; real times are hardware
  noise, shown but never gated);
* **span structure** — span/event names that appear in only one trace
  (an instrumentation point added or lost), plus count changes;
* **metric drift** — counters and gauges by relative drift, histograms
  by count and mean (report-only: their values are real-time shaped).

Virtual drift is gated by ``--v-rel`` (exit 1), a structural change
always (exit 2, which outranks 1; ``--ignore-structure`` turns it off),
counter/gauge drift only under ``--metric-rel``; real time is reported,
never gated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable

from repro.obs.export import table
from repro.obs.spans import RunState, fold

#: Floor for relative-drift denominators.
_EPS = 1e-12


def _rel(a: float, b: float) -> float:
    """Relative drift of ``b`` vs ``a`` (0 when both are 0)."""
    if a == b:
        return 0.0
    return abs(b - a) / max(abs(a), abs(b), _EPS)


@dataclass
class StageDelta:
    stage: str
    v_base: float
    v_other: float
    r_base: float
    r_other: float

    @property
    def v_rel(self) -> float:
        return _rel(self.v_base, self.v_other)

    @property
    def r_rel(self) -> float:
        return _rel(self.r_base, self.r_other)


@dataclass
class MetricDelta:
    kind: str  # "counter" | "gauge"
    name: str
    base: float | None
    other: float | None

    @property
    def rel(self) -> float:
        if self.base is None or self.other is None:
            return float("inf")  # appeared or vanished entirely
        return _rel(self.base, self.other)


@dataclass
class TraceDiff:
    """Everything the comparison found, before any gating."""

    stages: list[StageDelta] = field(default_factory=list)
    total_v_base: float = 0.0
    total_v_other: float = 0.0
    new_names: list[tuple[str, str, str]] = field(default_factory=list)
    missing_names: list[tuple[str, str, str]] = field(default_factory=list)
    count_changes: list[tuple[tuple[str, str, str], int, int]] = field(
        default_factory=list
    )
    metric_deltas: list[MetricDelta] = field(default_factory=list)
    histogram_notes: list[str] = field(default_factory=list)

    @property
    def total_v_rel(self) -> float:
        return _rel(self.total_v_base, self.total_v_other)

    # -- gating --------------------------------------------------------------

    def threshold_violations(
        self, v_rel: float = 0.0, metric_rel: float | None = None
    ) -> list[str]:
        """Drift beyond its thresholds (exit code 1 material)."""
        out = []
        for d in self.stages:
            if d.v_rel > v_rel:
                out.append(
                    f"stage {d.stage!r}: virtual drift {d.v_rel:.2%} "
                    f"({d.v_base:g} s -> {d.v_other:g} s) > {v_rel:.2%}"
                )
        if self.total_v_rel > v_rel:
            out.append(
                f"total virtual time drift {self.total_v_rel:.2%} "
                f"({self.total_v_base:g} s -> {self.total_v_other:g} s) "
                f"> {v_rel:.2%}"
            )
        if metric_rel is not None:
            for m in self.metric_deltas:
                if m.rel > metric_rel:
                    out.append(
                        f"{m.kind} {m.name!r}: drift "
                        f"{m.base} -> {m.other} > {metric_rel:.2%}"
                    )
        return out

    def structural_violations(self) -> list[str]:
        """Span/event names present in only one trace (exit code 2
        material: instrumentation changed, not mere drift)."""
        out = []
        for key in self.new_names:
            out.append(f"new {key[0]} {key[2]!r} (cat {key[1]!r})")
        for key in self.missing_names:
            out.append(f"missing {key[0]} {key[2]!r} (cat {key[1]!r})")
        return out

    def as_dict(self) -> dict:
        """Machine-readable view of the whole comparison."""
        return {
            "total_v_base": self.total_v_base,
            "total_v_other": self.total_v_other,
            "total_v_rel": self.total_v_rel,
            "stages": [
                {**asdict(d), "v_rel": d.v_rel, "r_rel": d.r_rel}
                for d in self.stages
            ],
            "new_names": [list(k) for k in self.new_names],
            "missing_names": [list(k) for k in self.missing_names],
            "count_changes": [
                {"key": list(key), "base": a, "other": b}
                for key, a, b in self.count_changes
            ],
            "metric_deltas": [asdict(m) for m in self.metric_deltas],
            "histogram_notes": list(self.histogram_notes),
        }

    # -- rendering -----------------------------------------------------------

    def format(self, top: int = 10) -> str:
        """The text of :meth:`as_dict`, at most ``top`` rows per list."""
        data = self.as_dict()

        def record(kind: str, cat: str, name: str) -> dict:
            return {"kind": kind, "name": name, "category": cat or "default"}

        counts = [
            {**record(*c["key"]), "base": c["base"], "other": c["other"]}
            for c in data["count_changes"]
        ]
        drifted = sorted(
            (m for m in self.metric_deltas if m.rel > 0), key=lambda m: -m.rel
        )[:top]
        name = {"kind": "", "name": "", "category": ""}
        sections = [
            "trace diff (base -> other):\n"
            f"  total virtual {self.total_v_base:g} s -> "
            f"{self.total_v_other:g} s ({self.total_v_rel:+.2%} drift)",
            table("per-stage deltas:", {
                "stage": "", "v_base": ".1f", "v_other": ".1f", "v_rel": ".2%",
                "r_base": ".3f", "r_other": ".3f"}, data["stages"]),
            table("new records (in other only):", name,
                  [record(*key) for key in data["new_names"]]),
            table("missing records (in base only):", name,
                  [record(*key) for key in data["missing_names"]]),
            table(f"record-count changes (top {top} of {len(counts)}):",
                  {**name, "base": "d", "other": "d"}, counts[:top]),
            table(f"metric drift (top {top}):",
                  {**name, "base": "", "other": ""},
                  [{**asdict(m), "base": str(m.base), "other": str(m.other)}
                   for m in drifted]),
            table("histograms (report-only):", {"note": ""},
                  [{"note": n} for n in data["histogram_notes"][:top]]),
        ]
        if not (self.stages or self.new_names or self.missing_names
                or self.count_changes or drifted):
            sections.append("  (no differences found)")
        return "\n".join(s for s in sections if s)


def diff_traces(
    base: Iterable[dict] | RunState, other: Iterable[dict] | RunState
) -> TraceDiff:
    """Compare two traces (record streams or folds)."""
    base, other = fold(base), fold(other)
    diff = TraceDiff()

    stages_a = base.stage_seconds()
    stages_b = other.stage_seconds()
    for stage in list(stages_a) + [s for s in stages_b if s not in stages_a]:
        va, ra = stages_a.get(stage, (0.0, 0.0))
        vb, rb = stages_b.get(stage, (0.0, 0.0))
        diff.stages.append(StageDelta(stage, va, vb, ra, rb))
    diff.total_v_base = sum(v for v, _ in stages_a.values())
    diff.total_v_other = sum(v for v, _ in stages_b.values())

    counts_a = base.name_counts
    counts_b = other.name_counts
    diff.new_names = sorted(set(counts_b) - set(counts_a))
    diff.missing_names = sorted(set(counts_a) - set(counts_b))
    diff.count_changes = sorted(
        (key, counts_a[key], counts_b[key])
        for key in set(counts_a) & set(counts_b)
        if counts_a[key] != counts_b[key]
    )

    metrics_a = base.metrics
    metrics_b = other.metrics
    for kind in ("counters", "gauges"):
        names = sorted(set(metrics_a[kind]) | set(metrics_b[kind]))
        for name in names:
            a = metrics_a[kind].get(name)
            b = metrics_b[kind].get(name)
            if a == b:
                continue
            diff.metric_deltas.append(
                MetricDelta(kind.rstrip("s"), name, a, b)
            )
    hists = sorted(
        set(metrics_a["histograms"]) | set(metrics_b["histograms"])
    )
    for name in hists:
        ha = metrics_a["histograms"].get(name)
        hb = metrics_b["histograms"].get(name)
        if ha is None or hb is None:
            diff.histogram_notes.append(
                f"{name}: present only in {'other' if ha is None else 'base'}"
            )
        elif ha["count"] != hb["count"] or ha["mean"] != hb["mean"]:
            diff.histogram_notes.append(
                f"{name}: n {ha['count']} -> {hb['count']}, "
                f"mean {ha['mean']:.4g} -> {hb['mean']:.4g}"
            )
    return diff
