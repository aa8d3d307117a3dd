"""Run report over a JSONL trace.

``python -m repro.obs report trace.jsonl`` prints one
:func:`~repro.obs.export.table` per view below — per-stage timings,
virtual vs real seconds by span category, the hottest phases, the cache
scorecard, the alert log — plus the virtual-time swimlane chart, the
cost attribution (when the trace carries billing spans) and the trace
digest.  ``--json`` prints :func:`report_data`, the same facts exact and
machine-readable.  Every view reads one
:class:`~repro.obs.spans.RunState`.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.attribution import attribute_costs, format_attribution
from repro.obs.export import table, text_summary
from repro.obs.metrics import Histogram
from repro.obs.spans import RunState, fold, r_duration, stage_name, v_duration

def stage_ttcs(records: Iterable[dict] | RunState) -> dict[str, float]:
    """Virtual TTC per pipeline stage, keyed by stage name.

    Exact floats straight from the trace — these equal the pipeline's
    ``StageReport.ttc`` values bit-for-bit (asserted by the trace-parity
    test)."""
    return {name: v for name, (v, _) in fold(records).stage_seconds().items()}


def stage_table(records: Iterable[dict] | RunState) -> list[dict]:
    """One row per stage span: both clocks, the p50/p95 of its units'
    virtual execution time, and the pilot and fleet it ran on."""
    state = fold(records)
    seconds = state.stage_seconds()
    rows = []
    for span in state.stage_spans():
        attrs, name = span["attrs"], stage_name(span)
        placement = attrs.get("pilot", "-")
        if attrs.get("n_nodes"):
            fleet = f"{attrs['n_nodes']} x {attrs.get('instance_type', '?')}"
            placement += f" ({fleet})"
        units = [v_duration(s) for s in state.execs.get(name, [])]
        hist = Histogram(name, units)
        rows.append({
            "stage": name, "virtual s": seconds[name][0],
            "real s": seconds[name][1],
            "unit p50": hist.percentile(50) if units else None,
            "p95": hist.percentile(95) if units else None,
            "placement": placement,
        })
    return rows


def process_timelines(
    records: Iterable[dict] | RunState, width: int = 48
) -> str:
    """ASCII virtual-time swimlane per process track."""
    spans = [
        s
        for s in fold(records).spans
        if v_duration(s) >= 0 and s["v0"] is not None
    ]
    if not spans:
        return ""
    t_min = min(s["v0"] for s in spans)
    t_max = max(s["v1"] for s in spans)
    extent = max(t_max - t_min, 1e-9)
    by_process: dict[str, list[dict]] = {}
    for s in spans:
        by_process.setdefault(s["process"], []).append(s)
    rows = [f"virtual timelines ({t_min:.0f} s .. {t_max:.0f} s):"]
    for process in sorted(by_process):
        rows.append(f"  {process}:")
        for s in sorted(by_process[process], key=lambda s: (s["v0"], s["v1"])):
            lo = int((s["v0"] - t_min) / extent * width)
            hi = max(lo + 1, int((s["v1"] - t_min) / extent * width))
            bar = " " * lo + "#" * (hi - lo) + " " * (width - hi)
            rows.append(
                f"    |{bar}| {s['name']}  {v_duration(s):.1f} s [{s['thread']}]"
            )
    return "\n".join(rows)


def _categories(state: RunState) -> dict[str, dict]:
    """category -> virtual and real seconds of its top-level spans
    (nested spans would double count)."""
    out: dict[str, dict] = {}
    for s in state.spans:
        if s.get("parent") is None:
            row = out.setdefault(
                s["cat"] or "default", {"virtual_s": 0.0, "real_s": 0.0}
            )
            row["virtual_s"] += v_duration(s)
            row["real_s"] += r_duration(s)
    return out


def _phases(state: RunState) -> list[dict]:
    """``phase`` events by critical-path compute, largest first."""
    phases = [e for e in state.events if e["cat"] == "phase"]
    phases.sort(
        key=lambda e: e["attrs"].get("critical_compute", 0.0), reverse=True
    )
    return phases


def _phases(state: RunState) -> list[dict]:
    """``phase`` events by critical-path compute, largest first."""
    phases = [e for e in state.events if e["cat"] == "phase"]
    phases.sort(
        key=lambda e: e["attrs"].get("critical_compute", 0.0), reverse=True
    )
    return phases


def virtual_vs_real(records: Iterable[dict] | RunState) -> list[dict]:
    """Per-category totals on both clocks (top-level spans only), largest
    virtual first: ``report_data``'s ``categories`` as rows."""
    totals = _categories(fold(records))
    return [{"category": cat, **row} for cat, row in
            sorted(totals.items(), key=lambda kv: -kv[1]["virtual_s"])]


def hottest_phases(
    records: Iterable[dict] | RunState, top: int = 10
) -> list[dict]:
    """Top-k phases by critical-path compute charged to the cost model."""
    return [
        {
            "phase": e["attrs"].get("phase", e["name"]),
            "kind": e["attrs"].get("kind", "?"),
            "critical": e["attrs"].get("critical_compute", 0.0),
            "comm MB": e["attrs"].get("comm_bytes", 0) / 1e6,
        }
        for e in _phases(fold(records))[:top]
    ]


def cache_scorecard(records: Iterable[dict] | RunState) -> list[dict]:
    """A row per cache whose counters exist (the count-once k-mer table,
    the run cache's lookups and puts, the stage cache), and one per
    spectrum build: its real seconds against its zero virtual cost, or
    why a demand-driven run skipped it."""
    state = fold(records)
    counters = state.counters
    rows = []
    for label, prefix, extra in (
        ("kmer table cache", "kmer_table", {"bytes cached": "bytes"}),
        ("assembly cache", "assembly_cache", {"puts": "put"}),
        ("stage cache", "stage_cache", {}),
    ):
        hits = counters.get(f"{prefix}.hit", 0.0)
        misses = counters.get(f"{prefix}.miss", 0.0)
        row = {"cache": label, "hits": hits, "misses": misses,
               "hit rate": hits / (hits + misses) if hits + misses else None}
        for header, suffix in extra.items():
            if f"{prefix}.{suffix}" in counters:
                row[header] = counters[f"{prefix}.{suffix}"]
        if hits or misses or any(row.get(header) for header in extra):
            rows.append(row)
    builds = state.spectrum_builds()
    if builds:
        rows.append({
            "cache": "spectrum build",
            "wall s": state.spectrum_build_s(),
            "virtual s": sum(v_duration(s) for s in builds),
            "mode": builds[-1]["attrs"].get("mode", "?"),
        })
    for skip in (e for e in state.events if e["name"] == "spectrum.skip"):
        a = skip["attrs"]
        done, jobs = a.get("jobs_satisfied", 0), a.get("jobs", 0)
        detail = f"{done:g}/{jobs:g} jobs cached"
        if a.get("reason") == "spectra cached":
            detail += ", spectra served from the table cache"
        rows.append({"cache": "spectrum build", "mode": f"skipped ({detail})"})
    return rows


ALERT_COLUMNS = {"severity": "", "rule": "", "message": ""}


def alerts_section(records: Iterable[dict] | RunState) -> list[dict]:
    """The alert log: one row per rules-engine firing in the trace."""
    return [
        {key: e["attrs"].get(key, "?") for key in ALERT_COLUMNS}
        for e in fold(records).alerts
    ]


def build_report(records: Iterable[dict] | RunState, top: int = 10) -> str:
    """The full plain-text run report."""
    state = fold(records)
    sections = [
        table("per-stage timings (virtual TTC vs real host seconds):", {
            "stage": "", "virtual s": ".1f", "real s": ".3f", "unit p50": ".1f",
            "p95": ".1f", "placement": ""}, stage_table(state)),
        process_timelines(state),
        table("virtual vs real seconds by category (top-level spans):",
              {"category": "", "virtual_s": ".1f", "real_s": ".3f"},
              virtual_vs_real(state)),
        table(f"hottest phases (critical-path compute, top {top}):", {
            "phase": "", "kind": "", "critical": ".3g", "comm MB": ".2f"},
            hottest_phases(state, top=top)),
        table("cache scorecard:", {
            "cache": "", "hits": "g", "misses": "g", "hit rate": ".0%",
            "bytes cached": "g", "puts": "g", "wall s": ".3f",
            "virtual s": "g", "mode": ""}, cache_scorecard(state)),
        table(f"alerts ({len(state.alerts)}):", ALERT_COLUMNS,
              alerts_section(state)),
        # skipped for traces without billing spans (unit tests and the
        # fake-clock fixtures trace no VMs)
        state.billing and format_attribution(
            attribute_costs(state).as_dict()
        ),
        text_summary(state, top=top),
    ]
    return "\n\n".join(s for s in sections if s)


def report_data(records: Iterable[dict] | RunState, top: int = 10) -> dict:
    """The ``report --json`` payload: the run's stage, category, phase,
    alert, counter and cost facts, exact and JSON round-trippable."""
    state = fold(records)
    root = state.pipeline
    return {
        "ttc_s": state.ttc(),
        "pipeline": dict(root["attrs"]) if root else {},
        "stages": {
            name: {"virtual_s": v, "real_s": r}
            for name, (v, r) in state.stage_seconds().items()
        },
        "categories": _categories(state),
        "hottest_phases": [dict(e["attrs"]) for e in _phases(state)[:top]],
        "alerts": [dict(e["attrs"]) for e in state.alerts],
        "counters": dict(state.counters),
        "cost": attribute_costs(state).rollup() if state.billing else None,
    }
