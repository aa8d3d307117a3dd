"""Run report over a JSONL trace.

``python -m repro.obs report trace.jsonl`` renders:

* the per-stage table (virtual TTC and real host seconds per pipeline
  stage, from the ``stage``-category spans, with p50/p95 of the stage's
  unit execution spans);
* per-process (pilot / VM pool / SGE) timelines of the virtual clock;
* a virtual-vs-real breakdown by span category;
* the top-k hottest phases by charged critical-path compute (from the
  ``phase`` events the usage layer emits);
* the caching scorecard (count-once k-mer table reuse and the
  content-addressed run cache, from their tracer counters);
* the alert log (when the trace carries rules-engine firings);
* the per-run cost attribution (when the trace carries billing spans);
* the metrics snapshot.

``--json`` emits :func:`report_data` — the same facts machine-readably
(exact floats, no formatting loss) — instead of the text report.  Both
are views over one :class:`~repro.obs.spans.RunState`, and every fact
they share is computed by one helper here.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.attribution import attribute_costs, format_attribution
from repro.obs.export import text_summary
from repro.obs.metrics import Histogram
from repro.obs.spans import RunState, fold, r_duration, stage_name, v_duration


def stage_ttcs(records: Iterable[dict] | RunState) -> dict[str, float]:
    """Virtual TTC per pipeline stage, keyed by stage name.

    Exact floats straight from the trace — these equal the pipeline's
    ``StageReport.ttc`` values bit-for-bit (asserted by the trace-parity
    test)."""
    return {name: v for name, (v, _) in fold(records).stage_seconds().items()}


def stage_table(records: Iterable[dict] | RunState) -> str:
    state = fold(records)
    seconds = state.stage_seconds()
    rows = ["per-stage timings (virtual TTC vs real host seconds):"]
    rows.append(
        f"  {'stage':24s} {'virtual s':>12s} {'real s':>10s} "
        f"{'unit p50':>9s} {'p95':>9s}  placement"
    )
    for span in state.stage_spans():
        attrs, name = span["attrs"], stage_name(span)
        placement = attrs.get("pilot", "-")
        if attrs.get("n_nodes"):
            placement += f" ({attrs['n_nodes']} x {attrs.get('instance_type', '?')})"
        p50 = p95 = f"{'-':>9s}"
        if name in state.execs:
            hist = Histogram(name, [v_duration(s) for s in state.execs[name]])
            p50 = f"{hist.percentile(50):9.1f}"
            p95 = f"{hist.percentile(95):9.1f}"
        virtual, real = seconds[name]
        rows.append(
            f"  {name:24s} {virtual:12.1f} {real:10.3f} {p50} {p95}  {placement}"
        )
    return "\n".join(rows) if len(rows) > 2 else ""


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


def virtual_vs_real(records: Iterable[dict] | RunState) -> str:
    """Per-category totals on both clocks (top-level spans only)."""
    totals = _categories(fold(records))
    if not totals:
        return ""
    rows = ["virtual vs real seconds by category (top-level spans):"]
    rows.append(f"  {'category':16s} {'virtual s':>12s} {'real s':>10s}")
    for cat, row in sorted(totals.items(), key=lambda kv: -kv[1]["virtual_s"]):
        rows.append(
            f"  {cat:16s} {row['virtual_s']:12.1f} {row['real_s']:10.3f}"
        )
    return "\n".join(rows)


def hottest_phases(records: Iterable[dict] | RunState, top: int = 10) -> str:
    """Top-k phases by critical-path compute charged to the cost model."""
    phases = _phases(fold(records))
    if not phases:
        return ""
    rows = [f"hottest phases (critical-path compute, top {top}):"]
    rows.append(
        f"  {'phase':28s} {'kind':10s} {'critical':>12s} {'comm MB':>9s}"
    )
    for e in phases[:top]:
        a = e["attrs"]
        rows.append(
            f"  {a.get('phase', e['name']):28s} {a.get('kind', '?'):10s} "
            f"{a.get('critical_compute', 0.0):12.3g} "
            f"{a.get('comm_bytes', 0) / 1e6:9.2f}"
        )
    return "\n".join(rows)


def cache_scorecard(records: Iterable[dict] | RunState) -> str:
    """Hit/miss scorecard of the two content-addressed caches, plus the
    count-once spectrum build's wall/virtual cost.

    Mirrors the ``kmer_table.*`` counters of the count-once fusion layer
    (:mod:`repro.assembly.sweep`), the ``assembly_cache.*`` counters
    (lookups plus parent-side ``put`` recording) and the ``stage_cache.*``
    counters into a first-class report section, a row per cache whose
    counters exist; when the trace carries ``spectrum.build`` spans, a
    row reports the build's real host seconds against its (zero, by
    construction) virtual cost and mode; a run whose demand-driven
    spectrum stage built nothing carries a ``spectrum.skip`` event
    instead, and the row says so."""
    state = fold(records)
    counters = state.counters
    rows = []
    for label, prefix, extra in (
        ("kmer table cache", "kmer_table", [("bytes cached", "bytes")]),
        ("assembly cache", "assembly_cache", [("puts", "put")]),
        ("stage cache", "stage_cache", []),
    ):
        hits = counters.get(f"{prefix}.hit", 0.0)
        misses = counters.get(f"{prefix}.miss", 0.0)
        cells = [f"hits {hits:g}", f"misses {misses:g}"]
        if hits + misses:
            cells.append(f"hit rate {hits / (hits + misses):.0%}")
        for name, suffix in extra:
            value = counters.get(f"{prefix}.{suffix}")
            if value is not None:
                cells.append(f"{name} {value:g}")
        if hits or misses or any(
            counters.get(f"{prefix}.{suffix}") for _, suffix in extra
        ):
            rows.append(f"  {label:18s} {'  '.join(cells)}")
    builds = state.spectrum_builds()
    if builds:
        virt = sum(v_duration(s) for s in builds)
        mode = builds[-1]["attrs"].get("mode", "?")
        cells = [
            f"wall {state.spectrum_build_s():.3f} s",
            f"virtual {virt:g} s",
            f"mode {mode}",
        ]
        rows.append(f"  {'spectrum build':18s} {'  '.join(cells)}")
    for skip in (e for e in state.events if e["name"] == "spectrum.skip"):
        a = skip["attrs"]
        detail = f"{a.get('jobs_satisfied', 0):g}/{a.get('jobs', 0):g} jobs cached"
        if a.get("reason") == "spectra cached":
            detail += ", spectra served from the table cache"
        rows.append(f"  {'spectrum build':18s} skipped ({detail})")
    if not rows:
        return ""
    return "\n".join(["cache scorecard:"] + rows)


def alerts_section(records: Iterable[dict] | RunState) -> str:
    """The alert log: one line per rules-engine firing in the trace."""
    alerts = fold(records).alerts
    if not alerts:
        return ""
    rows = [f"alerts ({len(alerts)}):"]
    for e in alerts:
        a = e["attrs"]
        rows.append(
            f"  [{a.get('severity', '?'):8s}] "
            f"{a.get('rule', '?')}: {a.get('message', '')}"
        )
    return "\n".join(rows)


def build_report(records: Iterable[dict] | RunState, top: int = 10) -> str:
    """The full plain-text run report."""
    state = fold(records)
    sections = [
        stage_table(state),
        process_timelines(state),
        virtual_vs_real(state),
        hottest_phases(state, top=top),
        cache_scorecard(state),
        alerts_section(state),
        # "" for traces without billing spans (unit tests and the
        # fake-clock fixtures trace no VMs)
        format_attribution(attribute_costs(state)) if state.billing else "",
        text_summary(state, top=top),
    ]
    return "\n\n".join(s for s in sections if s)


def report_data(records: Iterable[dict] | RunState, top: int = 10) -> dict:
    """The machine-readable report (the ``--json`` output).

    Same facts as :func:`build_report` but exact — no float formatting,
    no column truncation — and JSON-serializable, so
    ``json.loads(json.dumps(data))`` round-trips it unchanged.
    """
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
