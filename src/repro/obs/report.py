"""Run-report CLI over a JSONL trace file.

``python -m repro.obs.report trace.jsonl`` renders:

* the per-stage table (virtual TTC and real host seconds per pipeline
  stage, from the ``stage``-category spans, with p50/p95 of the stage's
  unit execution spans);
* per-process (pilot / VM pool / SGE) timelines of the virtual clock;
* a virtual-vs-real breakdown by span category;
* the top-k hottest phases by charged critical-path compute (from the
  ``phase`` events the usage layer emits);
* the caching scorecard (count-once k-mer table reuse and the
  content-addressed assembly cache, from their tracer counters);
* the alert log (when the trace carries rules-engine firings);
* the per-run cost attribution (when the trace carries billing spans);
* the metrics snapshot.

``--chrome out.json`` additionally converts the trace to Chrome
``trace_event`` JSON (open in Perfetto / ``chrome://tracing``).
``--json`` emits the same facts machine-readably (exact floats, no
formatting loss) instead of the text report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from repro.obs.export import load_jsonl, text_summary, write_chrome
from repro.obs.metrics import Histogram
from repro.obs.spans import events_of as _events
from repro.obs.spans import pipeline_span
from repro.obs.spans import spans_of as _spans
from repro.obs.spans import v_duration as _v_dur


def stage_ttcs(records: Iterable[dict]) -> dict[str, float]:
    """Virtual TTC per pipeline stage, keyed by stage name.

    Exact floats straight from the trace — these equal the pipeline's
    ``StageReport.ttc`` values bit-for-bit (asserted by the trace-parity
    test)."""
    out: dict[str, float] = {}
    for span in _spans(records):
        if span["cat"] == "stage":
            out[span["attrs"].get("stage", span["name"])] = _v_dur(span)
    return out


def _unit_histograms(records: Iterable[dict]) -> dict[str, Histogram]:
    """stage name -> histogram of its unit exec spans' virtual seconds."""
    out: dict[str, Histogram] = {}
    for span in _spans(records):
        if span["cat"] != "unit" or span["v0"] is None:
            continue
        stage = span["attrs"].get("stage")
        if stage is None:
            continue
        if stage not in out:
            out[stage] = Histogram(stage)
        out[stage].observe(_v_dur(span))
    return out


def stage_table(records: Iterable[dict]) -> str:
    records = list(records)
    units = _unit_histograms(records)
    rows = ["per-stage timings (virtual TTC vs real host seconds):"]
    rows.append(
        f"  {'stage':24s} {'virtual s':>12s} {'real s':>10s} "
        f"{'unit p50':>9s} {'p95':>9s}  placement"
    )
    for span in _spans(records):
        if span["cat"] != "stage":
            continue
        attrs = span["attrs"]
        placement = attrs.get("pilot", "-")
        if attrs.get("n_nodes"):
            placement += f" ({attrs['n_nodes']} x {attrs.get('instance_type', '?')})"
        hist = units.get(attrs.get("stage", span["name"]))
        p50 = f"{hist.percentile(50):9.1f}" if hist else f"{'-':>9s}"
        p95 = f"{hist.percentile(95):9.1f}" if hist else f"{'-':>9s}"
        rows.append(
            f"  {attrs.get('stage', span['name']):24s} {_v_dur(span):12.1f} "
            f"{span['r1'] - span['r0']:10.3f} {p50} {p95}  {placement}"
        )
    return "\n".join(rows) if len(rows) > 2 else ""


def process_timelines(records: Iterable[dict], width: int = 48) -> str:
    """ASCII virtual-time swimlane per process track."""
    spans = [s for s in _spans(records) if _v_dur(s) >= 0 and s["v0"] is not None]
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
                f"    |{bar}| {s['name']}  {_v_dur(s):.1f} s [{s['thread']}]"
            )
    return "\n".join(rows)


def virtual_vs_real(records: Iterable[dict]) -> str:
    """Per-category totals on both clocks (top-level spans only, so
    nested spans are not double counted)."""
    spans = _spans(records)
    roots = [s for s in spans if s.get("parent") is None]
    if not roots:
        return ""
    totals: dict[str, tuple[float, float]] = {}
    for s in roots:
        cat = s["cat"] or "default"
        v, r = totals.get(cat, (0.0, 0.0))
        totals[cat] = (v + _v_dur(s), r + (s["r1"] - s["r0"]))
    rows = ["virtual vs real seconds by category (top-level spans):"]
    rows.append(f"  {'category':16s} {'virtual s':>12s} {'real s':>10s}")
    for cat, (v, r) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        rows.append(f"  {cat:16s} {v:12.1f} {r:10.3f}")
    return "\n".join(rows)


def hottest_phases(records: Iterable[dict], top: int = 10) -> str:
    """Top-k phases by critical-path compute charged to the cost model."""
    phases = [e for e in _events(records) if e["cat"] == "phase"]
    if not phases:
        return ""
    phases.sort(key=lambda e: e["attrs"].get("critical_compute", 0.0), reverse=True)
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


def cache_scorecard(records: Iterable[dict]) -> str:
    """Hit/miss scorecard of the two content-addressed caches, plus the
    count-once spectrum build's wall/virtual cost.

    Mirrors the ``kmer_table.*`` counters of the count-once fusion layer
    (:mod:`repro.assembly.sweep`) and the ``assembly_cache.*`` counters
    (lookups plus parent-side ``put`` recording) from the metrics
    snapshot into a first-class report section; when the trace carries
    ``spectrum.build`` spans, a row reports the build's real host
    seconds against its (zero, by construction) virtual cost and mode;
    a run whose demand-driven spectrum stage built nothing carries a
    ``spectrum.skip`` event instead, and the row says so."""
    records = list(records)
    metrics = next(
        (r["data"] for r in records if r.get("type") == "metrics"), None
    )
    counters = (metrics or {}).get("counters", {})
    rows = []
    for label, prefix, extra in (
        ("kmer table cache", "kmer_table", [("bytes cached", "bytes")]),
        ("assembly cache", "assembly_cache", [("puts", "put")]),
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
    builds = [s for s in _spans(records) if s["name"] == "spectrum.build"]
    if builds:
        wall = sum(s["r1"] - s["r0"] for s in builds)
        virt = sum(_v_dur(s) for s in builds)
        mode = builds[-1]["attrs"].get("mode", "?")
        cells = [f"wall {wall:.3f} s", f"virtual {virt:g} s", f"mode {mode}"]
        n_shards = builds[-1]["attrs"].get("n_shards")
        if n_shards is not None:
            cells.append(f"shards {n_shards:g}")
        rows.append(f"  {'spectrum build':18s} {'  '.join(cells)}")
    for skip in (e for e in _events(records) if e["name"] == "spectrum.skip"):
        a = skip["attrs"]
        detail = f"{a.get('jobs_satisfied', 0):g}/{a.get('jobs', 0):g} jobs cached"
        if a.get("reason") == "spectra cached":
            detail += ", spectra served from the table cache"
        rows.append(f"  {'spectrum build':18s} skipped ({detail})")
    if not rows:
        return ""
    return "\n".join(["cache scorecard:"] + rows)


def alerts_section(records: Iterable[dict]) -> str:
    """The alert log: one line per rules-engine firing in the trace."""
    alerts = [e for e in _events(records) if e["cat"] == "alert"]
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


def cost_section(records: list[dict]) -> str:
    """The cost-attribution table, or "" for traces without billing
    spans (unit tests and the fake-clock fixtures trace no VMs)."""
    from repro.obs.attribution import attribute_costs, format_attribution

    try:
        attribution = attribute_costs(records)
    except ValueError:
        return ""
    return format_attribution(attribution)


def build_report(records: list[dict], top: int = 10) -> str:
    """The full plain-text run report."""
    sections = [
        stage_table(records),
        process_timelines(records),
        virtual_vs_real(records),
        hottest_phases(records, top=top),
        cache_scorecard(records),
        alerts_section(records),
        cost_section(records),
        text_summary(records, top=top),
    ]
    return "\n\n".join(s for s in sections if s)


def report_data(records: list[dict], top: int = 10) -> dict:
    """The machine-readable report (the ``--json`` output).

    Same facts as :func:`build_report` but exact — no float formatting,
    no column truncation — and JSON-serializable, so
    ``json.loads(json.dumps(data))`` round-trips it unchanged.
    """
    records = list(records)
    root = pipeline_span(records)
    stages: dict[str, dict] = {}
    for span in _spans(records):
        if span["cat"] == "stage":
            stages[span["attrs"].get("stage", span["name"])] = {
                "virtual_s": _v_dur(span),
                "real_s": span["r1"] - span["r0"],
            }
    categories: dict[str, dict] = {}
    for span in _spans(records):
        if span.get("parent") is not None:
            continue
        cat = span["cat"] or "default"
        row = categories.setdefault(cat, {"virtual_s": 0.0, "real_s": 0.0})
        row["virtual_s"] += _v_dur(span)
        row["real_s"] += span["r1"] - span["r0"]
    phases = [e for e in _events(records) if e["cat"] == "phase"]
    phases.sort(
        key=lambda e: e["attrs"].get("critical_compute", 0.0), reverse=True
    )
    try:
        from repro.obs.attribution import attribute_costs

        attribution = attribute_costs(records)
        cost = {
            "total_usd": attribution.total_usd,
            "by_bucket_usd": dict(attribution.by_bucket),
            "n_vms": len(attribution.vms),
        }
    except ValueError:
        cost = None
    metrics = next(
        (r["data"] for r in records if r.get("type") == "metrics"), {}
    )
    return {
        "ttc_s": root["v1"] - root["v0"] if root else None,
        "pipeline": dict(root["attrs"]) if root else {},
        "stages": stages,
        "categories": categories,
        "hottest_phases": [dict(e["attrs"]) for e in phases[:top]],
        "alerts": [
            dict(e["attrs"]) for e in _events(records) if e["cat"] == "alert"
        ],
        "counters": dict(metrics.get("counters", {})),
        "cost": cost,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a run report from a repro JSONL trace file.",
    )
    parser.add_argument("trace", help="trace file written by obs.export.write_jsonl")
    parser.add_argument("--top", type=int, default=10, help="top-k hottest phases")
    parser.add_argument(
        "--chrome",
        metavar="OUT",
        help="also write a Chrome trace_event JSON to OUT (open in Perfetto)",
    )
    parser.add_argument(
        "--clock",
        choices=("virtual", "real"),
        default="virtual",
        help="timeline for the --chrome export",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of the text one",
    )
    args = parser.parse_args(argv)
    records = load_jsonl(args.trace)
    if args.json:
        print(json.dumps(report_data(records, top=args.top), indent=2, sort_keys=True))
    else:
        print(build_report(records, top=args.top))
    if args.chrome:
        path = write_chrome(records, args.chrome, clock=args.clock)
        if not args.json:  # keep --json stdout parseable
            print(f"\nchrome trace written to {path} (load in Perfetto)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
