"""Append-only on-disk run ledger with a regression gate.

One JSON line per pipeline run: config fingerprint, store digest, stage
virtual/real durations, counters, cost rollup, alert rollup, and a
critical-path summary — everything needed to answer "did this change
make the pipeline slower, more expensive, or noisier?" without
re-running history.  CI
appends its smoke run on every build and gates the latest record
against the median of the preceding comparable window, thresholded like
:meth:`repro.obs.diff.TraceDiff.violations`.

The file is deliberately boring: newline-delimited JSON, append-only,
no index.  A torn final line (the writer died mid-append) is skipped on
read, never a crash — the ledger must survive exactly the failures it
exists to document.

CLI::

    python -m repro.obs.ledger append trace.jsonl --ledger runs.jsonl
    python -m repro.obs.ledger list --ledger runs.jsonl
    python -m repro.obs.ledger show --ledger runs.jsonl --index -1
    python -m repro.obs.ledger compare --ledger runs.jsonl -a -2 -b -1
    python -m repro.obs.ledger check --ledger runs.jsonl --v-rel 0.05

Exit codes for ``check``: 0 clean, 1 threshold regression, 2 the ledger
cannot be gated (missing/empty/unreadable).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import dataclass
from typing import Sequence

from .attribution import attribute_costs, planner_violations
from .critpath import compute_critical_path
from .export import load_jsonl
from .spans import metrics_of, pipeline_span, stage_times

SCHEMA_VERSION = 1


@dataclass
class LedgerReadResult:
    """Parsed ledger contents plus how many lines had to be skipped."""

    records: list[dict]
    skipped: int


class RunLedger:
    """Append-only JSONL ledger of pipeline runs."""

    def __init__(self, path: str) -> None:
        self.path = path

    def append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def read(self) -> LedgerReadResult:
        """All parseable records, in append order.

        Undecodable lines — a torn final line from a writer that died
        mid-append, or bit rot anywhere — are skipped and counted, not
        raised: corruption of one record must not take out the history.
        """
        records: list[dict] = []
        skipped = 0
        if not os.path.exists(self.path):
            return LedgerReadResult(records, skipped)
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if isinstance(rec, dict):
                    records.append(rec)
                else:
                    skipped += 1
        return LedgerReadResult(records, skipped)


def build_record(
    trace_records: Sequence[dict], run_id: str | None = None
) -> dict:
    """Distill one run's trace into a ledger record.

    Contains no wall-clock timestamp on purpose: identical runs produce
    identical records, which keeps CI ledger artifacts diffable.
    """
    root = pipeline_span(trace_records)
    if root is None:
        raise ValueError("trace has no pipeline span; cannot build a record")
    attrs = root["attrs"]
    path = compute_critical_path(trace_records)

    stages = {
        name: {"virtual_s": round(v, 6), "real_s": round(r, 6)}
        for name, (v, r) in stage_times(trace_records).items()
    }
    try:
        cost = attribute_costs(trace_records)
        cost_rollup = {
            "total_usd": round(cost.total_usd, 6),
            "by_bucket_usd": {
                k: round(v, 6) for k, v in cost.by_bucket.items()
            },
            "n_vms": len(cost.vms),
        }
    except ValueError:
        cost_rollup = {"total_usd": 0.0, "by_bucket_usd": {}, "n_vms": 0}

    planner = None
    if attrs.get("planner_ttc_s") is not None:
        _, gates = planner_violations(trace_records)
        planner = {
            g.name: {
                "predicted": g.predicted,
                "actual": g.actual,
                "rel_err": round(g.rel_err, 6),
            }
            for g in gates
        }

    spectrum_spans = [
        s
        for s in trace_records
        if s.get("type") == "span" and s.get("name") == "spectrum.build"
    ]
    # None, not 0.0, for a run whose spectrum stage built nothing (a
    # ``spectrum.skip`` event instead of a span): nothing was measured,
    # so the run neither gates on nor feeds the build-time baseline.
    spectrum_build_s = (
        round(sum(s["r1"] - s["r0"] for s in spectrum_spans), 6)
        if spectrum_spans
        else None
    )

    alert_events = [
        r
        for r in trace_records
        if r.get("type") == "event" and r.get("cat") == "alert"
    ]
    alerts = {
        "total": len(alert_events),
        "by_severity": {},
        "by_rule": {},
    }
    for alert_event in alert_events:
        alert_attrs = alert_event.get("attrs", {})
        sev = alert_attrs.get("severity", "warning")
        rule = alert_attrs.get("rule", "?")
        alerts["by_severity"][sev] = alerts["by_severity"].get(sev, 0) + 1
        alerts["by_rule"][rule] = alerts["by_rule"].get(rule, 0) + 1

    counters = metrics_of(trace_records).get("counters", {})
    record = {
        "schema": SCHEMA_VERSION,
        "run_id": run_id,
        "dataset": attrs.get("dataset"),
        "config_fingerprint": attrs.get("config_fingerprint"),
        "store_digest": attrs.get("store_digest"),
        "scheme": attrs.get("scheme"),
        "workflow": attrs.get("workflow"),
        "assemblers": attrs.get("assemblers"),
        "ttc_s": root["v1"] - root["v0"],
        "real_s": round(root["r1"] - root["r0"], 6),
        "spectrum_build_s": spectrum_build_s,
        "stages": stages,
        "counters": counters,
        "cost": cost_rollup,
        "critical_path": path.summary(),
        "planner": planner,
        "alerts": alerts,
    }
    return record


def _comparable(a: dict, b: dict) -> bool:
    return (
        a.get("dataset") == b.get("dataset")
        and a.get("config_fingerprint") == b.get("config_fingerprint")
    )


@dataclass(frozen=True)
class Regression:
    """One blown threshold in the latest run vs its baseline window."""

    quantity: str
    baseline: float
    latest: float
    rel_err: float
    tolerance: float

    def describe(self) -> str:
        return (
            f"{self.quantity}: baseline {self.baseline:.3f} -> "
            f"latest {self.latest:.3f} "
            f"({self.rel_err:+.2%}, tol {self.tolerance:.0%})"
        )


def check_regressions(
    records: Sequence[dict],
    window: int = 5,
    v_rel: float = 0.05,
    cost_rel: float = 0.25,
    build_rel: float = 1.0,
) -> tuple[list[Regression], str]:
    """Gate the latest record against the median of its baseline window.

    The baseline is the median over up to ``window`` immediately
    preceding records with the same dataset + config fingerprint —
    median, not mean, so one historic outlier cannot shift the gate.
    Returns ``(regressions, note)``; an empty baseline is a note, not a
    failure (a fresh ledger must not fail CI).  ``build_rel`` gates the
    host-side ``spectrum_build_s`` — real wall seconds on shared CI
    hosts, hence the deliberately loose default (a 2x blowup fails, run
    jitter does not).  Runs that skipped the build record ``None`` there:
    a skipped latest is not gated, and skipped baseline records stay out
    of the median.
    """
    if not records:
        raise ValueError("ledger is empty; nothing to check")
    latest = records[-1]
    baseline_pool = [
        r for r in records[:-1] if _comparable(r, latest)
    ][-window:]
    if not baseline_pool:
        return [], (
            "no comparable baseline records "
            "(first run at this dataset/config) — nothing to gate"
        )

    def median_of(get) -> float | None:
        vals = [v for v in (get(r) for r in baseline_pool) if v is not None]
        return statistics.median(vals) if vals else None

    regressions: list[Regression] = []

    def gate(quantity: str, baseline, latest_v, tol: float) -> None:
        if baseline is None or latest_v is None:
            return
        if baseline == 0:
            if latest_v != 0:
                regressions.append(
                    Regression(quantity, baseline, latest_v, 1.0, tol)
                )
            return
        rel = (latest_v - baseline) / baseline
        # One-sided: only slower/more expensive is a regression.
        if rel > tol:
            regressions.append(
                Regression(quantity, baseline, latest_v, rel, tol)
            )

    gate(
        "ttc_s",
        median_of(lambda r: r.get("ttc_s")),
        latest.get("ttc_s"),
        v_rel,
    )
    gate(
        "cost.total_usd",
        median_of(lambda r: r.get("cost", {}).get("total_usd")),
        latest.get("cost", {}).get("total_usd"),
        cost_rel,
    )
    gate(
        "spectrum_build_s",
        median_of(lambda r: r.get("spectrum_build_s")),
        latest.get("spectrum_build_s"),
        build_rel,
    )
    for stage in latest.get("stages", {}):
        gate(
            f"stages.{stage}.virtual_s",
            median_of(
                lambda r, s=stage: r.get("stages", {})
                .get(s, {})
                .get("virtual_s")
            ),
            latest["stages"][stage].get("virtual_s"),
            v_rel,
        )
    # Alert regressions gate at zero tolerance: any severity firing more
    # often than its baseline median is a regression (records predating
    # the alert engine count as zero — alerts are opt-in, so a sudden
    # first firing at an established dataset/config is exactly the
    # signal this gate exists for).
    for severity in ("critical", "warning", "info"):
        gate(
            f"alerts.{severity}",
            median_of(
                lambda r, s=severity: (r.get("alerts") or {})
                .get("by_severity", {})
                .get(s, 0)
            ),
            (latest.get("alerts") or {})
            .get("by_severity", {})
            .get(severity, 0),
            0.0,
        )
    note = (
        f"gated against the median of {len(baseline_pool)} "
        f"comparable baseline record(s)"
    )
    return regressions, note


def _resolve_index(n: int, index: int) -> int:
    i = index if index >= 0 else n + index
    if not 0 <= i < n:
        raise IndexError(f"record index {index} out of range (n={n})")
    return i


def _summary_line(i: int, rec: dict) -> str:
    planner = rec.get("planner") or {}
    ttc_err = planner.get("ttc_s", {}).get("rel_err")
    return (
        f"[{i}] {rec.get('dataset')}"
        f" cfg={str(rec.get('config_fingerprint'))[:8]}"
        f" ttc={rec.get('ttc_s', 0.0):.1f}s"
        f" cost=${rec.get('cost', {}).get('total_usd', 0.0):.2f}"
        + (
            f" planner-err={ttc_err:.2%}"
            if ttc_err is not None
            else ""
        )
        + (
            f" alerts={(rec.get('alerts') or {}).get('total')}"
            if (rec.get("alerts") or {}).get("total")
            else ""
        )
        + (f" run_id={rec['run_id']}" if rec.get("run_id") else "")
    )


def compare_records(a: dict, b: dict) -> str:
    lines = ["== ledger compare =="]
    if not _comparable(a, b):
        lines.append(
            "note: records differ in dataset/config fingerprint — "
            "deltas below cross configurations"
        )

    def delta(name: str, va, vb) -> None:
        if va is None or vb is None:
            return
        rel = f" ({(vb - va) / va:+.2%})" if va else ""
        lines.append(f"  {name:<32} {va:>12.3f} -> {vb:>12.3f}{rel}")

    delta("ttc_s", a.get("ttc_s"), b.get("ttc_s"))
    delta(
        "spectrum_build_s",
        a.get("spectrum_build_s"),
        b.get("spectrum_build_s"),
    )
    delta(
        "cost.total_usd",
        a.get("cost", {}).get("total_usd"),
        b.get("cost", {}).get("total_usd"),
    )
    for stage in sorted(
        set(a.get("stages", {})) | set(b.get("stages", {}))
    ):
        delta(
            f"stages.{stage}.virtual_s",
            a.get("stages", {}).get(stage, {}).get("virtual_s"),
            b.get("stages", {}).get(stage, {}).get("virtual_s"),
        )
    ca, cb = a.get("counters", {}), b.get("counters", {})
    changed = {
        k for k in set(ca) | set(cb) if ca.get(k, 0) != cb.get(k, 0)
    }
    for k in sorted(changed):
        lines.append(
            f"  counters.{k:<23} {ca.get(k, 0):>12} -> {cb.get(k, 0):>12}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.ledger",
        description="Append-only pipeline-run ledger.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_append = sub.add_parser("append", help="distill a trace and append")
    p_append.add_argument("trace", help="JSONL trace file")
    p_append.add_argument("--ledger", required=True)
    p_append.add_argument("--run-id", default=None)

    p_list = sub.add_parser("list", help="one summary line per record")
    p_list.add_argument("--ledger", required=True)
    p_list.add_argument("--json", action="store_true")

    p_show = sub.add_parser("show", help="dump one record")
    p_show.add_argument("--ledger", required=True)
    p_show.add_argument(
        "--index", type=int, default=-1, help="record index (negatives ok)"
    )

    p_cmp = sub.add_parser("compare", help="delta two records")
    p_cmp.add_argument("--ledger", required=True)
    p_cmp.add_argument("-a", type=int, default=-2, help="baseline index")
    p_cmp.add_argument("-b", type=int, default=-1, help="candidate index")

    p_check = sub.add_parser(
        "check", help="gate the latest record vs its baseline window"
    )
    p_check.add_argument("--ledger", required=True)
    p_check.add_argument("--window", type=int, default=5)
    p_check.add_argument("--v-rel", type=float, default=0.05)
    p_check.add_argument("--cost-rel", type=float, default=0.25)
    p_check.add_argument("--build-rel", type=float, default=1.0)
    p_check.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    ledger = RunLedger(args.ledger)

    if args.cmd == "append":
        trace = load_jsonl(args.trace)
        try:
            record = build_record(trace, run_id=args.run_id)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ledger.append(record)
        result = ledger.read()
        print(_summary_line(len(result.records) - 1, record))
        return 0

    result = ledger.read()
    if result.skipped:
        print(
            f"note: skipped {result.skipped} unparseable ledger line(s)",
            file=sys.stderr,
        )

    if args.cmd == "list":
        if args.json:
            print(json.dumps(result.records, indent=2, sort_keys=True))
        else:
            if not result.records:
                print("(empty ledger)")
            for i, rec in enumerate(result.records):
                print(_summary_line(i, rec))
        return 0

    if args.cmd == "show":
        try:
            i = _resolve_index(len(result.records), args.index)
        except IndexError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result.records[i], indent=2, sort_keys=True))
        return 0

    if args.cmd == "compare":
        try:
            ia = _resolve_index(len(result.records), args.a)
            ib = _resolve_index(len(result.records), args.b)
        except IndexError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(compare_records(result.records[ia], result.records[ib]))
        return 0

    # check
    try:
        regressions, note = check_regressions(
            result.records,
            window=args.window,
            v_rel=args.v_rel,
            cost_rel=args.cost_rel,
            build_rel=args.build_rel,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "note": note,
                    "regressions": [
                        {
                            "quantity": r.quantity,
                            "baseline": r.baseline,
                            "latest": r.latest,
                            "rel_err": r.rel_err,
                            "tolerance": r.tolerance,
                        }
                        for r in regressions
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"ledger check: {note}")
        for r in regressions:
            print(f"  REGRESSION: {r.describe()}")
        if not regressions:
            print("  ok — no regressions")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
