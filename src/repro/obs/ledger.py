"""Append-only on-disk run ledger with a regression gate.

One JSON line per pipeline run: config fingerprint, store digest, stage
virtual/real durations, counters, cost rollup, alert rollup, and a
critical-path summary — everything needed to answer "did this change
make the pipeline slower, more expensive, or noisier?" without
re-running history.  CI
appends its smoke run on every build and gates the latest record
against the median of the preceding comparable window, thresholded like
:meth:`repro.obs.diff.TraceDiff.threshold_violations`.

The file is deliberately boring: newline-delimited JSON, append-only,
no index.  A torn final line (the writer died mid-append) is skipped on
read, never a crash, and the next append starts a fresh line after it —
the ledger must survive exactly the failures it exists to document.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .attribution import attribute_costs, planner_violations
from .critpath import compute_critical_path
from .spans import RunState, fold

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
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "ab+") as fh:
            # A writer that died mid-append left a line without its
            # newline: end it, so it stays one skipped line and this
            # record starts a line of its own.
            if fh.tell():
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)
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
    trace_records: Iterable[dict] | RunState, run_id: str | None = None
) -> dict:
    """Distill one run's trace (its last run) into a ledger record.

    Contains no wall-clock timestamp on purpose: identical runs produce
    identical records, which keeps CI ledger artifacts diffable.
    """
    state = fold(trace_records)
    root = state.pipeline
    if root is None:
        raise ValueError("trace has no pipeline span; cannot build a record")
    attrs = root["attrs"]

    planner = None
    if attrs.get("planner_ttc_s") is not None:
        _, gates = planner_violations(state)
        planner = {
            g.name: {
                "predicted": g.predicted,
                "actual": g.actual,
                "rel_err": round(g.rel_err, 6),
            }
            for g in gates
        }

    # None, not 0.0, for a run whose spectrum stage built nothing (a
    # ``spectrum.skip`` event instead of a span): nothing was measured,
    # so the run neither gates on nor feeds the build-time baseline.
    spectrum_build_s = state.spectrum_build_s()

    alerts = {"total": len(state.alerts), "by_severity": {}, "by_rule": {}}
    for alert_event in state.alerts:
        alert_attrs = alert_event.get("attrs", {})
        sev = alert_attrs.get("severity", "warning")
        rule = alert_attrs.get("rule", "?")
        alerts["by_severity"][sev] = alerts["by_severity"].get(sev, 0) + 1
        alerts["by_rule"][rule] = alerts["by_rule"].get(rule, 0) + 1

    return {
        "schema": SCHEMA_VERSION,
        "run_id": run_id,
        "dataset": attrs.get("dataset"),
        "config_fingerprint": attrs.get("config_fingerprint"),
        "store_digest": attrs.get("store_digest"),
        "scheme": attrs.get("scheme"),
        "workflow": attrs.get("workflow"),
        "assemblers": attrs.get("assemblers"),
        "ttc_s": state.ttc(),
        "real_s": round(root["r1"] - root["r0"], 6),
        "spectrum_build_s": (
            None if spectrum_build_s is None else round(spectrum_build_s, 6)
        ),
        "stages": {
            name: {"virtual_s": round(v, 6), "real_s": round(r, 6)}
            for name, (v, r) in state.stage_seconds().items()
        },
        "counters": state.counters,
        "cost": (
            attribute_costs(state).rollup(6)
            if state.billing
            else {"total_usd": 0.0, "by_bucket_usd": {}, "n_vms": 0}
        ),
        "critical_path": compute_critical_path(state).summary(),
        "planner": planner,
        "alerts": alerts,
    }


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


def summary_line(i: int, rec: dict) -> str:
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
