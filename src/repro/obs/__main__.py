"""``python -m repro.obs <subcommand>``: the trace-analytics CLI.

``report``, ``diff``, ``critpath``, ``attribution``, ``ledger`` and
``monitor`` (DESIGN §10 tabulates their flags) read a trace through one
loader — :func:`~repro.obs.export.load_jsonl`, which skips a torn last
line — and render one view of its :class:`~repro.obs.spans.RunState`
fold.  Exit codes mean the same in every subcommand: **0** ok; **1** a
gate or threshold failed; **2** the input cannot be gated or read (a
missing file, an undecodable line that is not the last, a trace
without what the subcommand needs, a ``diff`` whose span structure
changed, a usage error).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from repro.obs.attribution import (
    attribute_costs,
    format_attribution,
    format_gate,
    planner_violations,
)
from repro.obs.critpath import (
    EPS,
    compute_critical_path,
    format_path,
    format_slack,
)
from repro.obs.diff import diff_traces
from repro.obs.export import load_jsonl
from repro.obs.ledger import (
    RunLedger,
    build_record,
    check_regressions,
    summary_line,
)
from repro.obs.monitor import final_summary, follow
from repro.obs.report import build_report, report_data
from repro.obs.spans import RunState, replay


def _fold(path: str) -> RunState:
    """The one trace loader."""
    if not Path(path).is_file():
        raise ValueError(f"no such trace: {path}")
    return replay(load_jsonl(path))


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _report(args) -> int:
    state = _fold(args.trace)
    if args.json:
        _print_json(report_data(state, top=args.top))
    else:
        print(build_report(state, top=args.top))
    return 0


def _diff(args) -> int:
    diff = diff_traces(_fold(args.base), _fold(args.other))
    thresholds = diff.threshold_violations(
        v_rel=args.v_rel, metric_rel=args.metric_rel
    )
    structural = [] if args.ignore_structure else diff.structural_violations()
    # Structure (an instrumentation change, not drift) outranks drift.
    code = 2 if structural else 1 if thresholds else 0
    if args.json:
        _print_json(
            {
                **diff.as_dict(),
                "threshold_violations": thresholds,
                "structural_violations": structural,
                "exit_code": code,
            }
        )
        return code
    print(diff.format(top=args.top))
    if code:
        print(
            f"\nFAIL: {len(thresholds)} threshold and "
            f"{len(structural)} structural violation(s):"
        )
        for v in thresholds + structural:
            print(f"  {v}")
    else:
        print("\nOK: within thresholds")
    return code


def _critpath(args) -> int:
    state = _fold(args.trace)
    path = compute_critical_path(state)
    # Self-check: the path must account for the whole run.
    ttc = state.ttc()
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
        _print_json(payload)
        return 0 if ok else 1
    print(format_path(path, top=args.top))
    print()
    print(format_slack(state, path, top=args.top))
    if ttc is not None:
        verdict = "matches" if ok else "DOES NOT MATCH"
        print()
        print(
            f"path total {path.total:.6f}s {verdict} "
            f"pipeline TTC {ttc:.6f}s"
        )
    return 0 if ok else 1


def _attribution(args) -> int:
    state = _fold(args.trace)
    attr = attribute_costs(state)
    structural, gates = (
        planner_violations(state, ttc_rel=args.ttc_rel, cost_rel=args.cost_rel)
        if args.planner_gate
        else ([], [])
    )
    if args.json:
        payload = attr.as_dict()
        if args.planner_gate:
            payload["planner_gate"] = {
                "structural": structural,
                "gates": [{**asdict(g), "ok": g.ok} for g in gates],
            }
        _print_json(payload)
    else:
        print(format_attribution(attr))
        if args.planner_gate:
            print()
            print(format_gate(structural, gates))
    if structural:
        return 2
    return 1 if any(not g.ok for g in gates) else 0


def _ledger(args) -> int:
    ledger = RunLedger(args.ledger)
    if args.cmd == "append":
        record = build_record(_fold(args.trace), run_id=args.run_id)
        ledger.append(record)
        print(summary_line(len(ledger.read().records) - 1, record))
        return 0
    result = ledger.read()
    if result.skipped:
        print(
            f"note: skipped {result.skipped} unparseable ledger line(s)",
            file=sys.stderr,
        )
    records = result.records
    if args.cmd == "list":
        if args.json:
            _print_json(records)
            return 0
        if not records:
            print("(empty ledger)")
        for i, rec in enumerate(records):
            print(summary_line(i, rec))
        return 0
    regressions, note = check_regressions(
        records,
        window=args.window,
        v_rel=args.v_rel,
        cost_rel=args.cost_rel,
        build_rel=args.build_rel,
    )
    if args.json:
        _print_json(
            {"note": note, "regressions": [asdict(r) for r in regressions]}
        )
    else:
        print(f"ledger check: {note}")
        for r in regressions:
            print(f"  REGRESSION: {r.describe()}")
        if not regressions:
            print("  ok — no regressions")
    return 1 if regressions else 0


def _monitor(args) -> int:
    if args.follow:
        return follow(Path(args.trace), poll=args.poll, timeout=args.timeout)
    print(final_summary(_fold(args.trace)))
    return 0


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace analytics over repro JSONL traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "report", help="render a run report from a trace",
        description="Render a run report from a repro JSONL trace file.",
    )
    p.set_defaults(run=_report)
    p.add_argument("trace", help="trace file written by obs.export.write_jsonl")
    p.add_argument("--top", type=int, default=10, help="top-k hottest phases")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of the text one",
    )

    p = sub.add_parser(
        "diff", help="diff two traces",
        description="Diff two repro JSONL trace files "
        "(exit 1 when gated drift exceeds its threshold).",
    )
    p.set_defaults(run=_diff)
    p.add_argument("base", help="baseline trace (JSONL)")
    p.add_argument("other", help="trace to compare against the baseline")
    p.add_argument(
        "--v-rel",
        type=float,
        default=0.0,
        help="max relative virtual-time drift per stage and in total "
        "(default 0: identical-seed traces must agree exactly)",
    )
    p.add_argument(
        "--metric-rel",
        type=float,
        default=None,
        help="gate counter/gauge drift at this relative threshold "
        "(default: report only)",
    )
    p.add_argument(
        "--ignore-structure",
        action="store_true",
        help="do not fail on span/event names present in only one trace",
    )
    p.add_argument("--top", type=int, default=10, help="rows per report section")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison as one JSON object (machine-readable)",
    )

    p = sub.add_parser(
        "critpath", help="critical-path analysis of a trace",
        description="Critical-path analysis of a JSONL trace.",
    )
    p.set_defaults(run=_critpath)
    p.add_argument("trace", help="JSONL trace file")
    p.add_argument("--top", type=int, default=10, help="rows in rollup tables")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser(
        "attribution", help="per-run cost attribution and planner gate",
        description="Per-run dollar/node-second attribution from a trace.",
    )
    p.set_defaults(run=_attribution)
    p.add_argument("trace", help="JSONL trace file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--planner-gate",
        action="store_true",
        help=(
            "check planner predicted-vs-actual TTC and cost; exit 1 on a "
            "blown tolerance, 2 when the trace cannot be gated"
        ),
    )
    p.add_argument(
        "--ttc-rel",
        type=float,
        default=0.10,
        help="relative TTC tolerance for the planner gate",
    )
    p.add_argument(
        "--cost-rel",
        type=float,
        default=0.25,
        help="relative cost tolerance for the planner gate",
    )

    p = sub.add_parser(
        "ledger", help="append-only pipeline-run ledger",
        description="Append-only pipeline-run ledger.",
    )
    p.set_defaults(run=_ledger)
    cmd = p.add_subparsers(dest="cmd", required=True)
    c = cmd.add_parser("append", help="distill a trace and append")
    c.add_argument("trace", help="JSONL trace file")
    c.add_argument("--ledger", required=True)
    c.add_argument("--run-id", default=None)
    c = cmd.add_parser("list", help="one summary line per record")
    c.add_argument("--ledger", required=True)
    c.add_argument("--json", action="store_true")
    c = cmd.add_parser(
        "check", help="gate the latest record vs its baseline window"
    )
    c.add_argument("--ledger", required=True)
    c.add_argument("--window", type=int, default=5)
    c.add_argument("--v-rel", type=float, default=0.05)
    c.add_argument("--cost-rel", type=float, default=0.25)
    c.add_argument("--build-rel", type=float, default=1.0)
    c.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "monitor", help="watch a run live or render its final state",
        description=(
            "Watch a repro run live (tail a streaming JSONL trace) or "
            "render the final state of a finished one."
        ),
    )
    p.set_defaults(run=_monitor)
    p.add_argument(
        "trace",
        help="trace file (a JsonlStreamSink stream or an archival trace)",
    )
    p.add_argument(
        "--follow",
        action="store_true",
        help="tail the file until the pipeline-root span closes",
    )
    p.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="seconds between tail polls (with --follow)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up (exit 1) after this many seconds (with --follow)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
