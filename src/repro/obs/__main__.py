"""``python -m repro.obs <subcommand>``: the trace-analytics CLI.

``report``, ``diff``, ``critpath``, ``attribution``, ``ledger`` and
``monitor`` (DESIGN §10 tabulates their flags) read a trace through one
loader — :func:`~repro.obs.export.load_jsonl` — and print one view of
its :class:`~repro.obs.spans.RunState` fold, as JSON under ``--json``
and otherwise as text.  Exit codes mean the same in every subcommand:
**0** ok; **1** a gate or threshold failed; **2** the input cannot be
gated or read (a missing file, a line that is not a trace record and
not a torn last line, a trace without what the subcommand needs, a
``diff`` whose span structure changed, a usage error).
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
    gate_payload,
    planner_violations,
)
from repro.obs.critpath import compute_critical_path, format_path, slack_rows
from repro.obs.diff import diff_traces
from repro.obs.export import load_jsonl, table
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


def _show(args, payload, text: str) -> None:
    """Print one view: its ``payload`` as JSON under ``--json``, else its
    ``text``."""
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)


def _report(args) -> int:
    state = _fold(args.trace)
    # The text report has sections the JSON leaves out (placement, the
    # swimlanes, the trace digest), so it is built from the fold.
    _show(args, report_data(state, top=args.top),
          build_report(state, top=args.top))
    return 0


def _diff(args) -> int:
    diff = diff_traces(_fold(args.base), _fold(args.other))
    thresholds = diff.threshold_violations(
        v_rel=args.v_rel, metric_rel=args.metric_rel
    )
    structural = [] if args.ignore_structure else diff.structural_violations()
    # Structure (an instrumentation change, not drift) outranks drift.
    code = 2 if structural else 1 if thresholds else 0
    payload = {
        **diff.as_dict(),
        "threshold_violations": thresholds,
        "structural_violations": structural,
        "exit_code": code,
    }
    verdict = (
        f"FAIL: {len(thresholds)} threshold and "
        f"{len(structural)} structural violation(s):"
        if code else "OK: within thresholds"
    )
    _show(args, payload, "\n".join([
        diff.format(top=args.top), "", verdict,
        *(f"  {v}" for v in thresholds + structural),
    ]))
    return code


def _critpath(args) -> int:
    state = _fold(args.trace)
    path = compute_critical_path(state)
    payload = path.as_dict(state.ttc())
    _show(args, payload,
          format_path(payload, slack_rows(state, path), top=args.top))
    # Self-check: the path must account for the whole run.
    return 0 if payload["matches_pipeline_ttc"] else 1


def _attribution(args) -> int:
    state = _fold(args.trace)
    payload = attribute_costs(state).as_dict()
    gate = {"structural": [], "gates": []}
    if args.planner_gate:
        gate = payload["planner_gate"] = gate_payload(*planner_violations(
            state, ttc_rel=args.ttc_rel, cost_rel=args.cost_rel
        ))
    _show(args, payload, format_attribution(payload))
    if gate["structural"]:
        return 2
    return 1 if any(not g["ok"] for g in gate["gates"]) else 0


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
        lines = [summary_line(i, rec) for i, rec in enumerate(records)]
        _show(args, records, "\n".join(lines) or "(empty ledger)")
        return 0
    regressions, note = check_regressions(
        records,
        window=args.window,
        v_rel=args.v_rel,
        cost_rel=args.cost_rel,
        build_rel=args.build_rel,
    )
    payload = {"note": note, "regressions": [asdict(r) for r in regressions]}
    _show(args, payload, table(f"ledger check: {note}\nREGRESSIONS:", {
        "quantity": "", "baseline": ".3f", "latest": ".3f",
        "rel_err": "+.2%", "tolerance": ".0%"}, payload["regressions"])
        or f"ledger check: {note}\n  ok — no regressions")
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
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument("trace", help="JSONL trace file")
    view = argparse.ArgumentParser(add_help=False)
    view.add_argument("--json", action="store_true",
                      help="print the view as JSON")
    top = argparse.ArgumentParser(add_help=False)
    top.add_argument("--top", type=int, default=10, help="rows per table")

    def add(name: str, run, help: str, parents):
        p = sub.add_parser(name, help=help, description=help, parents=parents)
        p.set_defaults(run=run)
        return p

    add("report", _report, "render a run report from a trace",
        (trace, view, top))

    p = add("diff", _diff, "diff two traces (exit 1 when gated drift "
            "exceeds its threshold, 2 when the span structure changed)",
            (view, top))
    p.add_argument("base", help="baseline trace (JSONL)")
    p.add_argument("other", help="trace to compare against the baseline")
    p.add_argument("--v-rel", type=float, default=0.0,
                   help="max relative virtual-time drift per stage and in "
                   "total (default 0: identical-seed traces agree exactly)")
    p.add_argument("--metric-rel", type=float, default=None,
                   help="gate counter/gauge drift at this relative threshold "
                   "(default: report only)")
    p.add_argument("--ignore-structure", action="store_true",
                   help="do not fail on span/event names in only one trace")

    add("critpath", _critpath, "critical-path analysis of a trace",
        (trace, view, top))

    p = add("attribution", _attribution,
            "per-run cost attribution and planner gate", (trace, view))
    p.add_argument("--planner-gate", action="store_true",
                   help="check planner predicted-vs-actual TTC and cost; exit "
                   "1 on a blown tolerance, 2 when the trace cannot be gated")
    p.add_argument("--ttc-rel", type=float, default=0.10,
                   help="relative TTC tolerance for the planner gate")
    p.add_argument("--cost-rel", type=float, default=0.25,
                   help="relative cost tolerance for the planner gate")

    p = add("ledger", _ledger, "append-only pipeline-run ledger", ())
    cmd = p.add_subparsers(dest="cmd", required=True)
    c = cmd.add_parser("append", help="distill a trace and append",
                       parents=[trace])
    c.add_argument("--ledger", required=True)
    c.add_argument("--run-id", default=None)
    c = cmd.add_parser("list", help="one summary line per record",
                       parents=[view])
    c.add_argument("--ledger", required=True)
    c = cmd.add_parser("check", parents=[view],
                       help="gate the latest record vs its baseline window")
    c.add_argument("--ledger", required=True)
    c.add_argument("--window", type=int, default=5)
    c.add_argument("--v-rel", type=float, default=0.05)
    c.add_argument("--cost-rel", type=float, default=0.25)
    c.add_argument("--build-rel", type=float, default=1.0)

    p = add("monitor", _monitor, "watch a repro run live (tail a streaming "
            "JSONL trace) or render the final state of a finished one", ())
    p.add_argument("trace", help="trace file (a JsonlStreamSink stream or an "
                   "archival trace)")
    p.add_argument("--follow", action="store_true",
                   help="tail the file until the pipeline-root span closes")
    p.add_argument("--poll", type=float, default=0.2,
                   help="seconds between tail polls (with --follow)")
    p.add_argument("--timeout", type=float, default=None,
                   help="give up (exit 1) after this many seconds "
                   "(with --follow)")
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
