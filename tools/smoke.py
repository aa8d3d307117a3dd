"""Traced smoke pipeline: one small end-to-end run, one JSONL trace.

``PYTHONPATH=src python tools/smoke.py --out trace.jsonl`` runs the tiny
quickstart dataset through the full pilot pipeline on a chosen executor backend
(process by default — the backend whose workloads run out-of-process and
therefore exercise span-context propagation, clock alignment and worker
metric merging) and writes the merged trace.  CI runs this, uploads the
trace as an artifact, and diffs it against the committed baseline with
``python -m repro.obs.diff``; regenerate the baseline with::

    PYTHONPATH=src python tools/smoke.py --resource-cadence 0 \
        --out tests/data/ci_baseline_trace.jsonl

The run sits in a ``use_assembly_cache(None)`` scope so the trace is
identical whether or not the process already ran a pipeline, and the
seed is fixed so every virtual quantity is deterministic.

The chaos knobs turn the same smoke into a checkpoint/resume drill (the
CI chaos job):

* ``--checkpoint-dir DIR`` enables the durable checkpoint store;
* ``--kill-after-stage NAME`` kills the run after that stage (exit 75,
  the sysexits ``EX_TEMPFAIL``) — rerunning with the same checkpoint
  directory resumes bit-identically;
* ``--preempt-at T`` (repeatable) injects a spot reclaim ``T`` virtual
  seconds into the assembly fan-out, with ``--max-unit-restarts`` giving
  units the budget to survive it;
* ``--expect-checkpoint-hits N`` asserts the run replayed at least N
  unit outcomes (resume actually resumed).

The live-telemetry knobs turn it into the monitor/alert drill:

* ``--live-out PATH`` attaches a streaming
  :class:`~repro.obs.live.JsonlStreamSink`, so ``python -m
  repro.obs.monitor PATH --follow`` can watch the run live;
* ``--heartbeat-cadence S`` emits per-inflight-unit heartbeats (and
  enables straggler detection) every S real seconds;
* ``--alert SPEC`` (repeatable) / ``--default-alerts`` arm the SLO
  rules engine; ``--alert-log PATH`` dumps fired alerts as JSONL;
* ``--straggle-unit NAME --straggle-seconds S`` delays matching
  assembly units in *real* time only — virtual TTC/cost untouched —
  so the straggler detector has something to catch;
* ``--expect-alert KIND`` (repeatable) / ``--expect-no-alerts`` turn
  the run into a CI assertion about which alerts fired.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.assembly_cache import use_assembly_cache
from repro.core.rnnotator import (
    STAGE_NAMES,
    FaultPlan,
    PipelineConfig,
    PipelineKilled,
    RnnotatorPipeline,
)
from repro.core.schemes import MatchingScheme
from repro.obs import Tracer
from repro.obs.export import write_jsonl
from repro.obs.live import JsonlStreamSink
from repro.seq.datasets import tiny_dataset

#: Exit code of a deliberately killed run (sysexits.h EX_TEMPFAIL: a
#: rerun may succeed — which is the whole point of the checkpoint).
KILLED_EXIT_CODE = 75


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/smoke.py",
        description="Run a traced smoke pipeline and write its JSONL trace.",
    )
    parser.add_argument("--out", required=True, help="trace output path")
    parser.add_argument(
        "--executor",
        default="process",
        choices=("serial", "thread", "process"),
        help="workload-execution backend (default: process)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="pool size for pool backends"
    )
    parser.add_argument(
        "--resource-cadence",
        type=float,
        default=0.01,
        help="seconds between in-workload RSS/CPU samples (0 = endpoints)",
    )
    parser.add_argument("--seed", type=int, default=1, help="dataset seed")
    parser.add_argument(
        "--kmer-list",
        default="35,41",
        metavar="K,K,...",
        help="comma-separated k values for the assembly fan-out "
        "(straggler detection needs >= 4 units: 3 completed peers "
        "plus the straggler)",
    )
    parser.add_argument(
        "--scheme",
        default="S2",
        choices=[s.value for s in MatchingScheme],
        help="pilot-VM matching scheme (default: S2)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="durable checkpoint store directory (default: off)",
    )
    parser.add_argument(
        "--kill-after-stage",
        default=None,
        choices=STAGE_NAMES,
        help="kill the run after this stage completes (exits "
        f"{KILLED_EXIT_CODE}; rerun with the same --checkpoint-dir "
        "to resume)",
    )
    parser.add_argument(
        "--preempt-at",
        type=float,
        action="append",
        default=[],
        metavar="SECONDS",
        help="inject a spot reclaim this many virtual seconds into the "
        "assembly fan-out (repeatable)",
    )
    parser.add_argument(
        "--max-unit-restarts",
        type=int,
        default=0,
        help="restart budget for assembly units (default: 0)",
    )
    parser.add_argument(
        "--expect-checkpoint-hits",
        type=int,
        default=None,
        metavar="N",
        help="fail unless the run replayed at least N checkpointed units",
    )
    parser.add_argument(
        "--live-out",
        default=None,
        metavar="PATH",
        help="also stream the trace live to this JSONL file "
        "(tail it with python -m repro.obs.monitor PATH --follow)",
    )
    parser.add_argument(
        "--heartbeat-cadence",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="real seconds between in-flight unit heartbeats "
        "(0 = off, the default — heartbeats are nondeterministic and "
        "would churn the CI baseline diff)",
    )
    parser.add_argument(
        "--alert",
        action="append",
        default=[],
        metavar="SPEC",
        help="arm one alert rule, kind[:target][:threshold][:severity] "
        "(repeatable)",
    )
    parser.add_argument(
        "--default-alerts",
        action="store_true",
        help="arm the default rule set (straggler, heartbeat_timeout, "
        "budget_burn)",
    )
    parser.add_argument(
        "--alert-log",
        default=None,
        metavar="PATH",
        help="write fired alerts to this JSONL file (CI artifact)",
    )
    parser.add_argument(
        "--straggle-unit",
        default=None,
        metavar="NAME",
        help="delay assembly units whose name contains NAME "
        "(real time only; virtual quantities unchanged)",
    )
    parser.add_argument(
        "--straggle-seconds",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="real-time delay for --straggle-unit matches",
    )
    parser.add_argument(
        "--expect-alert",
        action="append",
        default=[],
        metavar="KIND",
        help="fail unless an alert of this rule kind fired (repeatable)",
    )
    parser.add_argument(
        "--expect-no-alerts",
        action="store_true",
        help="fail if any alert fired",
    )
    args = parser.parse_args(argv)

    alert_rules = list(args.alert)
    if args.default_alerts:
        alert_rules = ["straggler", "heartbeat_timeout:30", "budget_burn:1.25"] + alert_rules

    tracer = Tracer(
        resource_cadence=args.resource_cadence,
        heartbeat_cadence=args.heartbeat_cadence,
        alert_rules=alert_rules,
    )
    live_sink = None
    if args.live_out is not None:
        live_sink = tracer.add_sink(JsonlStreamSink(args.live_out, tracer=tracer))
    config = PipelineConfig(
        kmer_list=tuple(int(k) for k in args.kmer_list.split(",")),
        executor=args.executor,
        executor_workers=args.workers,
        scheme=MatchingScheme.parse(args.scheme),
        checkpoint_dir=args.checkpoint_dir,
        unit_max_restarts=args.max_unit_restarts,
    )
    faults = FaultPlan(
        abort_after_stage=args.kill_after_stage,
        preempt_at=tuple(args.preempt_at),
        straggle_unit=args.straggle_unit,
        straggle_seconds=args.straggle_seconds,
    )
    pipeline = RnnotatorPipeline(tracer=tracer, faults=faults)
    try:
        with use_assembly_cache(None):
            result = pipeline.run(tiny_dataset(seed=args.seed), config)
    except PipelineKilled as exc:
        if live_sink is not None:
            live_sink.close()
        path = write_jsonl(tracer, args.out)
        print(f"traced smoke killed as requested: {exc} -> {path}")
        return KILLED_EXIT_CODE

    if live_sink is not None:
        live_sink.close()
    path = write_jsonl(tracer, args.out)
    worker_spans = sum(
        1 for s in tracer.spans if s.process.startswith("worker-")
    )
    def counter(name: str) -> int:
        c = tracer.metrics.counters.get(name)
        return int(c.value) if c is not None else 0

    hits = counter("checkpoint_hits")
    chaos = ""
    if args.checkpoint_dir is not None or args.preempt_at:
        stats = result.checkpoint_stats or {}
        chaos = (
            f", checkpoint hits {hits} / puts {stats.get('unit_puts', 0)}"
            f", preemptions {counter('vms_preempted')}"
        )
    print(
        f"traced smoke ok: TTC {result.total_ttc:.0f} s, "
        f"{len(tracer.spans)} spans ({worker_spans} from workers), "
        f"{len(tracer.events)} events{chaos} -> {path}"
    )
    if (
        args.expect_checkpoint_hits is not None
        and hits < args.expect_checkpoint_hits
    ):
        print(
            f"ERROR: expected >= {args.expect_checkpoint_hits} checkpoint "
            f"hits, saw {hits} — the resume did not resume",
            file=sys.stderr,
        )
        return 1

    alerts = pipeline.last_alerts
    if alert_rules:
        by_kind: dict[str, int] = {}
        for alert in alerts:
            by_kind[alert.rule] = by_kind.get(alert.rule, 0) + 1
        summary = (
            ", ".join(f"{k} x{n}" for k, n in sorted(by_kind.items()))
            or "none"
        )
        print(f"alerts fired: {summary}")
    if args.alert_log is not None:
        with open(args.alert_log, "w", encoding="utf-8") as fh:
            for alert in alerts:
                fh.write(json.dumps(alert.to_dict(), sort_keys=True) + "\n")
        print(f"alert log -> {args.alert_log} ({len(alerts)} alert(s))")
    failed = False
    fired_kinds = {alert.rule for alert in alerts}
    for kind in args.expect_alert:
        if kind not in fired_kinds:
            print(
                f"ERROR: expected a '{kind}' alert, none fired "
                f"(fired: {sorted(fired_kinds) or 'none'})",
                file=sys.stderr,
            )
            failed = True
    if args.expect_no_alerts and alerts:
        print(
            f"ERROR: expected a clean run, {len(alerts)} alert(s) fired: "
            + ", ".join(sorted(fired_kinds)),
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
