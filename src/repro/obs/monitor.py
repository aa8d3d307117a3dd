"""Live run monitor: tail a streaming trace, render progress + alerts.

``python -m repro.obs monitor run.jsonl --follow`` tails a trace as the
:class:`~repro.obs.live.JsonlStreamSink` appends it, printing a progress
line whenever the picture changes and a final state block when the
pipeline-root span closes.  The same subcommand on a *finished* trace
(no ``--follow``) renders the identical final state: both are views over
the :class:`~repro.obs.spans.RunState` fold, which reads only records
both formats share (span closes, events) for what the block shows, so
live and post-hoc views agree byte-for-byte.

Progress comes from the ``unit.state`` transition events the pilot layer
always emits; liveness from ``unit.heartbeat``; alerts from the
``alert``-category events the rules engine injects; per-worker occupancy
from the merged ``worker``-category spans; ETA from the
``planner.prediction`` event plus live unit throughput.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.obs.spans import FINAL_STATES, RunState


def progress_line(state: RunState) -> str:
    done, failed, running = state.unit_counts()
    parts = [f"units {done} done / {running} running / {failed} failed"]
    active = [
        f"{unit}:{hb.get('elapsed_r', 0.0):.1f}s"
        for unit, hb in sorted(state.heartbeats.items())
        if any(
            v.state not in FINAL_STATES
            for v in state.units.values()
            if v.name == unit
        )
    ]
    if active:
        parts.append("inflight " + " ".join(active[:4]))
    eta = state.eta_seconds()
    if eta is not None:
        parts.append(f"eta ~{eta:.1f}s")
    if state.alerts:
        parts.append(f"alerts {len(state.alerts)}")
    return " | ".join(parts)


def final_summary(state: RunState) -> str:
    """The deterministic end-state block: identical for a live-tailed
    stream and the same run's archival trace (it reads only records
    both carry)."""
    lines = ["== final state =="]
    if state.pipeline is not None:
        lines.append(
            f"run: {state.pipeline['name']} — COMPLETE  "
            f"(TTC {state.ttc() or 0.0:.1f} virtual s)"
        )
    else:
        lines.append("run: IN PROGRESS (no pipeline-close record)")
    done, failed, running = state.unit_counts()
    counts = f"units: {done} done, {failed} failed"
    if running:
        counts += f", {running} running"
    lines.append(counts)
    progress = state.stage_progress()
    seconds = state.stage_seconds()
    if seconds or progress:
        lines.append(
            f"  {'stage':24s} {'done':>5s} {'fail':>5s} "
            f"{'virtual s':>10s} {'real s':>9s}"
        )
        for stage in sorted(set(seconds) | set(progress)):
            row = progress.get(stage, {})
            virt, real = f"{'-':>10s}", f"{'-':>9s}"
            if stage in seconds:
                virt = f"{seconds[stage][0]:10.1f}"
                real = f"{seconds[stage][1]:9.3f}"
            lines.append(
                f"  {stage:24s} {row.get('done', 0):5d} "
                f"{row.get('failed', 0):5d} {virt} {real}"
            )
    if state.workers:
        lines.append("workers:")
        for name in sorted(state.workers):
            w = state.workers[name]
            lines.append(
                f"  {name:16s} {w['workloads']:3d} workloads  "
                f"busy {w['busy_r']:.3f} s"
            )
    if state.alerts:
        lines.append(f"alerts: {len(state.alerts)}")
        for a in state.alerts:
            attrs = a.get("attrs", {})
            lines.append(
                f"  [{attrs.get('severity', '?'):8s}] "
                f"{attrs.get('rule', '?')}: {attrs.get('message', '')}"
            )
    else:
        lines.append("alerts: none")
    if state.planner:
        line = (
            f"planner: predicted TTC {state.planner.get('ttc_s', 0.0):.1f} s, "
            f"cost ${state.planner.get('cost_usd', 0.0):.2f}"
        )
        if state.billed_usd:
            line += f"; billed ${state.billed_usd:.2f}"
        lines.append(line)
    return "\n".join(lines)


def follow(
    path: Path,
    poll: float = 0.2,
    timeout: float | None = None,
    out=None,
) -> int:
    """Tail ``path`` until the pipeline-root span closes; returns 0 on
    completion, 1 on timeout.  Prints a progress line per change and the
    final-state block at the end.  Only newline-terminated lines are
    parsed (the unterminated tail waits for the next poll); an
    undecodable complete line is corruption and raises ``ValueError``."""
    out = out or sys.stdout
    state = RunState()
    deadline = None if timeout is None else time.monotonic() + timeout
    position = 0
    buffer = ""
    last_line = ""
    while True:
        if path.exists():
            with path.open() as fh:
                fh.seek(position)
                chunk = fh.read()
                position = fh.tell()
            if chunk:
                buffer += chunk
                complete, _, buffer = buffer.rpartition("\n")
                records = [
                    json.loads(t) for t in complete.splitlines() if t.strip()
                ]
                for record in records:
                    state.apply(record)
                if records:
                    line = progress_line(state)
                    if line != last_line:
                        print(line, file=out, flush=True)
                        last_line = line
                if state.complete:
                    print(final_summary(state), file=out, flush=True)
                    return 0
        if deadline is not None and time.monotonic() > deadline:
            print(
                f"timeout: no pipeline completion after {timeout:g}s",
                file=out,
                flush=True,
            )
            print(final_summary(state), file=out, flush=True)
            return 1
        time.sleep(poll)
