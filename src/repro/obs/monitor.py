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

import sys
import time
from pathlib import Path

from repro.obs.export import decode_line, table
from repro.obs.report import ALERT_COLUMNS, alerts_section
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
    run = "run: IN PROGRESS (no pipeline-close record)"
    if state.pipeline is not None:
        run = (f"run: {state.pipeline['name']} — COMPLETE  "
               f"(TTC {state.ttc() or 0.0:.1f} virtual s)")
    done, failed, running = state.unit_counts()
    progress, seconds = state.stage_progress(), state.stage_seconds()
    stages = []
    for stage in sorted(set(seconds) | set(progress)):
        counts = progress.get(stage, {})
        virtual, real = seconds.get(stage, (None, None))
        stages.append({"stage": stage, "done": counts.get("done", 0),
                       "fail": counts.get("failed", 0),
                       "virtual s": virtual, "real s": real})
    lines = [
        "== final state ==",
        run,
        f"units: {done} done, {failed} failed"
        + (f", {running} running" if running else ""),
        table("", {"stage": "", "done": "d", "fail": "d", "virtual s": ".1f",
                   "real s": ".3f"}, stages),
        table("workers:", {"worker": "", "workloads": "d", "busy_r": ".3f"},
              [{"worker": w, **state.workers[w]}
               for w in sorted(state.workers)]),
        table(f"alerts: {len(state.alerts)}", ALERT_COLUMNS,
              alerts_section(state)) or "alerts: none",
    ]
    if state.planner:
        lines.append(
            f"planner: predicted TTC {state.planner.get('ttc_s', 0.0):.1f} s, "
            f"cost ${state.planner.get('cost_usd', 0.0):.2f}"
            + (f"; billed ${state.billed_usd:.2f}" if state.billed_usd else "")
        )
    return "\n".join(line for line in lines if line)


def follow(
    path: Path,
    poll: float = 0.2,
    timeout: float | None = None,
    out=None,
) -> int:
    """Tail ``path`` until the pipeline-root span closes; returns 0 on
    completion, 1 on timeout.  Prints a progress line per change and the
    final-state block at the end.  Only newline-terminated lines are
    parsed (the unterminated tail waits for the next poll); a complete
    line that is not a record is corruption and raises ``ValueError``
    (:func:`~repro.obs.export.decode_line`)."""
    out = out or sys.stdout
    state = RunState()
    deadline = None if timeout is None else time.monotonic() + timeout
    position = seen = 0
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
                complete, newline, buffer = buffer.rpartition("\n")
                batch = complete.split("\n") if newline else []
                records = [
                    decode_line(text, f"{path}:{number}")
                    for number, text in enumerate(batch, seen + 1)
                    if text.strip()
                ]
                seen += len(batch)
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
