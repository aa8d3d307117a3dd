"""Observability: trace a pipeline run and render its report.

Runs the quickstart pipeline with a :class:`repro.obs.Tracer` injected,
with virtual-clock-stamped logging on, then writes the trace twice —
archival JSONL and Chrome ``trace_event`` JSON (open the latter in
Perfetto or ``chrome://tracing``) — and prints the same report the CLI
(``python -m repro.obs report run.jsonl``) produces.

Run:  python examples/tracing_report.py
"""

import logging

from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.obs import Tracer, logging_setup, write_chrome, write_jsonl
from repro.obs.report import build_report, stage_ttcs
from repro.seq.datasets import tiny_dataset


def main() -> None:
    # 1. Logging first: every record gets a [v=...s] virtual timestamp
    #    once the pipeline binds its clock to the tracer.
    logging_setup(level=logging.INFO)

    # 2. Run the pipeline with a tracer injected.  The tracer is installed
    #    process-wide for the duration of run(), so every layer records
    #    into it; afterwards the no-op default is restored.
    tracer = Tracer()
    dataset = tiny_dataset(paired=False, seed=42, coverage_boost=4.0)
    result = RnnotatorPipeline(tracer=tracer).run(
        dataset, PipelineConfig(assemblers=("ray",), kmer_list=(35, 41))
    )

    # 3. Export.  The JSONL file is what the report CLI reads; the Chrome
    #    file loads in Perfetto with one process row per pilot/VM pool
    #    and one thread row per unit/VM/job, on the virtual timeline.
    jsonl = write_jsonl(tracer, "run.jsonl")
    chrome = write_chrome(tracer, "run_trace.json")
    print(f"trace written: {jsonl} (report CLI) and {chrome} (Perfetto)\n")

    # 4. The report — identical to `python -m repro.obs report run.jsonl`.
    print(build_report(tracer.records()))

    # 5. The trace and the pipeline agree exactly on the stage TTCs.
    assert stage_ttcs(tracer.records()) == {
        s.name: s.ttc for s in result.stages
    }
    print("\nper-stage TTCs from the trace match StageReport exactly.")


if __name__ == "__main__":
    main()
