"""Observability: trace a pipeline run and render its report.

Runs the quickstart pipeline with a :class:`repro.obs.Tracer` injected,
with virtual-clock-stamped logging on, then writes the trace as
archival JSONL and prints the same report the CLI
(``python -m repro.obs report run.jsonl``) produces from it.

Run:  python examples/tracing_report.py
"""

import logging

from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.obs import Tracer, load_jsonl, logging_setup, write_jsonl
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

    # 3. Export.  The JSONL file is what every `python -m repro.obs`
    #    subcommand reads; each record carries both clocks.
    jsonl = write_jsonl(tracer, "run.jsonl")
    print(f"trace written: {jsonl}\n")

    # 4. The report — identical to `python -m repro.obs report run.jsonl`.
    records = load_jsonl(jsonl)
    print(build_report(records))

    # 5. The trace file and the pipeline agree exactly on the stage TTCs.
    ttcs = stage_ttcs(records)
    if ttcs != {s.name: s.ttc for s in result.stages}:
        raise SystemExit(f"stage TTCs from the trace differ: {ttcs}")
    print("\nper-stage TTCs from the trace match StageReport exactly.")


if __name__ == "__main__":
    main()
