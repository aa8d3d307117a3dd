"""Kill/resume on durable checkpoints, and surviving spot preemption.

Part one kills a checkpointed pipeline right after the assembly fan-out
(the simulated analog of losing the submit host to a spot reclaim) and
re-runs it against the same checkpoint directory: the completed units
replay through the regular dispatch path, so the resumed run's contigs,
virtual TTC and cost are bit-identical to an uninterrupted baseline.

Part two injects a spot reclaim one virtual second into the assembly
fan-out under the S3 elastic scheme: the preempted unit fails
*transiently* (no pilot exclusion), the elastic pool replaces the lost
node, the retry succeeds, and the output still matches the baseline.

Run:  python examples/spot_checkpoint_resume.py   (exit 1 unless the
first run was killed, the resumed run replayed at least one unit and is
bit-identical, and the preempted run restarted at least one unit with
identical output)
"""

import sys
import tempfile

from repro.core.rnnotator import (
    FaultPlan,
    PipelineConfig,
    PipelineKilled,
    RnnotatorPipeline,
)
from repro.core.schemes import MatchingScheme
from repro.obs import Tracer
from repro.seq.datasets import tiny_dataset

CONFIG = dict(assemblers=("ray",), kmer_list=(35, 41))


def kill_and_resume(dataset, baseline) -> bool:
    print("-- kill after assembly, resume from checkpoints --")
    killed = False
    with tempfile.TemporaryDirectory() as ckdir:
        try:
            RnnotatorPipeline(
                faults=FaultPlan(abort_after_stage="transcript-assembly")
            ).run(dataset, PipelineConfig(checkpoint_dir=ckdir, **CONFIG))
        except PipelineKilled as exc:
            killed = True
            print(f"first run killed as requested: {exc}")

        resumed = RnnotatorPipeline().run(
            dataset, PipelineConfig(checkpoint_dir=ckdir, **CONFIG)
        )
        stats = resumed.checkpoint_stats
        print(
            f"resumed: {stats['unit_hits']} unit(s) replayed from "
            f"checkpoints, {stats['unit_puts']} new record(s) written"
        )
        identical = (
            [t.seq for t in resumed.transcripts]
            == [t.seq for t in baseline.transcripts]
            and resumed.total_ttc == baseline.total_ttc
            and resumed.total_cost == baseline.total_cost
        )
        print(
            f"bit-identical to uninterrupted run: {identical} "
            f"(TTC {resumed.total_ttc:.0f} s, cost ${resumed.total_cost:.2f})"
        )
    return killed and stats["unit_hits"] >= 1 and identical


def survive_preemption(dataset, baseline) -> bool:
    print("\n-- spot reclaim under the S3 elastic scheme --")
    tracer = Tracer()
    chaos = RnnotatorPipeline(
        tracer=tracer, faults=FaultPlan(preempt_at=(1.0,))
    ).run(
        dataset,
        PipelineConfig(scheme=MatchingScheme.S3, unit_max_restarts=2, **CONFIG),
    )
    counters = tracer.metrics.counters
    restarted = int(counters["units_restarted"].value)
    print(
        f"preemptions {int(counters['vms_preempted'].value)}, "
        f"units preempted {int(counters['units_preempted'].value)}, "
        f"units restarted {restarted}"
    )
    identical = [t.seq for t in chaos.transcripts] == [
        t.seq for t in baseline.transcripts
    ]
    print(f"output identical to calm run: {identical} "
          f"(TTC {chaos.total_ttc:.0f} s)")
    return restarted >= 1 and identical


if __name__ == "__main__":
    dataset = tiny_dataset(seed=1)
    baseline = RnnotatorPipeline().run(dataset, PipelineConfig(**CONFIG))
    print(f"baseline: {len(baseline.transcripts)} transcripts, "
          f"TTC {baseline.total_ttc:.0f} s, cost ${baseline.total_cost:.2f}\n")
    resumed_ok = kill_and_resume(dataset, baseline)
    preempted_ok = survive_preemption(dataset, baseline)
    sys.exit(0 if resumed_ok and preempted_ok else 1)
