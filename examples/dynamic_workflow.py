"""The dynamically adaptive workflow: avoiding single-node OOM failures.

Large inputs are the paper's core motivation: "avoiding failures due to a
limited resource of a single node".  A paired-end (P. crispa-like) data
set declares a ~40 GB pre-processing footprint; a static workflow pinned
to c3.2xlarge (16 GB) fails, while the dynamic workflow reads the
footprint estimate from the pre-stage plan and provisions r3.2xlarge.

The second half shows the pilot layer's restart machinery directly: a
unit that declares no footprint is placed on the cheaper c3.2xlarge
pilot, hits a measured OOM there, and is restarted by the memory-aware
scheduler on the r3.2xlarge pilot.  Its state history is read back from
the trace.

Run:  python examples/dynamic_workflow.py   (exit 1 if the restart
did not happen exactly once, onto the r3 pilot)
"""

import sys

from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.ec2 import EC2Region
from repro.cloud.instances import GiB
from repro.core.rnnotator import PipelineConfig, PipelineError, RnnotatorPipeline
from repro.core.workflow import WorkflowPattern
from repro.obs import Tracer, use_tracer
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.pilot import (
    PilotDescription,
    PilotManager,
    UnitDescription,
    UnitManager,
)
from repro.seq.datasets import tiny_dataset


def pipeline_level() -> None:
    dataset = tiny_dataset(paired=True, seed=5)
    print(f"paired data set declaring "
          f"{dataset.spec.preprocess_memory_bytes / GiB:.0f} GiB "
          "pre-processing footprint (P. crispa-like)\n")

    try:
        RnnotatorPipeline().run(
            dataset,
            PipelineConfig(
                assemblers=("ray",), kmer_list=(51,),
                workflow=WorkflowPattern.DISTRIBUTED_STATIC,
                instance_type="c3.2xlarge",
            ),
        )
    except PipelineError as exc:
        print(f"static workflow on c3.2xlarge: FAILED\n  -> {exc}\n")

    result = RnnotatorPipeline().run(
        dataset,
        PipelineConfig(
            assemblers=("ray",), kmer_list=(51,),
            workflow=WorkflowPattern.DISTRIBUTED_DYNAMIC,
        ),
    )
    chosen = result.stages[1].instance_type
    print(f"dynamic workflow: SUCCEEDED on {chosen} "
          f"(TTC {result.total_ttc:.0f} s, cost ${result.total_cost:.2f})")


def unit_restart_level() -> bool:
    """Restart-on-OOM; True when the unit restarted once, onto r3."""
    print("\n-- pilot-level restart-on-OOM --")
    clock = SimClock()
    events = EventQueue(clock)
    region = EC2Region(clock)

    def heavy_work():
        usage = ResourceUsage(n_ranks=1)
        usage.add_phase(PhaseUsage("load", "generic", critical_compute=1e6))
        usage.peak_rank_memory_bytes = 40 * GiB  # too big for c3.2xlarge
        return "done", usage

    with use_tracer(Tracer(clock)) as tracer:
        pm = PilotManager(region, events)
        small = pm.launch(pm.submit(PilotDescription("small", "c3.2xlarge", 1)))
        big = pm.launch(pm.submit(PilotDescription("big", "r3.2xlarge", 1)))
        um = UnitManager(events)  # places units by the memory-aware rule
        um.add_pilot(small)
        um.add_pilot(big)
        # No declared memory_bytes: the scheduler cannot know the
        # footprint up front, so only the measured OOM reveals it.
        (unit,) = um.submit_units(
            [UnitDescription(name="big-task", work=heavy_work, cores=8,
                             max_restarts=1)]
        )
        um.run([unit])
    on_r3 = unit.pilot_id == big.pilot_id
    print(f"unit {unit.description.name!r}: state={unit.state.value}, "
          f"ran on pilot {unit.pilot_id} ({'r3' if on_r3 else 'c3'}) "
          f"after {unit.restarts} restarts")
    moves = [
        e.attrs
        for e in tracer.events
        if e.name == "unit.state" and e.thread == unit.unit_id
    ]
    history = [moves[0]["old"]] + [m["new"] for m in moves]
    print("state history:", " -> ".join(history))
    return unit.restarts == 1 and on_r3


if __name__ == "__main__":
    pipeline_level()
    sys.exit(0 if unit_restart_level() else 1)
