"""Workload-execution backends: the same fan-out, three ways.

The paper's sample run submits "the total 6 jobs, corresponding to two
k-mer assemblies for each assembler" concurrently.  The virtual cluster
has always modelled that concurrency; the executor backends make the
*real* Python assemblies exploit it too, spreading the workloads over
the host's cores.

This example runs an identical multi-k, multi-assembler fan-out under
the serial, thread-pool and process-pool backends and prints:

* the virtual TTC (identical across backends, by construction), and
* the real host wall-time (lower on parallel backends when the machine
  has cores to spare — the process pool is the one that beats the GIL
  for pure-Python assembly work).

Run:  python examples/executor_backends.py
"""

import os
import time

from repro.assembly.base import AssemblyParams
from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.ec2 import EC2Region
from repro.core.multikmer import make_assembly_workload
from repro.core.preprocess import preprocess
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.manager import PilotManager, UnitManager
from repro.seq.datasets import tiny_dataset
from repro.seq.readstore import ReadStore

ASSEMBLERS = ("ray", "abyss", "velvet")
KS = (31, 37)


def run_fanout(dataset, store, executor: str):
    clock = SimClock()
    events = EventQueue(clock)
    region = EC2Region(clock)
    pm = PilotManager(region, events)
    pilot = pm.launch(pm.submit(PilotDescription("P_B", "c3.2xlarge", 6)))

    descs = [
        UnitDescription(
            name=f"{name}_k{k}",
            work=make_assembly_workload(
                name, store, AssemblyParams(k=k, min_contig_length=100),
                n_ranks=8, dataset=dataset,
            ),
            cores=8,
            scale=1.0,
            tags={"assembler": name, "k": k},
        )
        for name in ASSEMBLERS
        for k in KS
    ]

    um = UnitManager(events, executor=executor)
    um.add_pilot(pilot)
    units = um.submit_units(descs)
    t0 = time.perf_counter()
    um.run(units)
    wall = time.perf_counter() - t0
    um.close()
    return units, clock.now, wall


def main() -> None:
    dataset = tiny_dataset(paired=False, seed=7)
    store = ReadStore.from_reads(preprocess(dataset.run.all_reads()).reads)
    print(
        f"6-job fan-out ({'+'.join(ASSEMBLERS)} x k={list(KS)}) "
        f"on a {os.cpu_count()}-core host\n"
    )

    baseline = None
    for backend in ("serial", "thread", "process"):
        units, vtime, wall = run_fanout(dataset, store, backend)
        contigs = sum(len(u.result.contigs) for u in units)
        if baseline is None:
            baseline = (vtime, [u.result.contigs for u in units])
        same_vtime = vtime == baseline[0]
        same_contigs = [u.result.contigs for u in units] == baseline[1]
        print(
            f"  {backend:8s} virtual TTC {vtime:8.0f} s "
            f"(identical: {same_vtime})  real {wall:6.2f} s  "
            f"{contigs} contigs (identical: {same_contigs})"
        )

    store.close()  # unlinks the segment the process backend shared
    print(
        "\nVirtual TTC and assembly output never change with the backend; "
        "only the real wall-time does."
    )


if __name__ == "__main__":
    main()
