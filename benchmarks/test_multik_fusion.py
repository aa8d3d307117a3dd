"""Count-once multi-k fusion speedup on the Fig. 4 multi-k workload.

The measured workload is one multi-k, multi-assembler fan-out over a
deep-coverage read set (the shape behind Fig. 4's per-k Ray runs plus
the Table I assembler sweep), run through the full pilot machinery on
the process backend:

* **unfused path** — every job extracts, canonicalizes, sorts and
  counts its k-mer stream from the shared ReadStore on its own, the way
  PR 6 left it: ``ray_k25``, ``abyss_k25`` and ``velvet_k25`` each
  re-count the identical 25-mer multiset, and every distinct k re-walks
  the same code array.
* **fused path** — :func:`repro.assembly.sweep.build_spectra` performs
  ONE pass over the codes for all k values (smaller k derived by
  masking the largest-k packing), and every workload is served from the
  shared pre-sorted :class:`~repro.assembly.sweep.KmerSpectrum` it is
  handed.

Both paths must produce bit-identical contigs, stats, usage (hence comm
bytes) and virtual TTCs — the fusion is host-side only.  Results land
in ``BENCH_multik.json`` (full tier) / ``BENCH_multik.smoke.json``
(``--smoke``; smaller input, contrail included, relaxed floor).
"""

import json
import time
from pathlib import Path

from repro.assembly.base import AssemblyParams
from repro.assembly.sweep import build_spectra
from repro.assembly.trinity import TRINITY_K
from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.ec2 import EC2Region
from repro.core.assembly_cache import use_assembly_cache
from repro.core.multikmer import AssemblyWorkload
from repro.parallel.executor import ProcessExecutor
from repro.pilot.db import StateStore
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.manager import PilotManager, UnitManager
from repro.pilot.states import UnitState
from repro.seq.datasets import tiny_dataset
from repro.seq.readstore import ReadStore

#: The full-tier workload: three pipeline assemblers at two k values
#: plus the Trinity baseline at its fixed k=25 — seven real assemblies
#: over one store, five of them sharing a spectrum with at least one
#: other job.  (Contrail joins in the smoke tier: its MapReduce rounds
#: dominate its runtime on a small box and would dilute the full-tier
#: wall-clock signal without exercising anything the smoke tier misses.)
JOBS = [(a, k) for a in ("ray", "abyss", "velvet") for k in (25, 31)]
JOBS += [("trinity", TRINITY_K)]
SMOKE_JOBS = JOBS + [("contrail", 25)]
N_RANKS = 4
MIN_SPEEDUP = 2.0
MIN_COUNT = 3
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_multik.json"
SMOKE_RESULT_PATH = RESULT_PATH.with_suffix(".smoke.json")


def _descs(jobs, store, spectra):
    descs = []
    for name, k in jobs:
        want_k = TRINITY_K if name == "trinity" else k
        descs.append(
            UnitDescription(
                name=f"{name}_k{k}",
                work=AssemblyWorkload(
                    assembler_name=name,
                    params=AssemblyParams(
                        k=k, min_count=MIN_COUNT, min_contig_length=100
                    ),
                    n_ranks=N_RANKS,
                    store=store,
                    use_cache=False,
                    spectra=tuple(
                        sp for sp in spectra if sp.k == want_k
                    ),
                ),
                cores=8,
                scale=1.0,
                stage="transcript-assembly",
                tags={"assembler": name, "k": k},
            )
        )
    return descs


def _run_fanout(descs):
    """One fan-out through the full pilot machinery on a fresh pool."""
    clock = SimClock()
    events = EventQueue(clock)
    region = EC2Region(clock)
    db = StateStore(clock)
    pm = PilotManager(region, events, db)
    pilot = pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", len(descs))))
    with ProcessExecutor() as executor:
        um = UnitManager(db, events, executor=executor)
        um.add_pilot(pilot)
        units = um.submit_units(descs)
        um.run(units)
        um.close()
    assert all(u.state is UnitState.DONE for u in units)
    return units, clock.now


def test_multik_fusion_speedup(report_sink, smoke):
    jobs = SMOKE_JOBS if smoke else JOBS
    ds = tiny_dataset(
        paired=False, seed=1, coverage_boost=1.0 if smoke else 20.0
    )
    reads = ds.run.all_reads()
    if smoke:
        reads = reads[:800]
    store = ReadStore.from_reads(reads)
    ks = sorted({TRINITY_K if a == "trinity" else k for a, k in jobs})

    try:
        with use_assembly_cache(None):
            t0 = time.perf_counter()
            base_units, base_vtime = _run_fanout(_descs(jobs, store, ()))
            base_wall = time.perf_counter() - t0

            t0 = time.perf_counter()
            # The one fused pass is part of the fused path's bill.
            spectra = build_spectra(store, ks)
            try:
                fused_units, fused_vtime = _run_fanout(
                    _descs(jobs, store, spectra)
                )
            finally:
                for sp in spectra:
                    sp.close()
            fused_wall = time.perf_counter() - t0
    finally:
        store.close()
    speedup = base_wall / fused_wall

    # -- parity: the fusion must be invisible to every virtual quantity.
    assert base_vtime == fused_vtime  # one virtual TTC, both paths
    for b, f in zip(base_units, fused_units):
        assert b.description.name == f.description.name
        assert b.result.contigs == f.result.contigs
        assert b.result.stats == f.result.stats
        assert b.usage == f.usage
        assert b.usage.comm_bytes == f.usage.comm_bytes
        assert b.ttc == f.ttc

    report_sink.append(
        f"multi-k fusion speedup ({len(jobs)} jobs, ks={ks}, "
        f"{len(reads)} reads): unfused {base_wall:.2f}s vs fused "
        f"{fused_wall:.2f}s ({speedup:.2f}x)"
    )

    record = {
        "workload": {
            "n_reads": len(reads),
            "jobs": [f"{a}_k{k}" for a, k in jobs],
            "ks": ks,
            "n_ranks": N_RANKS,
            "min_count": MIN_COUNT,
            "backend": "process",
            "tier": "smoke" if smoke else "full",
        },
        "unfused_wall_s": round(base_wall, 3),
        "fused_wall_s": round(fused_wall, 3),
        "speedup": round(speedup, 2),
        "min_required_speedup": 1.0 if smoke else MIN_SPEEDUP,
        "virtual_ttc_s": base_vtime,
        "parity": "contigs, stats, usage, comm bytes and virtual TTCs "
        "identical across paths",
    }
    path = SMOKE_RESULT_PATH if smoke else RESULT_PATH
    path.write_text(json.dumps(record, indent=2) + "\n")

    # The smoke tier proves parity and writes the artifact; only the
    # full tier is large enough for a stable wall-clock floor.
    assert speedup >= (0.8 if smoke else MIN_SPEEDUP)
