"""Spectrum-construction speedup over the PR-7 build, with fan-out parity.

The measured quantity is the wall time of :func:`repro.assembly.sweep.
build_spectra` on the Fig. 4 multi-k workload's k set against a *pinned*
reimplementation of the previous build algorithm (``_pr7_build_spectra``
below — the allocating per-iteration packing loop plus the
``return_index`` ``np.unique`` call and its ``rows[first]`` gather).  The
optimizations under test are single-threaded and algorithmic, so the
floor holds on a one-core runner:

* the kmax packing loop runs strictly in place on one pre-upcast uint64
  array (no per-iteration temporaries);
* the distinct rows are reconstructed from the sorted unique *keys*
  (``keys_to_packed`` is an exact inverse), skipping the extra argsort
  ``return_index`` forces and the first-occurrence gather;
* ``from_rows`` keeps already-contiguous arrays and int64 inputs as-is.

The sharded pool build (``n_shards`` workers over read-range shards,
radix-bucket merge) is timed informationally — on a single-core host the
pickle + merge overhead can exceed the fork-level parallel win, and its
value there is provisioning *overlap*, not raw build speed.

Parity: two full pilot fan-outs of the 7-job Fig. 4 MAMP workload — one
served from the pinned-baseline spectra, one from the new build — must
produce bit-identical contigs, stats, usage and virtual TTCs, and the
sharded spectra must equal the serial ones array-for-array.  Results
land in ``BENCH_spectra.json`` (full tier) / ``BENCH_spectra.smoke.json``
(``--smoke``; smaller input, relaxed floor).
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.assembly import packed as packedmod
from repro.assembly.base import AssemblyParams
from repro.assembly.sweep import KmerSpectrum, build_spectra
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
from repro.seq import alphabet
from repro.seq.datasets import tiny_dataset
from repro.seq.readstore import ReadStore

#: The Fig. 4 MAMP shape: three pipeline assemblers at two k values
#: plus the Trinity baseline at its fixed k.
JOBS = [(a, k) for a in ("ray", "abyss", "velvet") for k in (25, 31)]
JOBS += [("trinity", TRINITY_K)]
N_RANKS = 4
MIN_COUNT = 3
MIN_SPEEDUP = 1.5
BUILD_REPS = 3
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_spectra.json"
SMOKE_RESULT_PATH = RESULT_PATH.with_suffix(".smoke.json")


# ---------------------------------------------------------------------------
# Pinned PR-7 build algorithm (the baseline under comparison).  This is a
# frozen copy of the previous fused extraction + from_rows code path; it
# must NOT be "fixed" to track src/ — it exists so the speedup is measured
# against a stable reference.
# ---------------------------------------------------------------------------


def _pr7_fused_positions(codes, ks):
    codes = np.asarray(codes, dtype=np.uint8)
    ks = sorted({int(k) for k in ks})
    U = np.uint64
    ones = U(0xFFFFFFFFFFFFFFFF)
    T = codes.shape[0]
    kmax = ks[-1]
    nbad = np.zeros(T + 1, dtype=np.int64)
    if T:
        nbad[1:] = np.cumsum(codes >= alphabet.N, dtype=np.int64)
    san = codes & np.uint8(3)
    n_main = max(T - kmax + 1, 0)
    W = packedmod.words_for(kmax)
    main0 = np.zeros(n_main, dtype=U)
    main1 = np.zeros(n_main, dtype=U) if W == 2 else None
    if n_main:
        k0 = min(kmax, 32)
        w = np.zeros(n_main, dtype=U)
        for i in range(k0):
            # The pinned loop: one fresh temporary per iteration for the
            # shift, the upcast and the or — the allocation traffic the
            # new in-place loop removes.
            w = (w << U(2)) | san[i : i + n_main].astype(U)
        main0 = w << U(2 * (32 - k0))
        if W == 2:
            w = np.zeros(n_main, dtype=U)
            for i in range(32, kmax):
                w = (w << U(2)) | san[i : i + n_main].astype(U)
            main1 = w << U(128 - 2 * kmax)
    out = {}
    for k in ks:
        Wk = packedmod.words_for(k)
        n_k = max(T - k + 1, 0)
        if n_k == 0:
            out[k] = (np.zeros((0, Wk), dtype=U), np.zeros(0, dtype=np.int64))
            continue
        valid = nbad[k : k + n_k] - nbad[:n_k] == 0
        pos = np.flatnonzero(valid).astype(np.int64)
        main_sel = pos[pos < n_main]
        tail_sel = pos[pos >= n_main]
        rows = np.empty((pos.shape[0], Wk), dtype=U)
        nm = main_sel.shape[0]
        if Wk == 1:
            rows[:nm, 0] = main0[main_sel] & (ones << U(64 - 2 * k))
        else:
            rows[:nm, 0] = main0[main_sel]
            rows[:nm, 1] = main1[main_sel] & (ones << U(128 - 2 * k))
        if tail_sel.shape[0]:
            wins = np.lib.stride_tricks.sliding_window_view(san, k)[tail_sel]
            rows[nm:] = packedmod.pack(wins)
        out[k] = (packedmod.canonicalize(rows, k), pos)
    return out


def _pr7_spectrum_from_rows(store, k, rows, positions):
    key_arr = packedmod.keys(rows, k)
    _, first, inverse, counts = np.unique(
        key_arr, return_index=True, return_inverse=True, return_counts=True
    )
    distinct = np.ascontiguousarray(rows[first])
    offsets = store.offsets
    read_of = np.searchsorted(offsets, positions, side="right") - 1
    per_read = np.bincount(read_of, minlength=store.n_reads)
    read_offsets = np.zeros(store.n_reads + 1, dtype=np.int64)
    np.cumsum(per_read, out=read_offsets[1:])
    rel_positions = positions - offsets[read_of]
    spectrum = KmerSpectrum(
        k=k,
        store_digest=store.digest,
        distinct=distinct,
        counts=counts.astype(np.int64),
        inverse=inverse.astype(np.int64).ravel(),
        read_offsets=read_offsets,
        rel_positions=rel_positions.astype(np.int64),
    )
    for arr in (
        spectrum._distinct,
        spectrum._counts,
        spectrum._inverse,
        spectrum._read_offsets,
        spectrum._rel_positions,
    ):
        arr.flags.writeable = False
    return spectrum


def _pr7_build_spectra(store, ks):
    ks = tuple(sorted({int(k) for k in ks}))
    fused = _pr7_fused_positions(store.codes, ks)
    return tuple(_pr7_spectrum_from_rows(store, k, *fused[k]) for k in ks)


# ---------------------------------------------------------------------------


def _descs(jobs, store, spectra):
    by_k = {sp.k: sp for sp in spectra}
    descs = []
    for name, k in jobs:
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
                    spectrum=by_k[TRINITY_K if name == "trinity" else k],
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


def _time_build(builder, reps):
    """min-of-reps wall time; the last rep's spectra are returned."""
    best = float("inf")
    spectra = None
    for _ in range(reps):
        if spectra is not None:
            for sp in spectra:
                sp.close()
        t0 = time.perf_counter()
        spectra = builder()
        best = min(best, time.perf_counter() - t0)
    return best, spectra


def _assert_spectra_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.k == w.k
        np.testing.assert_array_equal(g.distinct, w.distinct)
        np.testing.assert_array_equal(g.counts, w.counts)
        np.testing.assert_array_equal(g.inverse, w.inverse)
        np.testing.assert_array_equal(g.read_offsets, w.read_offsets)
        np.testing.assert_array_equal(g.rel_positions, w.rel_positions)


def test_spectra_build_speedup(report_sink, smoke):
    ds = tiny_dataset(paired=False, seed=1, coverage_boost=1.0 if smoke else 20.0)
    reads = ds.run.all_reads()
    if smoke:
        reads = reads[:800]
    store = ReadStore.from_reads(reads)
    ks = sorted({TRINITY_K if a == "trinity" else k for a, k in JOBS})

    try:
        base_s, base_spectra = _time_build(
            lambda: _pr7_build_spectra(store, ks), BUILD_REPS
        )
        serial_s, serial_spectra = _time_build(
            lambda: build_spectra(store, ks), BUILD_REPS
        )
        # Sharded pool build: informational timing, gated only on parity.
        t0 = time.perf_counter()
        with ProcessExecutor(max_workers=2) as ex:
            sharded_spectra = build_spectra(store, ks, executor=ex)
        sharded_s = time.perf_counter() - t0

        _assert_spectra_equal(serial_spectra, base_spectra)
        _assert_spectra_equal(sharded_spectra, base_spectra)
        for sp in sharded_spectra:
            sp.close()

        # -- fan-out parity: the faster build must be invisible to every
        # virtual quantity of the Fig. 4 MAMP workload.
        with use_assembly_cache(None):
            base_units, base_vtime = _run_fanout(_descs(JOBS, store, base_spectra))
            new_units, new_vtime = _run_fanout(_descs(JOBS, store, serial_spectra))
        assert base_vtime == new_vtime
        for b, f in zip(base_units, new_units):
            assert b.description.name == f.description.name
            assert b.result.contigs == f.result.contigs
            assert b.result.stats == f.result.stats
            assert b.usage == f.usage
            assert b.ttc == f.ttc
        for sp in base_spectra:
            sp.close()
        for sp in serial_spectra:
            sp.close()
    finally:
        store.close()

    speedup = base_s / serial_s
    report_sink.append(
        f"spectrum build ({len(reads)} reads, ks={ks}): pinned PR-7 "
        f"{base_s:.3f}s vs serial {serial_s:.3f}s ({speedup:.2f}x), "
        f"sharded(2) {sharded_s:.3f}s"
    )

    record = {
        "workload": {
            "n_reads": len(reads),
            "jobs": [f"{a}_k{k}" for a, k in JOBS],
            "ks": ks,
            "tier": "smoke" if smoke else "full",
            "build_reps": BUILD_REPS,
        },
        "pr7_build_wall_s": round(base_s, 4),
        "serial_build_wall_s": round(serial_s, 4),
        "sharded_build_wall_s": round(sharded_s, 4),
        "sharded_n_shards": 2,
        "speedup": round(speedup, 2),
        "min_required_speedup": 0.8 if smoke else MIN_SPEEDUP,
        "parity": "spectra arrays, contigs, stats, usage and virtual TTCs "
        "identical across builds",
    }
    path = SMOKE_RESULT_PATH if smoke else RESULT_PATH
    path.write_text(json.dumps(record, indent=2) + "\n")

    # The smoke tier proves parity and writes the artifact; only the full
    # tier is large enough for a stable wall-clock floor.
    assert speedup >= (0.8 if smoke else MIN_SPEEDUP)
