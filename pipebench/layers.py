"""Per-layer spans recorded from outside the program.

``instrument`` rebinds the pipeline driver's layer entry points to
span-recording wrappers for one traced run and restores them in
``finally``; nothing under ``src/`` knows about it.  Spans are kept in
memory.  A span's *self time* is its duration minus the part of that
interval its children cover, so the per-layer table sums to the run span
by construction.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

from repro.assembly import sweep
from repro.core import multikmer, rnnotator
from repro.parallel.executor import ProcessExecutor
from repro.pilot.manager import UnitManager
from repro.pilot.states import UnitState
from repro.seq.readstore import ReadStore

MB = 1e6
ASSEMBLY_STAGE = "transcript-assembly"
ASSEMBLERS = ("ray", "abyss", "velvet", "contrail")


class SpanRecorder:
    """In-memory spans of the parent process.

    The pipeline driver is single-threaded, but a process pool pickles
    its work items on a feeder thread, which is where a ReadStore is
    first shared.  Each thread nests on its own stack; spans opened off
    the thread that owns the recorder are flagged ``background`` and
    stay out of the layer table (they overlap the driver's spans).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._stacks = threading.local()
        self._owner = threading.get_ident()
        self._run = ""

    @contextmanager
    def span(self, name: str, **attrs):
        if not hasattr(self._stacks, "stack"):
            self._stacks.stack = []
        stack = self._stacks.stack
        record = {
            "id": next(self._ids),
            "run": self._run,
            "name": name,
            "parent": stack[-1] if stack else None,
            "background": threading.get_ident() != self._owner,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    @contextmanager
    def run(self, run_id: str):
        """Root span; every span opened inside shares ``run_id``."""
        self._run = run_id
        with self.span("run") as root:
            yield root

    def of_run(self, run_id: str) -> list[dict]:
        return [s for s in self.spans if s["run"] == run_id]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span, so overlapping or overhanging children never
    count twice or make a self time negative)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, edge = 0.0, s["start"]
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, edge), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_table(spans: list[dict]) -> dict[str, float]:
    """Self seconds by span name for one run; sums to the run span."""
    spans = [s for s in spans if not s.get("background")]
    selfs = self_times(spans)
    table: dict[str, float] = defaultdict(float)
    for s in spans:
        table[s["name"]] += selfs[s["id"]]
    return dict(table)


def run_span_seconds(spans: list[dict]) -> float:
    root = next(s for s in spans if s["name"] == "run")
    return root["end"] - root["start"]


def spectra_counts(spectra) -> dict:
    """Read while the spectra are open: the run closes (and, when
    shared, unlinks) them before it returns."""
    return {
        "distinct_kmers": sum(len(sp.distinct) for sp in spectra),
        "occurrences": sum(sp.inverse.size for sp in spectra),
        "spectrum_bytes": sum(sp.nbytes for sp in spectra),
    }


@contextmanager
def instrument(rec: SpanRecorder, seen: dict):
    """Wrap the layer entry points; ``seen`` collects what the counts
    are read from (units, prediction, sizes taken while stores are open)."""
    undo = []

    def patch(owner, name, make):
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, name, new)
        undo.append((owner, name, raw))

    def timed(span_name, note=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with rec.span(span_name):
                    out = fn(*args, **kwargs)
                if note:
                    seen.update(note(out))
                return out

            return wrapper

        return make

    def make_share(fn):
        def wrapper(store):
            created = not store.shared
            with rec.span("seq.share"):
                out = fn(store)
            if created:
                seen["shm_bytes"] = seen.get("shm_bytes", 0) + store.nbytes
            return out

        return wrapper

    def make_collect(fn):
        def wrapper(pending, *args, **kwargs):
            seen["shards"] = pending.n_shards
            with rec.span("sweep.collect_wait"):
                out = fn(pending, *args, **kwargs)
            seen.update(spectra_counts(out))
            return out

        return wrapper

    def make_um_run(fn):
        def wrapper(um, units=None):
            run_units = list(units) if units is not None else list(um.units)
            stage = run_units[0].description.stage if run_units else "?"
            name = "pilot.run"
            if stage == ASSEMBLY_STAGE:
                seen["workers"] = um.executor.max_workers
                if isinstance(um.executor, ProcessExecutor):
                    # The span's self time is the parent blocked on its
                    # workers, not pilot bookkeeping: it gets its own row.
                    name = "executor.fanout_wait"
                    # What crosses the process boundary.  Only measured
                    # here: pickling shares the store, which a serial run
                    # never does.
                    seen["pickle_bytes"] = sum(
                        len(pickle.dumps(u.description.work, pickle.HIGHEST_PROTOCOL))
                        for u in run_units
                    )
            with rec.span(name, stage=stage):
                try:
                    return fn(um, units)
                finally:
                    seen.setdefault("units", []).extend(run_units)

        return wrapper

    def make_job(fn):
        # Runs inline under the serial backend (a child of pilot.run);
        # under the process backend it runs in a forked worker whose
        # recorder copy is discarded, and the fan-out's self time is the
        # parent waiting for the pool.
        def wrapper(work):
            with rec.span("assembly.job", assembler=work.assembler_name):
                return fn(work)

        return wrapper

    try:
        patch(rnnotator, "preprocess", timed("preprocess", lambda pre: {"pre": pre}))
        patch(ReadStore, "from_reads",
              timed("seq.encode", lambda store: {"store_bytes": store.nbytes}))
        patch(ReadStore, "share", make_share)
        patch(rnnotator, "build_spectra", timed("sweep.build", spectra_counts))
        patch(rnnotator, "submit_spectra_build", timed("sweep.submit"))
        patch(sweep.PendingSpectraBuild, "collect", make_collect)
        # The one private seam: splits collect() into blocked-on-workers
        # (sweep.collect_wait self time) and parent-side merge.
        patch(sweep, "_merge_shard_spectra", timed("sweep.merge"))
        patch(sweep.KmerSpectrum, "share", timed("sweep.share"))
        patch(rnnotator, "plan_assembly", timed("planner"))
        patch(rnnotator, "predict_run", timed("planner", lambda p: {"prediction": p}))
        patch(rnnotator, "predict_spectrum_build", timed("planner"))
        patch(rnnotator, "merge_contigs", timed("merge"))
        patch(rnnotator, "quantify", timed("quantify"))
        patch(UnitManager, "run", make_um_run)
        patch(multikmer.AssemblyWorkload, "__call__", make_job)
        patch(multikmer, "collect_assembly_results", timed("cache.record"))
        yield
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)


def layer_metrics(spans, seen, result, assembly_cache, table_cache) -> dict:
    """Per-layer metrics of one traced cold run (cache.*_warm and the
    overhead fractions are added by the harness, which owns the pair)."""
    table = defaultdict(float, layer_table(spans))
    fanout = next(s for s in spans if s.get("stage") == ASSEMBLY_STAGE)
    fanout_wall = fanout["end"] - fanout["start"]

    units = seen["units"]
    jobs = [u for u in units if u.description.stage == ASSEMBLY_STAGE]
    busy = [u.real_seconds or 0.0 for u in jobs]
    by_assembler = defaultdict(float)
    for u, b in zip(jobs, busy):
        by_assembler[u.description.tags["assembler"]] += b
    usages = [u.result.usage for u in jobs]
    contigs = [c for u in jobs for c in u.result.contigs]
    pre = seen["pre"]
    mr_jobs = sum(u.n_jobs for u in usages)
    workers = seen["workers"]

    return {
        "seq.encode_s": table["seq.encode"],
        "seq.store_mb": seen["store_bytes"] / MB,
        # wherever it ran: the first share happens on the pool's feeder thread
        "seq.share_s": sum(
            s["end"] - s["start"] for s in spans if s["name"] == "seq.share"
        ),
        "seq.shm_mb": seen.get("shm_bytes", 0) / MB,
        "preprocess.wall_s": table["preprocess"],
        "preprocess.reads_in": pre.input_reads,
        "preprocess.reads_kept": pre.output_reads,
        "sweep.build_s": table["sweep.build"] + table["sweep.submit"] + table["sweep.merge"],
        "sweep.collect_wait_s": table["sweep.collect_wait"],
        "sweep.share_s": table["sweep.share"],
        "sweep.shards": seen.get("shards", 1),
        "sweep.distinct_kmers": seen["distinct_kmers"],
        "sweep.occurrences": seen["occurrences"],
        "sweep.spectrum_mb": seen["spectrum_bytes"] / MB,
        **{f"assembly.{a}_s": by_assembler[a] for a in ASSEMBLERS},
        "assembly.jobs": len(jobs),
        "assembly.job_p50_s": median(busy),
        "assembly.job_max_s": max(busy),
        "assembly.compute_units": sum(u.total_compute for u in usages),
        "assembly.contigs": len(contigs),
        "assembly.contig_bp": sum(len(c) for c in contigs),
        "comm.bytes": sum(u.comm_bytes for u in usages),
        "comm.messages": sum(u.n_messages for u in usages),
        "comm.collectives": sum(u.n_collectives for u in usages),
        "mapreduce.jobs": mr_jobs,
        "mapreduce.s_per_job": by_assembler["contrail"] / mr_jobs if mr_jobs else 0.0,
        "executor.workers": workers,
        "executor.fanout_wall_s": fanout_wall,
        "executor.efficiency": sum(busy) / (fanout_wall * workers),
        "executor.pickle_bytes": seen.get("pickle_bytes", 0),
        "pilot.plumbing_s": table["run"] + table["pilot.run"] + table["cache.record"],
        "pilot.units": len(units),
        "pilot.restarts": sum(u.restarts for u in units),
        "pilot.units_failed": sum(u.state is not UnitState.DONE for u in units),
        "cloud.virtual_ttc_s": result.total_ttc,
        "cloud.cost_usd": result.total_cost,
        # S2 reuses one fleet across pilots: its peak size is the VM count.
        "cloud.vms": max(s.n_nodes for s in result.stages),
        "planner.wall_s": table["planner"],
        "planner.ttc_err_frac": abs(seen["prediction"].ttc_s - result.total_ttc) / result.total_ttc,
        "merge.wall_s": table["merge"],
        "merge.contigs_in": result.merge.input_contigs,
        "merge.transcripts_out": result.merge.output_contigs,
        "quantify.wall_s": table["quantify"],
        "quantify.assignment_rate": result.quantification.assignment_rate,
        "cache.assembly_misses_cold": assembly_cache.misses,
        "cache.kmer_table_hits": table_cache.hits,
    }
