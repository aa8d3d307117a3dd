"""Single-process harness: runs one workload and prints one JSON record.

Spawned by run.py in a fresh subprocess per workload (fixed hash seed,
one BLAS thread), so peak RSS, imports and caches are per workload.

Protocol (closed loop, 1 client): one *repeat* is a cold
``RnnotatorPipeline().run`` under fresh assembly/k-mer-table caches
followed by two warm reruns inside the same scopes.  Repeats run until
``--seconds`` are spent.  All tracing is off in that loop; the per-layer
numbers come from one extra harness-traced cold+warm pair afterwards.
Wall and CPU seconds are corrected for host drift (see ``HostSpeed``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median

import numpy

from repro.assembly.sweep import KmerTableCache, use_kmer_table_cache
from repro.core.assembly_cache import AssemblyCache, use_assembly_cache
from repro.core.rnnotator import RnnotatorPipeline
from repro.evaluation import detonate
from repro.obs import Tracer
from repro.obs.attribution import attribute_costs
from repro.obs.critpath import compute_critical_path
from repro.obs.report import report_data

import layers
from workloads import MIN_REPEATS, WARM_RERUNS, WORKLOADS, fingerprint

BENCH_DIR = Path(__file__).resolve().parent
SHM_DIR = Path("/dev/shm")


def shm_segments() -> set[str]:
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


class HostSpeed:
    """Interleaved reference kernel: how fast is the host right now?

    The shared box slows every process down by up to 1.7x for tens of
    seconds at a time, which no statistic inside one run can average out.  A fixed ~40 ms kernel (Python bytecode + numpy sort/unique, the
    pipeline's own mix) is therefore timed right before and right after
    every pipeline run, and the run's wall and CPU seconds are divided by
    ``drift`` = mean of the two readings / ``NOMINAL_S``: seconds at
    nominal host speed.  Raw seconds are kept beside them in the record.
    """

    #: The kernel's time on this box when it is quiet.
    NOMINAL_S = 0.036
    #: A reading this fresh is reused, so back-to-back runs share one.
    FRESH_S = 0.05

    def __init__(self) -> None:
        self._array = numpy.random.default_rng(0).integers(0, 1 << 60, size=300_000)
        self._reading = self._taken_at = 0.0
        self.readings: list[float] = []

    def reading(self) -> float:
        if time.perf_counter() - self._taken_at > self.FRESH_S:
            t0 = time.perf_counter()
            total = 0
            for i in range(250_000):
                total += i * i
            numpy.sort(self._array)
            numpy.unique(self._array[:100_000])
            self._taken_at = time.perf_counter()
            self._reading = self._taken_at - t0
            self.readings.append(self._reading)
        return self._reading


def cpu_seconds() -> float:
    """User+sys CPU of this process plus its reaped children (a pool is
    shut down, hence reaped, inside the run that made it)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


@contextmanager
def fresh_caches():
    """New cache scopes: the first run inside is cold, later ones warm."""
    with use_assembly_cache(AssemblyCache()) as ac, \
            use_kmer_table_cache(KmerTableCache()) as tc:
        yield ac, tc


@dataclass(frozen=True)
class Timing:
    """One run's seconds at nominal host speed, and as read."""

    wall: float
    cpu: float
    raw_wall: float
    raw_cpu: float


class Checker:
    """Runs the pipeline, counts operations and gates every run's
    fingerprint against the golden (golden seed) or against the first
    run (any other seed)."""

    def __init__(self, dataset, expected: dict | None, host: HostSpeed) -> None:
        self.dataset = dataset
        self.expected = expected
        self.host = host
        self.first: dict | None = None
        self.runs = self.units = self.failed = 0
        self.problems: list[str] = []

    def run(self, label: str, config, tracer=None, span=nullcontext()):
        """(result, Timing), or None if the run raised.  ``span`` is
        entered around the pipeline call alone."""
        self.runs += 1
        gc.collect()  # every run starts from the same collector state
        before = self.host.reading()
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            with span:
                result = RnnotatorPipeline(tracer=tracer).run(self.dataset, config)
        except Exception:
            traceback.print_exc()
            self.fail(f"{label}: run raised")
            return None
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        drift = (before + self.host.reading()) / 2 / self.host.NOMINAL_S
        timing = Timing(wall / drift, cpu / drift, wall, cpu)
        got = fingerprint(result)
        self.units += got["units"]
        if self.first is None:
            self.first = got
        want = self.expected or self.first
        for key in got:
            if got[key] != want[key]:
                self.fail(f"{label}: {key} = {got[key]!r}, expected {want[key]!r}")
        return result, timing

    def must_run(self, label: str, config, tracer=None, span=nullcontext()):
        ran = self.run(label, config, tracer, span)
        if ran is None:
            raise RuntimeError(f"{label} run failed")
        return ran

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def timed_loop(check: Checker, config, seconds: float, min_repeats: int):
    """Timings of the cold runs and of the warm reruns."""
    cold: list[Timing] = []
    warm: list[Timing] = []
    t_end = time.perf_counter() + seconds
    while len(cold) < min_repeats or time.perf_counter() < t_end:
        with fresh_caches():
            for i in range(1 + WARM_RERUNS):
                ran = check.run(f"repeat {len(cold)} run {i}", config)
                if ran is None:
                    break
                (warm if i else cold).append(ran[1])
    return cold, warm


def traced_pair(check: Checker, name: str, config, rec: layers.SpanRecorder) -> dict:
    """One cold + one warm run with the layer entry points wrapped."""
    out = {}
    with fresh_caches() as (ac, tc):
        for temp in ("cold", "warm"):
            run_id, seen = f"{name}.{temp}", {}
            with layers.instrument(rec, seen):
                result, timing = check.must_run(
                    f"traced {temp}", config, span=rec.run(run_id)
                )
            spans = rec.of_run(run_id)
            out[f"layers_{temp}"] = layers.layer_table(spans)
            if temp == "cold":
                out["wall"] = timing.wall
                out["result"] = result
                out["run_span_s"] = layers.run_span_seconds(spans)
                out["metrics"] = layers.layer_metrics(spans, seen, result, ac, tc)
                hits0, misses0 = ac.hits, ac.misses
    hits, misses = ac.hits - hits0, ac.misses - misses0
    # Under the process backend lookups happen in forked workers, whose
    # counters die with them: the parent-side cache reads 0 there.
    out["metrics"].update({
        "cache.assembly_hits_warm": hits,
        "cache.hit_ratio_warm": hits / (hits + misses) if hits + misses else 0.0,
    })
    return out


def obs_run(check: Checker, config) -> dict:
    """One cold run under the program's own tracer, then the post-hoc
    analyses over that trace."""
    tracer = Tracer()
    with fresh_caches():
        _, timing = check.must_run("obs-traced cold", config, tracer)
    records = tracer.records()
    t0 = time.perf_counter()
    report_data(records)
    compute_critical_path(records)
    attribute_costs(records)
    return {
        "wall": timing.wall,
        "obs.spans": len(tracer.spans),
        "obs.events": len(tracer.events),
        "obs.analyze_s": time.perf_counter() - t0,
    }


def layer_record(check: Checker, name: str, config, base: float, spans_out) -> dict:
    """The per-layer part of the record; ``base`` is the untraced cold
    median the overhead fractions and the speed-up are taken against."""
    rec = layers.SpanRecorder()
    pair = traced_pair(check, name, config, rec)
    obs = obs_run(check, config)
    serial_wall = base
    if config.executor != "serial":
        serial = replace(config, executor="serial", executor_workers=None)
        with fresh_caches():
            serial_wall = check.must_run("serial base", serial)[1].wall
    metrics = pair["metrics"]
    metrics.update({
        "executor.worker_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "executor.speedup_vs_serial": serial_wall / base,
        "evaluation.f1": detonate.evaluate(
            pair["result"].transcripts, check.dataset.transcriptome
        ).f1,
        "obs.tracer_overhead_frac": (obs.pop("wall") - base) / base,
        **obs,
        "bench.trace_overhead_frac": (pair["wall"] - base) / base,
    })
    if spans_out:
        with open(spans_out, "w") as fh:
            for span in rec.spans:
                fh.write(json.dumps(span) + "\n")
    return {
        "per_layer": {k: {"value": v} for k, v in metrics.items()},
        "layers_cold": pair["layers_cold"],
        "layers_warm": pair["layers_warm"],
        "run_span_s": pair["run_span_s"],
        "layer_sum_s": sum(pair["layers_cold"].values()),
    }


def stats(samples: list[float], raw: list[float]) -> dict:
    # n < 11: no percentile has ten samples beyond it, so none is reported.
    return {
        "value": median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
        "raw_value": median(raw),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() just before this process was spawned")
    ap.add_argument("--layers", action="store_true",
                    help="add the traced pair and the per-layer metrics")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--no-golden", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    dataset = workload.dataset(args.seed, args.smoke)
    config = workload.config()
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    expected = None
    if args.seed == golden["seed"] and not (args.smoke or args.no_golden):
        expected = golden["results"][workload.golden]
    host = HostSpeed()
    raw_setup_s = time.time() - args.t0
    setup_s = raw_setup_s * host.NOMINAL_S / host.reading()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    check = Checker(dataset, expected, host)
    shm_before = shm_segments()
    if not args.smoke:
        # Discarded warm-up repeats: checked like any run, never timed.
        timed_loop(check, config, 0, workload.warmups)
    cold, warm = timed_loop(
        check, config, args.seconds, 1 if args.smoke else MIN_REPEATS
    )
    if not cold or not warm:
        print("\n".join(check.problems), file=sys.stderr)
        return 1
    # Taken before any traced run.  ru_maxrss of the reaped children is
    # the largest pool worker's (0 on the serial workloads).
    peak_kb = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "executor_workers": config.executor_workers or 1,
        },
        "end_to_end": {
            "run_wall_s": stats([t.wall for t in cold], [t.raw_wall for t in cold]),
            "rerun_wall_s": stats([t.wall for t in warm], [t.raw_wall for t in warm]),
            "cpu_s": stats([t.cpu for t in cold], [t.raw_cpu for t in cold]),
            "peak_rss_mb": {"value": peak_kb / 1024},
            "setup_s": {"value": setup_s, "raw_value": raw_setup_s},
        },
    }
    if args.layers:
        base = record["end_to_end"]["run_wall_s"]["value"]
        record.update(layer_record(check, workload.name, config, base, args.spans_out))
        record["per_layer"]["host.ref_kernel_s"] = {"value": median(host.readings)}
    for name in sorted(shm_segments() - shm_before):
        check.fail(f"leaked /dev/shm segment {name}")
    record.update(
        fingerprint=check.first,
        golden_key=workload.golden,
        attempted=check.runs + check.units,
        failed=check.failed,
        problems=check.problems,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
