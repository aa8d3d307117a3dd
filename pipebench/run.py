"""End-to-end pipeline benchmark (declared in ../BENCHMARK.json).

    python3 pipebench/run.py [--workload W] [--seed S] [--seconds N]
                             [--trace 0|1] [--smoke] [--out DIR]
                             [--selfcheck] [--update-golden]

Without ``--workload`` it runs every workload with the per-layer pair,
prints every metric by name with its unit, checks outputs against
golden.json and writes one JSON record per workload to ``--out``.  With
``--workload`` the last line of stdout is the one-object result the
benchmark contract asks for.  Each workload runs in a fresh subprocess
of harness.py under a fixed environment.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
GOLDEN = BENCH / "golden.json"
#: The seed golden.json pins; any other seed checks self-consistency.
GOLDEN_SEED = json.loads(GOLDEN.read_text())["seed"]
#: Extra set-up-only subprocesses per run; setup_s is the median of
#: these and the measuring subprocess's own set-up.
SETUP_PROBES = 2


def child_env() -> dict:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(
        os.environ,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(p for p in path if p),
    )


def spawn(args: list[str]) -> dict:
    """Run harness.py to completion; its last stdout line is a JSON
    object.  A failing harness ends the benchmark with its exit code."""
    cmd = [sys.executable, str(BENCH / "harness.py"), *args,
           "--t0", repr(time.time())]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def with_units(values: dict, declared: list[dict], what: str) -> dict:
    """Attach the declared units; the harness must emit exactly the
    declared names."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise SystemExit(
            f"{what} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}"
        )
    return {k: {**values[k], "unit": units[k]} for k in units}


def run_workload(name, args, layers: bool, probes: int, out: Path) -> dict:
    common = ["--workload", name, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    if args.update_golden:
        common.append("--no-golden")
    probed = [spawn(common + ["--setup-only"]) for _ in range(probes)]
    extra = ["--layers", "--spans-out", str(out / f"{name}.spans.jsonl")] if layers else []
    record = spawn(common + extra)
    own = record["end_to_end"]["setup_s"]
    setups = [p["setup_s"] for p in probed] + [own["value"]]
    record["end_to_end"]["setup_s"] = {
        "value": median(setups), "min": min(setups), "max": max(setups),
        "n": len(setups), "samples": setups,
        "raw_value": median([p["raw_setup_s"] for p in probed] + [own["raw_value"]]),
    }
    record["end_to_end"] = with_units(record["end_to_end"], SPEC["end_to_end"], "end-to-end")
    if layers:
        record["per_layer"] = with_units(record["per_layer"], SPEC["per_layer"], "per-layer")
    (out / f"{name}.json").write_text(json.dumps(record, indent=1))
    return record


def print_record(r: dict) -> None:
    h = r["host"]
    print(f"\n== {r['workload']}  seed={r['seed']} smoke={r['smoke']}  "
          f"nproc={h['nproc']} python={h['python']} numpy={h['numpy']} "
          f"executor.workers={h['executor_workers']}")
    for name, m in r["end_to_end"].items():
        spread = (f"  median of n={m['n']} [min {m['min']:.4f}, max {m['max']:.4f}]"
                  f" (n<11: no percentile)" if "n" in m else "")
        raw = f"  raw {m['raw_value']:.4f}" if "raw_value" in m else ""
        print(f"  {name:32s} {m['value']:12.4f} {m['unit']}{spread}{raw}")
    print(f"  {'failed_frac':32s} {r['failed'] / r['attempted']:12.4f} frac"
          f"  ({r['failed']} of {r['attempted']} runs+units)")
    for problem in r["problems"]:
        print(f"  FAILED: {problem}")
    if "per_layer" not in r:
        return
    for name, m in r["per_layer"].items():
        print(f"  {name:32s} {m['value']:12.6g} {m['unit']}")
    for temp in ("cold", "warm"):
        table = r[f"layers_{temp}"]
        total = sum(table.values())
        print(f"  layer self times, traced {temp} run (sum {total:.4f} s):")
        for layer, s in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:24s} {s:9.4f} s {100 * s / total:5.1f}%")
    print(f"  cold run span {r['run_span_s']:.4f} s vs layer sum {r['layer_sum_s']:.4f} s")


def contract_line(r: dict, trace: int | None) -> str:
    metrics = {}
    if trace != 1:
        metrics.update(r["end_to_end"])
    if trace != 0:
        metrics.update(r["per_layer"])
    return json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    })


def run_suite(args, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    probes = 0 if args.smoke else SETUP_PROBES
    records = {}
    for name in WORKLOADS:
        records[name] = run_workload(name, args, not args.update_golden, probes, out)
        print_record(records[name])
    a, b = (records[n]["end_to_end"]["run_wall_s"]["value"]
            for n in ("mamp_serial", "mamp_process"))
    print(f"\nmamp_serial.run_wall_s / mamp_process.run_wall_s = "
          f"{a:.4f} s / {b:.4f} s = {a / b:.3f}x; cpu_s "
          f"{records['mamp_serial']['end_to_end']['cpu_s']['value']:.4f} s vs "
          f"{records['mamp_process']['end_to_end']['cpu_s']['value']:.4f} s")
    (out / "suite.json").write_text(json.dumps({"records": records}, indent=1))
    return records


def update_golden(records: dict) -> None:
    results = {}
    for name, r in records.items():
        key = r["golden_key"]
        if results.setdefault(key, r["fingerprint"]) != r["fingerprint"]:
            raise SystemExit(f"{name} disagrees with the shared golden {key!r}")
    GOLDEN.write_text(json.dumps({"seed": GOLDEN_SEED, "results": results}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="length of the timed loop per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics only; 1: per-layer metrics only")
    ap.add_argument("--smoke", action="store_true",
                    help="800-read inputs, 1 repeat, self-consistency only")
    ap.add_argument("--out", type=Path, default=BENCH / "out")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run the suite twice on this code and compare the two")
    ap.add_argument("--update-golden", action="store_true",
                    help="rewrite golden.json; only for a PR that changes the benchmark")
    args = ap.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"pipebench: no pipeline sources at {ROOT / 'src' / 'repro'}")

    if args.workload:
        args.out.mkdir(parents=True, exist_ok=True)
        probes = SETUP_PROBES if args.trace != 1 and not args.smoke else 0
        record = run_workload(args.workload, args, args.trace != 0, probes, args.out)
        print_record(record)
        print(contract_line(record, args.trace))
        return 0 if record["failed"] == 0 else 1

    if args.selfcheck:
        import compare

        for side in "AB":
            run_suite(args, args.out / f"selfcheck_{side}")
        return compare.main([str(args.out / f"selfcheck_{s}" / "suite.json") for s in "AB"])

    if args.update_golden:
        args.seed = GOLDEN_SEED
    records = run_suite(args, args.out)
    if args.update_golden:
        update_golden(records)
    return 0 if all(r["failed"] == 0 for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
