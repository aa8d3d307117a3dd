"""Ablation — what the pre-processing stage actually buys.

Rnnotator's QC stage (dedup + trim + N filter) is not just data
reduction: deduplication removes the recurrent error k-mers that would
otherwise survive the coverage threshold and shatter the graph.  This
ablation assembles the same B. glumae reads with and without
pre-processing and compares the solid-k-mer load, assembly quality and
the priced TTC.
"""

import functools

from repro.bench.harness import (
    annotation_reference,
    bench_dataset,
    format_table,
    machine_for,
    run_assembly,
)
from repro.core.scaling import paper_usage
from repro.evaluation.detonate import evaluate

K = 41


@functools.lru_cache(maxsize=1)
def ablation_rows():
    from repro.bench.calibration import calibrated_cost_model

    cm = calibrated_cost_model()
    ds = bench_dataset("B_glumae")
    ref = annotation_reference("B_glumae")
    machine = machine_for("c3.2xlarge", 2)

    rows = {}
    for name, preprocessed in (("raw reads", False), ("preprocessed", True)):
        result = run_assembly("B_glumae", "ray", K, 16, preprocessed=preprocessed)
        scores = evaluate(result.contigs, ref)
        ttc = cm.task_seconds(paper_usage(result.usage, ds), machine)
        rows[name] = {
            "solid_kmers": result.stats["distinct_kmers"],
            "contigs": len(result.contigs),
            "f1": scores.f1,
            "precision": scores.precision,
            "ttc": ttc,
        }
    return rows


def test_ablation_preprocessing(benchmark, report_sink):
    rows = benchmark.pedantic(ablation_rows, rounds=1, iterations=1)
    table = format_table(
        f"Ablation: pre-processing effect (B. glumae, ray, k={K}, "
        "2x c3.2xlarge)",
        ["Input", "solid k-mers", "contigs", "precision", "F1", "TTC (s)"],
        [
            [name, r["solid_kmers"], r["contigs"], f"{r['precision']:.2f}",
             f"{r['f1']:.2f}", f"{r['ttc']:.0f}"]
            for name, r in rows.items()
        ],
    )
    report_sink.append(table)
    print("\n" + table)

    raw, pre = rows["raw reads"], rows["preprocessed"]
    # Dedup removes recurrent error k-mers: smaller solid graph.
    assert pre["solid_kmers"] < raw["solid_kmers"]
    # Quality does not degrade (usually improves) despite fewer reads.
    assert pre["f1"] >= raw["f1"] - 0.05
    # And the assembly gets cheaper.
    assert pre["ttc"] < raw["ttc"]
