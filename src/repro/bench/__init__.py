"""Experiment harness: calibrated cost model and shared bench data sets
for the paper-reproduction benchmarks."""

from repro.bench.calibration import TABLE3_TARGETS, calibrated_cost_model
from repro.bench.harness import (
    bench_dataset,
    machine_for,
    price_assembly,
)

__all__ = [
    "TABLE3_TARGETS",
    "calibrated_cost_model",
    "bench_dataset",
    "machine_for",
    "price_assembly",
]
