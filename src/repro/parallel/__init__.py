"""Simulated distributed runtimes that book, not execute.

The assemblers in :mod:`repro.assembly` compute on one host and book what
a cluster run would cost, from counted quantities:

* :mod:`repro.parallel.comm` — an MPI-like SPMD world: per-rank work,
  collectives booked with their off-node bytes, message counts.
* :mod:`repro.parallel.mapreduce` — MapReduce jobs booked from the
  columns of their shuffle, each paying a per-job startup cost (the
  Hadoop behaviour that dominates Contrail's small-cluster TTC in the
  paper).
* :mod:`repro.parallel.usage` — resource-usage records produced by both.
* :mod:`repro.parallel.costmodel` — converts measured usage into virtual
  seconds on a given machine configuration (calibrated against Table III).
* :mod:`repro.parallel.executor` — pluggable backends (serial, thread
  pool, process pool) that run unit workloads across host cores.

The executing forms (payload collectives, a record-at-a-time MapReduce
engine, a generic payload-size walk) are the test oracle
``tests/parallel/exec_reference.py``.
"""

from repro.parallel.comm import SimWorld
from repro.parallel.costmodel import CostModel, MachineConfig
from repro.parallel.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkloadExecutor,
    WorkloadOutcome,
    make_executor,
)
from repro.parallel.mapreduce import MapReduceEngine, MRJobStats
from repro.parallel.usage import PhaseUsage, ResourceUsage

__all__ = [
    "SimWorld",
    "MapReduceEngine",
    "MRJobStats",
    "PhaseUsage",
    "ResourceUsage",
    "CostModel",
    "MachineConfig",
    "WorkloadExecutor",
    "WorkloadOutcome",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
]
