"""Assembler registry — the paper's Table I plus the single-node options.

Maps assembler names to their classes and carries the metadata the paper
tabulates (graph type, distributed implementation, the version of the real
tool each one stands in for).  It is the one owner of every per-assembler
fact, so no caller decides by an assembler's name; :func:`run_assembler`,
the one call convention, hands ``n_ranks`` to a scalable one only.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class AssemblerInfo:
    """Metadata for one integrated assembler (Table I row), keyed by its
    name in :data:`ASSEMBLERS`."""

    graph_type: str  # "DBG"
    distributed_impl: str  # "MPI" | "Hadoop MapReduce" | "none"
    analog_of_version: str
    scalable: bool  # runs on multi-node shared-nothing systems; takes n_ranks
    class_path: str  # imported by get_assembler on first use
    fixed_k: int | None = None  # planned once, at this k, whatever the sweep's ks
    shared_product: str | None = None  # "partition" | "table" off a shared spectrum
    rejects_n: bool = False  # fails on reads with N (paper, Fig. 3)


class ContrailInputError(ValueError):
    """Raw reads with N reached an assembler that ``rejects_n``."""


ASSEMBLERS: dict[str, AssemblerInfo] = {
    "ray": AssemblerInfo(
        graph_type="DBG",
        distributed_impl="MPI",
        analog_of_version="Ray 2.3.1",
        scalable=True,
        class_path="repro.assembly.ray.RayAssembler",
        shared_product="partition",
    ),
    "abyss": AssemblerInfo(
        graph_type="DBG",
        distributed_impl="MPI",
        analog_of_version="ABySS 1.9.0",
        scalable=True,
        class_path="repro.assembly.abyss.AbyssAssembler",
        shared_product="partition",
    ),
    "contrail": AssemblerInfo(
        graph_type="DBG",
        distributed_impl="Hadoop MapReduce",
        analog_of_version="Contrail 0.8.2",
        scalable=True,
        class_path="repro.assembly.contrail.ContrailAssembler",
        rejects_n=True,
    ),
    "velvet": AssemblerInfo(
        graph_type="DBG",
        distributed_impl="none",
        analog_of_version="Velvet 1.2",
        scalable=False,
        class_path="repro.assembly.velvet.VelvetAssembler",
        shared_product="table",
    ),
    "trinity": AssemblerInfo(
        graph_type="DBG",
        distributed_impl="none",
        analog_of_version="Trinity 2.1.1",
        scalable=False,
        class_path="repro.assembly.trinity.TrinityAssembler",
        fixed_k=25,
    ),
}

#: The three multi-node assemblers benchmarked in the paper (Table I).
TABLE1_ASSEMBLERS = tuple(name for name, info in ASSEMBLERS.items() if info.scalable)


def get_assembler(name: str):
    """Instantiate an assembler by registry name, importing its module."""
    try:
        info = ASSEMBLERS[name]
    except KeyError:
        raise KeyError(
            f"unknown assembler {name!r}; available: {sorted(ASSEMBLERS)}"
        ) from None
    module, _, cls = info.class_path.rpartition(".")
    return getattr(importlib.import_module(module), cls)()


def run_assembler(name: str, store, params, n_ranks: int, spectrum=None):
    """Assemble ``store`` with the named assembler: the one call
    convention.  ``n_ranks`` reaches a scalable assembler only, and reads
    with N reach none that ``rejects_n`` (:class:`ContrailInputError`)."""
    assembler = get_assembler(name)
    info = ASSEMBLERS[name]
    if info.rejects_n and store.contains_n():
        raise ContrailInputError(
            f"reads contain N; {info.analog_of_version} needs pre-processed reads"
        )
    if info.scalable:
        return assembler.assemble(store, params, n_ranks=n_ranks, spectrum=spectrum)
    return assembler.assemble(store, params, spectrum=spectrum)
