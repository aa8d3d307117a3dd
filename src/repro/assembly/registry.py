"""Assembler registry — the paper's Table I plus the single-node options.

Maps assembler names to their classes and carries the metadata the paper
tabulates (graph type, distributed implementation, the version of the real
tool each one stands in for).  It is the one owner of how an assembler is
called: :func:`run_assembler` hands ``n_ranks`` to a scalable one only.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class AssemblerInfo:
    """Metadata for one integrated assembler (Table I row)."""

    name: str
    graph_type: str  # "DBG"
    distributed_impl: str  # "MPI" | "Hadoop MapReduce" | "none"
    analog_of_version: str
    scalable: bool  # runs on multi-node shared-nothing systems; takes n_ranks
    class_path: str  # imported by get_assembler on first use


ASSEMBLERS: dict[str, AssemblerInfo] = {
    "ray": AssemblerInfo(
        name="ray",
        graph_type="DBG",
        distributed_impl="MPI",
        analog_of_version="Ray 2.3.1",
        scalable=True,
        class_path="repro.assembly.ray.RayAssembler",
    ),
    "abyss": AssemblerInfo(
        name="abyss",
        graph_type="DBG",
        distributed_impl="MPI",
        analog_of_version="ABySS 1.9.0",
        scalable=True,
        class_path="repro.assembly.abyss.AbyssAssembler",
    ),
    "contrail": AssemblerInfo(
        name="contrail",
        graph_type="DBG",
        distributed_impl="Hadoop MapReduce",
        analog_of_version="Contrail 0.8.2",
        scalable=True,
        class_path="repro.assembly.contrail.ContrailAssembler",
    ),
    "velvet": AssemblerInfo(
        name="velvet",
        graph_type="DBG",
        distributed_impl="none",
        analog_of_version="Velvet 1.2",
        scalable=False,
        class_path="repro.assembly.velvet.VelvetAssembler",
    ),
    "trinity": AssemblerInfo(
        name="trinity",
        graph_type="DBG",
        distributed_impl="none",
        analog_of_version="Trinity 2.1.1",
        scalable=False,
        class_path="repro.assembly.trinity.TrinityAssembler",
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
    convention.  ``n_ranks`` reaches a scalable assembler only; a
    single-node one runs on its own node whatever the caller asked."""
    assembler = get_assembler(name)
    if ASSEMBLERS[name].scalable:
        return assembler.assemble(store, params, n_ranks=n_ranks, spectrum=spectrum)
    return assembler.assemble(store, params, spectrum=spectrum)
