"""De novo de Bruijn graph assemblers.

Functional Python analogs of the assemblers the paper integrates
(Table I) plus the Trinity baseline used in Table V:

=========  =====================  ==========================================
Name       Distributed runtime    Analog of
=========  =====================  ==========================================
velvet     (single node)          Velvet — serial DBG assembler
ray        ``parallel.comm``      Ray 2.3.1 — MPI, message-driven extension
abyss      ``parallel.comm``      ABySS 1.9.0 — MPI, serial master merge
contrail   ``parallel.mapreduce`` Contrail 0.8.2 — Hadoop MapReduce rounds
trinity    (single node)          Trinity 2.1.1 — independent baseline
=========  =====================  ==========================================

All of them consume reads and produce :class:`~repro.assembly.contigs.Contig`
lists plus a measured :class:`~repro.parallel.usage.ResourceUsage`.
"""

from repro.assembly.contigs import AssemblyResult, Contig, assembly_stats, n50
from repro.assembly.dbg import (
    KmerTable,
    extract_unitigs,
)
from repro.assembly.kmers import (
    canonical_kmers_packed,
    canonical_kmers_varlen_packed,
    kmer_owner_packed,
)
from repro.assembly.registry import ASSEMBLERS, AssemblerInfo, get_assembler

__all__ = [
    "Contig",
    "AssemblyResult",
    "assembly_stats",
    "n50",
    "KmerTable",
    "extract_unitigs",
    "canonical_kmers_packed",
    "canonical_kmers_varlen_packed",
    "kmer_owner_packed",
    "ASSEMBLERS",
    "AssemblerInfo",
    "get_assembler",
]
