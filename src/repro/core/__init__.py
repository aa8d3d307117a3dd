"""The paper's contribution: the pilot-based Rnnotator pipeline.

The four Rnnotator stages (Fig. 1) re-architected on pilots:

1. **pre-processing** (:mod:`preprocess`) — read QC, deduplication,
   adapter/N handling and data-dependent k-mer list selection,
2. **transcript assembly** (:mod:`multikmer`) — multi-k, multi-assembler
   jobs fanned out over the pilot's cluster,
3. **post-processing** (:mod:`merge`) — VMATCH/Minimus2-style contig
   merging across k values and assemblers, and
4. **quantification** (:mod:`quantify`) with optional **differential
   expression** (:mod:`diffexpr`).

The orchestration layer adds the paper's cloud machinery: the three
workflow patterns of Fig. 2 (:mod:`workflow`), the S1/S2 pilot-VM
matching schemes of Fig. 5 (:mod:`schemes`), the dynamic planner that
sizes pilots from pre-processing output (:mod:`planner`), the
paper-scale memory model behind Table IV (:mod:`memory`), and the
end-to-end driver (:mod:`rnnotator`).
"""

from repro.core.memory import task_memory_bytes
from repro.core.merge import MergeResult, merge_contigs
from repro.core.planner import AssemblyPlan, plan_assembly, select_kmer_list
from repro.core.preprocess import PreprocessParams, PreprocessResult, preprocess
from repro.core.quantify import QuantificationResult, quantify
from repro.core.rnnotator import PipelineConfig, PipelineResult, RnnotatorPipeline
from repro.core.schemes import MatchingScheme
from repro.core.workflow import WorkflowPattern

__all__ = [
    "preprocess",
    "PreprocessParams",
    "PreprocessResult",
    "merge_contigs",
    "MergeResult",
    "quantify",
    "QuantificationResult",
    "select_kmer_list",
    "plan_assembly",
    "AssemblyPlan",
    "task_memory_bytes",
    "MatchingScheme",
    "WorkflowPattern",
    "RnnotatorPipeline",
    "PipelineConfig",
    "PipelineResult",
]
