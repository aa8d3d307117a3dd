"""repro — a scalable pilot-based RNA-seq transcriptome profiling pipeline
for (simulated) on-demand computing clouds.

Reproduction of Shams et al., "A Scalable Pipeline for Transcriptome
Profiling Tasks with On-Demand Computing Clouds", IPDPSW 2016.

Subpackages
-----------
seq
    Sequence substrate: synthetic genomes/transcriptomes, read simulation,
    FASTA/FASTQ I/O, the paper's two data-set analogs.
parallel
    Functional simulated distributed runtimes: a BSP-executed MPI-like
    communicator and a multi-round MapReduce engine, with traffic
    accounting and the calibrated cost model.
cloud
    Discrete-event IaaS simulator: EC2-style instances, VM lifecycle and
    billing, StarCluster-style clusters, an SGE-like scheduler.
pilot
    RADICAL-Pilot analog: pilots, compute units, state machines, managers,
    schedulers and the backend state store.
assembly
    De novo de Bruijn graph assemblers: serial (Velvet-like), MPI-style
    (Ray/ABySS-like), MapReduce (Contrail-like) and the Trinity-like
    baseline, plus the assembler registry (Table I).
core
    The paper's contribution: the Rnnotator-style pipeline re-architected
    on pilots — pre-processing, multi-k multi-assembler transcript
    assembly, contig merging, quantification, differential expression,
    workflow patterns and the S1/S2 pilot-VM matching schemes.
evaluation
    DETONATE-style reference-based transcript assembly evaluation.
bench
    Experiment harness and cost-model calibration for every table/figure.
obs
    Observability: dual-clock (virtual + real) span/event tracing, a
    metrics registry, JSONL / Chrome-trace / text exporters and the
    ``python -m repro.obs <subcommand>`` trace-analytics CLI.
"""

import logging as _logging

__version__ = "1.0.0"

__all__ = [
    "seq",
    "parallel",
    "cloud",
    "pilot",
    "assembly",
    "core",
    "evaluation",
    "bench",
    "obs",
]

# Library logging convention: quiet unless the application configures
# handlers (repro.obs.logging_setup is the batteries-included way).
_logging.getLogger(__name__).addHandler(_logging.NullHandler())
