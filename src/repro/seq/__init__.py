"""Sequence substrate: DNA alphabet, FASTA/FASTQ I/O, synthetic genomes,
transcriptomes, RNA-seq read simulation and the paper's dataset analogs.

This subpackage stands in for the real sequencing data the paper uses
(B. glumae SRX129586 and the P. crispa data set of Gordon et al. 2015),
which cannot be shipped.  See DESIGN.md section 2 for the substitution
rationale.
"""

from repro.seq.alphabet import (
    decode,
    encode,
    gc_content,
    random_dna,
    reverse_complement,
)
from repro.seq.fastq import FastqRecord, read_fastq, write_fastq
from repro.seq.readstore import ReadStore, ReadStoreHandle
from repro.seq.genome import Gene, Genome, GenomeSpec, synthesize_genome
from repro.seq.transcriptome import Transcript, Transcriptome, expression_profile
from repro.seq.reads import ReadSimulator, ReadSimSpec, SequencingRun
from repro.seq.datasets import DatasetSpec, B_GLUMAE, P_CRISPA, generate_dataset

__all__ = [
    "encode",
    "decode",
    "reverse_complement",
    "gc_content",
    "random_dna",
    "FastqRecord",
    "read_fastq",
    "write_fastq",
    "ReadStore",
    "ReadStoreHandle",
    "Gene",
    "Genome",
    "GenomeSpec",
    "synthesize_genome",
    "Transcript",
    "Transcriptome",
    "expression_profile",
    "ReadSimulator",
    "ReadSimSpec",
    "SequencingRun",
    "DatasetSpec",
    "B_GLUMAE",
    "P_CRISPA",
    "generate_dataset",
]
