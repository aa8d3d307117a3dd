"""Analogs of the paper's two benchmark data sets (Table II).

The real data (B. glumae SRX129586 and the P. crispa set of Gordon et al.
2015) cannot ship, so each data set is described twice:

* **paper scale** — the Table II numbers (genome size, gene count, FASTQ
  bytes, read count/length, pairedness, pre-processing memory).  These feed
  the memory/transfer/cost models so capacity results (Table IV) and TTCs
  reflect the *real* data volumes.
* **simulation scale** — a scaled-down synthetic genome + transcriptome +
  read set with the same qualitative structure (prokaryote 50 bp single-end
  vs fungus 100 bp paired-end, error/N content, operons vs introns).  The
  functional pipeline runs on this; the ``scale`` factor is recorded in the
  outputs and in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.seq import transcriptome as txome_mod
from repro.seq.fastq import fastq_bytes_estimate
from repro.seq.genome import Genome, GenomeSpec, synthesize_genome
from repro.seq.reads import ReadSimSpec, ReadSimulator, SequencingRun
from repro.seq.transcriptome import Transcriptome

GB = 1024**3
MB = 1024**2


@dataclass(frozen=True)
class DatasetSpec:
    """Full description of one benchmark data set (paper scale + generator)."""

    name: str
    organism_type: str  # "bacteria" | "fungus"
    genome_size_bp: int
    n_protein_genes: int
    fastq_bytes: int
    read_length: int
    n_reads: int  # fragments (pairs count once, as in Table II "x 2")
    paired: bool
    platform: str
    preprocess_memory_bytes: int
    preprocessed_bytes: int
    kmer_list: tuple[int, ...]
    # generator knobs
    gc: float = 0.55
    intron_rate: float = 0.0
    operon_fraction: float = 0.0
    expression_sigma: float = 1.2

    @property
    def total_read_records(self) -> int:
        return self.n_reads * (2 if self.paired else 1)


#: *Burkholderia glumae* analog — Table II column 1.
B_GLUMAE = DatasetSpec(
    name="B_glumae",
    organism_type="bacteria",
    genome_size_bp=6_700_000,
    n_protein_genes=5_223,
    fastq_bytes=int(3.8 * GB),
    read_length=50,
    n_reads=16_263_310,
    paired=False,
    platform="Illumina GAII",
    preprocess_memory_bytes=15 * GB,
    preprocessed_bytes=175 * MB,
    kmer_list=(35, 37, 39, 41, 43, 45, 47),
    gc=0.68,  # Burkholderia are GC-rich
    operon_fraction=0.4,
)

#: The §IV.C sample run's data: an unpublished *paired-end* B. glumae set,
#: 4.4 GB total, for which the pipeline needed two k-mer assemblies.
B_GLUMAE_PE = DatasetSpec(
    name="B_glumae_PE",
    organism_type="bacteria",
    genome_size_bp=6_700_000,
    n_protein_genes=5_223,
    fastq_bytes=int(4.4 * GB),
    read_length=100,
    n_reads=8_800_000,
    paired=True,
    platform="Illumina HiSeq",
    preprocess_memory_bytes=7 * GB,
    preprocessed_bytes=400 * MB,
    kmer_list=(51, 55),
    gc=0.68,
    operon_fraction=0.4,
)

#: *Plicaturopsis crispa* analog — Table II column 2.
P_CRISPA = DatasetSpec(
    name="P_crispa",
    organism_type="fungus",
    genome_size_bp=34_500_000,
    n_protein_genes=13_617,
    fastq_bytes=int(26.2 * GB),
    read_length=100,
    n_reads=54_168_576,
    paired=True,
    platform="Illumina HiSeq",
    preprocess_memory_bytes=40 * GB,
    preprocessed_bytes=int(9.4 * GB),
    kmer_list=(51, 55, 59, 63),
    gc=0.52,
    intron_rate=2.5,
)


@dataclass
class Dataset:
    """A generated (simulation-scale) data set plus its paper-scale spec."""

    spec: DatasetSpec
    scale: float
    genome: Genome
    transcriptome: Transcriptome
    run: SequencingRun

    @property
    def sim_fastq_bytes(self) -> int:
        return fastq_bytes_estimate(
            self.run.n_fragments, self.spec.read_length, self.spec.paired
        )

    @property
    def read_scale(self) -> float:
        """Exact simulated/paper read-record ratio.

        Work, traffic and memory measured on the simulated reads are
        extrapolated to paper scale by dividing by this — it accounts for
        ``coverage_boost`` as well as ``scale``.
        """
        records = len(self.run.reads) + len(self.run.mates)
        return records / self.spec.total_read_records

    def paper_scale_bytes(self, sim_bytes: int) -> int:
        """Extrapolate a simulation-scale byte count back to paper scale."""
        return int(sim_bytes / self.scale)


def generate_dataset(
    spec: DatasetSpec,
    scale: float = 0.001,
    seed: int = 0,
    coverage_boost: float = 1.0,
) -> Dataset:
    """Generate a scaled-down analog of ``spec``.

    ``scale`` multiplies genome size, gene count and read count alike, so
    sequencing coverage is preserved.  ``coverage_boost`` multiplies the
    read count only (useful for tiny test fixtures where integer floors
    would otherwise starve coverage).
    """
    if not 0 < scale <= 1:
        raise ValueError("scale must be in (0, 1]")

    n_genes = max(5, int(round(spec.n_protein_genes * scale)))
    genome_size = max(n_genes * 1400, int(round(spec.genome_size_bp * scale)))
    n_reads = max(500, int(round(spec.n_reads * scale * coverage_boost)))

    gspec = GenomeSpec(
        name=spec.name,
        size_bp=genome_size,
        n_genes=n_genes,
        gc=spec.gc,
        intron_rate=spec.intron_rate,
        operon_fraction=spec.operon_fraction,
        seed=seed,
    )
    genome = synthesize_genome(gspec)
    rng = np.random.default_rng(seed + 1)
    txome = txome_mod.from_genome(genome, rng, sigma=spec.expression_sigma)

    rspec = ReadSimSpec(
        read_length=spec.read_length,
        n_reads=n_reads,
        paired=spec.paired,
        fragment_mean=max(220, spec.read_length * 2),
        platform=spec.platform,
        seed=seed + 2,
    )
    run = ReadSimulator(txome, rspec).run()
    return Dataset(spec=spec, scale=scale, genome=genome, transcriptome=txome, run=run)


def tiny_dataset(
    paired: bool = False, seed: int = 0, coverage_boost: float = 1.0
) -> Dataset:
    """A very small fixture data set for unit tests (sub-second to build).

    ``coverage_boost`` multiplies the read count only (~10x transcriptome
    coverage at 1.0) — useful when an example needs deeper assemblies.
    """
    base = P_CRISPA if paired else B_GLUMAE
    spec = replace(
        base,
        name=base.name + "_tiny",
        n_protein_genes=2_000,
        genome_size_bp=2_000_000,
        n_reads=400_000,
    )
    return generate_dataset(
        spec, scale=0.01, seed=seed, coverage_boost=coverage_boost
    )
