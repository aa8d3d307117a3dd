"""Synthetic genome generation.

The paper's data sets come from two real organisms (Table II):

* *B. glumae* — a bacterium, 6.7 Mb genome, 5,223 protein genes.
* *P. crispa* — a fungus, 34.5 Mb genome, 13,617 protein genes.

We generate structurally analogous genomes: a linear chromosome sequence
with non-overlapping gene loci on both strands.  Prokaryote-style genomes
place intron-less genes densely (optionally grouped into operons);
eukaryote-style genomes insert introns so that the transcript (mature mRNA)
differs from the genomic locus — which matters for assembly difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.seq import alphabet
from repro.seq.alphabet import random_dna


@dataclass(frozen=True)
class Exon:
    """Half-open interval [start, end) in gene-local coordinates."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid exon interval [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Gene:
    """A gene locus.

    ``start``/``end`` are genomic, half-open.  ``strand`` is ``+1``/``-1``.
    ``exons`` are in gene-local coordinates (relative to ``start``); an
    intron-less gene has a single exon covering the locus.
    """

    gene_id: str
    start: int
    end: int
    strand: int
    exons: tuple[Exon, ...]
    operon_id: str | None = None

    def __post_init__(self) -> None:
        if self.strand not in (1, -1):
            raise ValueError("strand must be +1 or -1")
        if self.end <= self.start:
            raise ValueError("empty gene locus")
        prev_end = -1
        for ex in self.exons:
            if ex.start <= prev_end:
                raise ValueError("exons must be sorted and non-overlapping")
            prev_end = ex.end
        if self.exons and self.exons[-1].end > self.end - self.start:
            raise ValueError("exon extends past gene locus")


@dataclass
class Genome:
    """A synthetic genome: one chromosome plus annotated genes."""

    name: str
    sequence: np.ndarray  # uint8 code array
    genes: list[Gene] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.sequence.shape[0])

    @property
    def size_bp(self) -> int:
        return len(self)

    def gene_sequence(self, gene: Gene) -> np.ndarray:
        """Mature mRNA sequence (exons spliced, strand-corrected) as codes."""
        locus = self.sequence[gene.start : gene.end]
        mrna = np.concatenate([locus[ex.start : ex.end] for ex in gene.exons])
        if gene.strand == -1:
            mrna = alphabet.reverse_complement(mrna)
        return mrna


@dataclass(frozen=True)
class GenomeSpec:
    """Parameters for :func:`synthesize_genome`."""

    name: str
    size_bp: int
    n_genes: int
    gc: float = 0.55
    mean_gene_length: int = 1000
    min_gene_length: int = 200
    intron_rate: float = 0.0  # expected introns per kb of exon
    mean_intron_length: int = 80
    operon_fraction: float = 0.0  # fraction of genes grouped into operons
    mean_operon_size: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size_bp <= 0 or self.n_genes < 0:
            raise ValueError("size_bp must be positive and n_genes >= 0")
        if self.min_gene_length < 1 or self.mean_gene_length < self.min_gene_length:
            raise ValueError("gene length parameters inconsistent")


def _draw_gene_lengths(spec: GenomeSpec, rng: np.random.Generator) -> np.ndarray:
    """Gamma-distributed mRNA lengths, floored at the minimum."""
    shape = 2.0
    scale = max(spec.mean_gene_length - spec.min_gene_length, 1) / shape
    lengths = spec.min_gene_length + rng.gamma(shape, scale, size=spec.n_genes)
    return lengths.astype(np.int64)


def synthesize_genome(spec: GenomeSpec) -> Genome:
    """Generate a genome matching ``spec``.

    Genes are laid out left to right with random intergenic gaps sized so
    everything fits in ``size_bp``; raises ValueError when the requested
    gene content cannot fit.
    """
    rng = np.random.default_rng(spec.seed)
    mrna_lengths = _draw_gene_lengths(spec, rng)

    # Introns enlarge the genomic locus relative to the mRNA.
    n_introns = rng.poisson(spec.intron_rate * mrna_lengths / 1000.0)
    intron_total = np.zeros(spec.n_genes, dtype=np.int64)
    for i, k in enumerate(n_introns):
        if k > 0:
            intron_total[i] = int(
                rng.gamma(2.0, spec.mean_intron_length / 2.0, size=k).sum()
            )
    locus_lengths = mrna_lengths + intron_total

    total_genic = int(locus_lengths.sum())
    if total_genic >= spec.size_bp:
        raise ValueError(
            f"genes ({total_genic} bp) do not fit in genome ({spec.size_bp} bp)"
        )

    slack = spec.size_bp - total_genic
    # Dirichlet split of the slack into n_genes+1 intergenic gaps.
    if spec.n_genes > 0:
        gaps = rng.dirichlet(np.ones(spec.n_genes + 1)) * slack
        gaps = gaps.astype(np.int64)
    else:
        gaps = np.array([slack], dtype=np.int64)

    sequence = random_dna(spec.size_bp, rng, gc=spec.gc)
    genes: list[Gene] = []

    # Operon assignment: consecutive genes share an operon id and strand.
    operon_ids = _assign_operons(spec, rng)

    pos = int(gaps[0])
    strand = 1
    current_operon: str | None = None
    for i in range(spec.n_genes):
        locus_len = int(locus_lengths[i])
        mrna_len = int(mrna_lengths[i])
        op = operon_ids[i]
        if op is None or op != current_operon:
            strand = 1 if rng.random() < 0.5 else -1
        current_operon = op

        exons = _split_exons(mrna_len, int(n_introns[i]), locus_len, rng)
        genes.append(
            Gene(
                gene_id=f"{spec.name}_g{i:05d}",
                start=pos,
                end=pos + locus_len,
                strand=strand,
                exons=exons,
                operon_id=op,
            )
        )
        pos += locus_len + int(gaps[i + 1])

    return Genome(name=spec.name, sequence=sequence, genes=genes)


def _assign_operons(spec: GenomeSpec, rng: np.random.Generator) -> list[str | None]:
    ids: list[str | None] = [None] * spec.n_genes
    if spec.operon_fraction <= 0 or spec.n_genes == 0:
        return ids
    i = 0
    op_counter = 0
    while i < spec.n_genes:
        if rng.random() < spec.operon_fraction:
            size = max(2, int(rng.poisson(spec.mean_operon_size)))
            op_id = f"{spec.name}_op{op_counter:04d}"
            op_counter += 1
            for j in range(i, min(i + size, spec.n_genes)):
                ids[j] = op_id
            i += size
        else:
            i += 1
    return ids


def _split_exons(
    mrna_len: int, n_introns: int, locus_len: int, rng: np.random.Generator
) -> tuple[Exon, ...]:
    """Split an mRNA of ``mrna_len`` into ``n_introns + 1`` exons placed in a
    locus of ``locus_len`` with the introns between them."""
    n_exons = n_introns + 1
    if n_exons == 1 or mrna_len < 2 * n_exons:
        return (Exon(0, locus_len),) if n_introns == 0 else (Exon(0, mrna_len),)

    # Exon lengths: random positive split of the mRNA.
    cuts = np.sort(rng.choice(np.arange(1, mrna_len), size=n_exons - 1, replace=False))
    exon_lens = np.diff(np.concatenate(([0], cuts, [mrna_len])))

    intron_total = locus_len - mrna_len
    if intron_total < n_introns:  # degenerate; collapse introns
        return (Exon(0, mrna_len),)
    intron_lens = rng.multinomial(
        intron_total - n_introns, np.ones(n_introns) / n_introns
    ) + 1

    exons = []
    pos = 0
    for i, el in enumerate(exon_lens):
        exons.append(Exon(pos, pos + int(el)))
        pos += int(el)
        if i < n_introns:
            pos += int(intron_lens[i])
    return tuple(exons)
