"""DETONATE REF-EVAL metric analogs (Li et al. 2014).

Metrics reported in the paper's Table V:

* **nucleotide-level precision** — fraction of assembled bases that match
  reference bases under the best alignment,
* **nucleotide-level recall** — fraction of reference bases covered by a
  matching assembled base,
* **F1** — their harmonic mean,
* **weighted k-mer recall (WKR)** — k-mer recall where each reference
  transcript's k-mers are weighted by its expression (read abundance), so
  well-supported transcripts dominate the score, and
* **kc score** — WKR minus an inverse-compression penalty proportional to
  the assembly's k-mer count (DETONATE's guard against trivially
  recall-maximizing assemblies that output everything).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly import packed as packedmod
from repro.assembly.contigs import Contig
from repro.assembly.kmers import canonical_kmers_varlen_packed
from repro.evaluation.align import AlignmentIndex, align_contig
from repro.seq.alphabet import encode, reverse_complement
from repro.seq.transcriptome import Transcriptome

#: k used by the k-mer level metrics (DETONATE's default is 25).
KMER_METRIC_K = 25


@dataclass(frozen=True)
class DetonateScores:
    """The Table V score tuple for one assembly."""

    precision: float
    recall: float
    f1: float
    weighted_kmer_recall: float
    kc_score: float
    n_contigs: int
    assembly_bp: int

    def nucleotide_tuple(self) -> tuple[float, float, float]:
        return (self.precision, self.recall, self.f1)


def _kmer_keys(seqs: list[str], k: int) -> np.ndarray:
    """Distinct canonical k-mers as a sorted packed-key array.

    No per-k-mer Python objects: membership goes through the vectorized
    ``searchsorted`` probe of :func:`repro.assembly.packed.keys_in`.
    """
    rows = canonical_kmers_varlen_packed(seqs, k)
    return packedmod.unique_keys(rows, k)


def evaluate(
    contigs: list[Contig],
    reference: Transcriptome,
    total_read_kmers: int | None = None,
) -> DetonateScores:
    """Score an assembly against a reference transcriptome.

    ``total_read_kmers`` normalizes the kc penalty; when None it defaults
    to the reference k-mer mass times a typical coverage (the penalty is a
    small correction either way).
    """
    refs = [t.seq for t in reference.transcripts]
    if not refs:
        raise ValueError("empty reference transcriptome")

    # -- nucleotide level ---------------------------------------------------
    index = AlignmentIndex(refs)
    covered = [np.zeros(len(r), dtype=bool) for r in refs]
    matched_bases = 0
    assembly_bp = sum(len(c) for c in contigs)
    for contig in contigs:
        aln = align_contig(index, contig.seq)
        if aln is None or aln.length == 0:
            continue
        matched_bases += aln.matches
        ref_codes = index.ref_codes[aln.transcript_index]
        # Re-derive the matched positions on the reference for recall.
        seq = contig.seq if aln.strand == 1 else reverse_complement(contig.seq)
        ccodes = encode(seq)
        seg_c = ccodes[aln.contig_start : aln.contig_start + aln.length]
        seg_r = ref_codes[aln.ref_start : aln.ref_start + aln.length]
        eq = seg_c == seg_r
        covered[aln.transcript_index][aln.ref_start : aln.ref_start + aln.length] |= eq

    total_ref_bp = sum(len(r) for r in refs)
    covered_bp = int(sum(c.sum() for c in covered))
    precision = matched_bases / assembly_bp if assembly_bp else 0.0
    recall = covered_bp / total_ref_bp if total_ref_bp else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )

    # -- k-mer level ----------------------------------------------------------
    assembly_kmers = _kmer_keys([c.seq for c in contigs], KMER_METRIC_K)
    weights = reference.read_sampling_weights()
    wkr_num = 0.0
    wkr_den = 0.0
    for t, w in zip(reference.transcripts, weights):
        t_kmers = _kmer_keys([t.seq], KMER_METRIC_K)
        if t_kmers.size == 0:
            continue
        present = int(packedmod.keys_in(t_kmers, assembly_kmers).sum())
        wkr_num += w * present / len(t_kmers)
        wkr_den += w
    wkr = wkr_num / wkr_den if wkr_den else 0.0

    if total_read_kmers is None:
        total_read_kmers = 50 * sum(
            max(len(r) - KMER_METRIC_K + 1, 0) for r in refs
        )
    penalty = len(assembly_kmers) / (2.0 * max(total_read_kmers, 1))
    kc = wkr - penalty

    return DetonateScores(
        precision=round(precision, 4),
        recall=round(recall, 4),
        f1=round(f1, 4),
        weighted_kmer_recall=round(wkr, 4),
        kc_score=round(kc, 4),
        n_contigs=len(contigs),
        assembly_bp=assembly_bp,
    )
