"""Single-node baseline assembler (Trinity analog).

Trinity (Grabherr et al. 2011) is the popular reference point in the
paper's Table V.  It is *not* part of the pipeline: it applies its own
(much lighter) read preparation and a fixed small k-mer (25), then builds
contigs greedily from high-coverage seeds.  The paper stresses that the
comparison "needs to be scrutinized" precisely because the pre-processing
differs; the analog mirrors that by trimming only hard-quality tails,
keeping duplicate reads, and assembling permissively (lower coverage
threshold, no bubble popping) — which yields the Table V shape: noticeably
lower nucleotide-level precision, comparable weighted k-mer scores.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.base import AssemblyParams, unitigs_to_contigs
from repro.assembly.cleanup import clean_unitigs
from repro.assembly.contigs import AssemblyResult, assembly_stats
from repro.assembly.dbg import build_kmer_table_packed, extract_unitigs
from repro.assembly.sweep import resolve_spectrum
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.seq.readstore import ReadStore

TRINITY_K = 25


class TrinityAssembler:
    """Independent single-node baseline with built-in light preprocessing."""

    name = "trinity"

    def __init__(self, hard_trim_quality: int = 5) -> None:
        self.hard_trim_quality = hard_trim_quality

    #: In-silico normalization target depth (Trinity's --normalize_reads).
    normalize_depth = 30

    def _prepare_fused(self, store: ReadStore, spectrum) -> np.ndarray:
        """Trinity-style preparation: trim trailing hard-low-quality
        bases, then in-silico normalization — a read is dropped when the
        k-mers it would add are already at the target depth (the median
        depth of its k-mers has reached ``normalize_depth``).  No exact
        deduplication and no N filtering (unlike the pipeline's QC).

        The 25-mer :class:`~repro.assembly.sweep.KmerSpectrum` already
        holds every read's canonical windows (``inverse`` ids at
        ``rel_positions``), so normalization needs no per-read
        extraction: a trimmed read's k-mers are exactly its spectrum
        occurrences with ``rel_position <= end - k`` (trimming only
        removes windows past the cut; the N-window set is unchanged), and
        the depth table is an array indexed by distinct id, updated in
        read order.  Returns the selected occurrence indices in stream
        order: the kept, trimmed reads' k-mer stream.
        """
        offs = spectrum.read_offsets
        rel = spectrum.rel_positions
        inv = spectrum.inverse
        depth = np.zeros(spectrum.n_distinct, dtype=np.int64)
        picked: list[np.ndarray] = []
        for i in range(store.n_reads):
            ph = store.phred(i)
            end = int(ph.size)
            while end > 0 and ph[end - 1] < self.hard_trim_quality:
                end -= 1
            if end < TRINITY_K:
                continue
            s, e = int(offs[i]), int(offs[i + 1])
            sel = np.arange(s, e, dtype=np.int64)[
                rel[s:e] <= end - TRINITY_K
            ]
            if sel.size == 0:
                continue
            idx = inv[sel]
            counts = np.sort(depth[idx])
            if int(counts[counts.size // 2]) >= self.normalize_depth:
                continue  # locus already saturated
            picked.append(sel)
            np.add.at(depth, idx, 1)
        return np.concatenate(picked) if picked else np.zeros(0, dtype=np.int64)

    def assemble(
        self,
        store: ReadStore,
        params: AssemblyParams | None = None,
        n_threads: int = 8,
        spectrum=None,
    ) -> AssemblyResult:
        """Assemble with Trinity defaults.

        ``params`` is accepted for interface compatibility but only its
        ``min_contig_length`` is honoured — Trinity fixes its own k and
        thresholds, exactly why Table V flags the comparison as indirect.
        The spectrum it reads is the one at its fixed k=25.
        """
        spectrum = resolve_spectrum(store, TRINITY_K, spectrum)
        min_contig = params.min_contig_length if params else 100
        usage = ResourceUsage(n_ranks=1)

        occ_sel = self._prepare_fused(store, spectrum)
        n_kmer_stream = int(occ_sel.size)
        sel_counts = np.bincount(
            spectrum.inverse[occ_sel], minlength=spectrum.n_distinct
        )
        present = sel_counts > 0
        table = build_kmer_table_packed(
            TRINITY_K,
            spectrum.distinct[present],
            sel_counts[present].astype(np.int64),
            presorted=True,
        )
        usage.add_phase(
            PhaseUsage(
                name="kmer_count",
                kind="kmer",
                critical_compute=n_kmer_stream / max(n_threads, 1),
                total_compute=float(n_kmer_stream),
            )
        )
        # Trinity's Inchworm prunes k-mers relative to the run's depth
        # (coverage-aware error pruning, unlike the pipeline's fixed
        # min_count=2 + dedup).  The depth-proportional threshold keeps
        # well-covered loci pristine at the cost of shallow transcripts —
        # the paper's Table V signature for Trinity: weighted k-mer scores
        # stay high while nucleotide-level recall drops.
        recurrent = sorted(
            c for c in table.count_array.tolist() if c >= 2
        )
        p90 = recurrent[int(len(recurrent) * 0.9)] if recurrent else 1
        min_count = max(3, int(p90 // 4))
        eff = AssemblyParams(
            k=TRINITY_K,
            min_count=min_count,
            min_contig_length=max(min_contig, TRINITY_K),
            clip_tips=True,       # Inchworm prunes weak dead-ends
            pop_bubbles=True,     # Butterfly resolves alternative paths
        )
        table.drop_below(eff.min_count)
        usage.peak_rank_memory_bytes = table.memory_bytes()
        usage.add_phase(
            PhaseUsage(
                name="graph_build",
                kind="graph",
                critical_compute=float(len(table)),
                total_compute=float(len(table)),
            )
        )

        unitigs, steps = extract_unitigs(table)
        unitigs, cstats = clean_unitigs(
            unitigs, eff.k, clip=eff.clip_tips, pop=eff.pop_bubbles
        )
        usage.add_phase(
            PhaseUsage(
                name="greedy_extension",
                kind="walk",
                critical_compute=float(steps + cstats.work),
                total_compute=float(steps + cstats.work),
            )
        )

        contigs = unitigs_to_contigs(unitigs, eff, self.name)
        return AssemblyResult(
            assembler=self.name,
            k=eff.k,
            contigs=contigs,
            usage=usage,
            stats={
                "distinct_kmers": len(table),
                "tips_removed": cstats.tips_removed,
                **assembly_stats(contigs),
            },
        )
