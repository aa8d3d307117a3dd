"""Single-node baseline assembler (Trinity analog).

Trinity (Grabherr et al. 2011) is the popular reference point in the
paper's Table V.  It is *not* part of the pipeline: it applies its own
(much lighter) read preparation and a fixed small k-mer (25), then builds
contigs greedily from high-coverage seeds.  The paper stresses that the
comparison "needs to be scrutinized" precisely because the pre-processing
differs; the analog mirrors that by trimming only hard-quality tails,
keeping duplicate reads and normalizing in silico, then pruning k-mers
against the run's own depth (``min_count = max(3, p90 // 4)`` of the
recurrent counts, never below the pipeline's 2) before the same walk and
cleanup as Velvet (tips clipped, bubbles popped) — which yields the
Table V shape: noticeably lower nucleotide-level precision, comparable
weighted k-mer scores.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.assembly import kmers
from repro.assembly.base import AssemblyParams, assemble_on_one_node, finish_assembly
from repro.assembly.contigs import AssemblyResult
from repro.assembly.dbg import KmerTable
from repro.assembly.registry import ASSEMBLERS
from repro.assembly.sweep import resolve_spectrum
from repro.seq.readstore import ReadStore

TRINITY_K = ASSEMBLERS["trinity"].fixed_k


class TrinityAssembler:
    """Independent single-node baseline with built-in light preprocessing."""

    name = "trinity"

    #: Trailing bases below this Phred quality are trimmed.
    hard_trim_quality = 5

    #: In-silico normalization target depth (Trinity's --normalize_reads).
    normalize_depth = 30

    def _prepare_fused(self, store: ReadStore, spectrum) -> np.ndarray:
        """Trinity-style preparation: trim trailing hard-low-quality
        bases, then in-silico normalization — a read is dropped when the
        k-mers it would add are already at the target depth (the median
        depth of its k-mers has reached ``normalize_depth``).  No exact
        deduplication and no N filtering (unlike the pipeline's QC).

        The spectrum already holds every read's canonical windows, in
        window start order, so normalization needs no per-read
        extraction: a trimmed read's k-mers are the prefix of its
        occurrences whose windows start at or before ``end - k``
        (trimming only removes windows past the cut; the N-window set is
        unchanged), cut where that start falls among the store's N-free
        window starts.  The depth table is an array indexed by distinct
        id, updated in read order.  Returns the selected occurrence
        indices in stream order: the kept, trimmed reads' k-mer stream.
        """
        k = spectrum.k
        offs = spectrum.read_offsets
        starts = kmers._nfree_starts(store.codes, (k,))[k]
        inv = spectrum.inverse
        depth = np.zeros(spectrum.n_distinct, dtype=np.int64)
        picked: list[np.ndarray] = []
        for i in range(store.n_reads):
            ph = store.phred(i)
            end = int(ph.size)
            while end > 0 and ph[end - 1] < self.hard_trim_quality:
                end -= 1
            if end < k:
                continue
            cut = np.searchsorted(starts, store.offsets[i] + end - k, "right")
            sel = np.arange(int(offs[i]), min(int(offs[i + 1]), int(cut)))
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
        self, store: ReadStore, params: AssemblyParams, spectrum=None
    ) -> AssemblyResult:
        """Assemble at ``params.k`` with Trinity's own thresholds: of the
        rest of ``params`` only ``min_contig_length`` is honoured, exactly
        why Table V flags the comparison as indirect.  The planner gives
        Trinity one job, at its registry ``fixed_k`` (:data:`TRINITY_K`)."""
        k = params.k
        spectrum = resolve_spectrum(store, k, spectrum)

        occ_sel = self._prepare_fused(store, spectrum)
        sel_counts = np.bincount(
            spectrum.inverse[occ_sel], minlength=spectrum.n_distinct
        )
        present = sel_counts > 0
        table = KmerTable.from_packed(
            k, spectrum.distinct[present], sel_counts[present].astype(np.int64)
        )
        # Trinity's Inchworm prunes k-mers relative to the run's depth
        # (coverage-aware error pruning, unlike the pipeline's fixed
        # min_count=2 + dedup).  The depth-proportional threshold keeps
        # well-covered loci pristine at the cost of shallow transcripts —
        # the paper's Table V signature for Trinity: weighted k-mer scores
        # stay high while nucleotide-level recall drops.  The walk then
        # clips tips (Inchworm prunes weak dead-ends) and pops bubbles
        # (Butterfly resolves alternative paths).
        recurrent = sorted(
            c for c in table.count_array.tolist() if c >= 2
        )
        p90 = recurrent[int(len(recurrent) * 0.9)] if recurrent else 1
        eff = replace(params, min_count=max(3, int(p90 // 4)))
        table.drop_below(eff.min_count)
        ordered, cstats, usage = assemble_on_one_node(
            table, int(occ_sel.size), "greedy_extension", eff.min_contig_length
        )
        result = finish_assembly(
            self.name, eff, ordered, cstats, usage, distinct_kmers=len(table)
        )
        del result.stats["bubbles_popped"]  # Trinity's stats carry no bubble count
        return result
