"""Post-processing: merge contig sets across k values and assemblers.

Rnnotator merges its multi-k assemblies with VMATCH (containment /
near-duplicate detection) and Minimus2 (suffix-prefix overlap joining).
This stage does an exact version of both:

1. **containment removal** — in ``(-length, sequence)`` order, a contig
   that is an exact substring of a kept one on either strand is dropped:
   the first of two equal copies survives, and a one-base variant stays;
2. **overlap joining** — a contig whose last ``min_overlap`` bases equal
   another's first ``min_overlap`` is greedily concatenated with it.

The paper notes (§IV.B.iii) that this default Rnnotator merge is tuned
for multi-k merging with a *single* assembler and is probably suboptimal
for MAMP ensembles — reproduced here: the same code path handles both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.assembly.contigs import Contig
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.seq.alphabet import reverse_complement

MIN_OVERLAP = 40
SEED_K = 21
SEED_STRIDE = 8


@dataclass
class MergeResult:
    transcripts: list[Contig]
    usage: ResourceUsage
    input_contigs: int = 0
    contained_removed: int = 0
    joins: int = 0

    @property
    def output_contigs(self) -> int:
        return len(self.transcripts)


def _seed_positions(seq: str, stride: int = SEED_STRIDE) -> list[str]:
    return [
        seq[i : i + SEED_K]
        for i in range(0, max(len(seq) - SEED_K + 1, 1), stride)
    ]


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _remove_contained(
    contigs: list[Contig], result: MergeResult
) -> list[Contig]:
    """Drop contigs contained, on either strand, in one kept before them."""
    ordered = sorted(contigs, key=lambda c: (-len(c), c.seq))
    kept: list[Contig] = []
    # seed -> bitmask of the kept contigs holding it (bit i is kept[i])
    seed_index: dict[str, int] = {}
    work, n_candidates, last = 0, 0, None
    for c in ordered:
        if c.seq == last:
            # Copies are adjacent and only the first is kept: a copy is
            # contained, its candidates its predecessor's plus that one if
            # kept (``contained`` still holds the predecessor's verdict).
            n_candidates += not contained
            contained = True
        else:
            last, rc = c.seq, reverse_complement(c.seq)
            if len(c) < SEED_K:  # its one seed is itself: every kept contig
                candidates = (1 << len(kept)) - 1
            else:
                candidates = 0
                for seed in _seed_positions(c.seq) + _seed_positions(rc):
                    candidates |= seed_index.get(seed, 0)
            n_candidates = candidates.bit_count()
            contained = any(
                c.seq in kept[i].seq or rc in kept[i].seq for i in _bits(candidates)
            )
        work += n_candidates + len(c)
        if contained:
            result.contained_removed += 1
            continue
        bit = 1 << len(kept)
        kept.append(c)
        # Index every position of kept contigs so strided query seeds of a
        # contained contig always hit regardless of offset alignment.
        for seed in _seed_positions(c.seq, stride=1):
            seed_index[seed] = seed_index.get(seed, 0) | bit
    result.usage.add_phase(
        PhaseUsage(
            name="containment",
            kind="merge",
            critical_compute=float(work),
            total_compute=float(work),
            serial_compute=float(work),
        )
    )
    return kept


def _join_overlaps(
    contigs: list[Contig], min_overlap: int, result: MergeResult
) -> list[Contig]:
    """Greedy exact suffix-prefix joining (Minimus2 analog)."""
    seqs = [c.seq for c in contigs]
    covs = [c.coverage for c in contigs]
    prefix_index: dict[str, int] = {}
    for i, s in enumerate(seqs):
        prefix_index.setdefault(s[:min_overlap], i)

    consumed = [False] * len(seqs)
    out: list[str] = []
    out_cov: list[float] = []
    work = 0
    for i in range(len(seqs)):
        if consumed[i]:
            continue
        consumed[i] = True
        cur = seqs[i]
        cov = covs[i]
        n_parts = 1
        while True:
            work += 1
            j = prefix_index.get(cur[-min_overlap:])
            if j is None or consumed[j] or seqs[j][:min_overlap] != cur[-min_overlap:]:
                break
            consumed[j] = True
            cur = cur + seqs[j][min_overlap:]
            cov += covs[j]
            n_parts += 1
            result.joins += 1
        out.append(cur)
        out_cov.append(cov / n_parts)
    result.usage.add_phase(
        PhaseUsage(
            name="overlap_join",
            kind="merge",
            critical_compute=float(work + sum(map(len, out))),
            total_compute=float(work + sum(map(len, out))),
            serial_compute=float(work),
        )
    )
    return [
        Contig(
            contig_id=f"merged_t{i:06d}",
            seq=s,
            coverage=c,
            k=0,
            assembler="merged",
        )
        for i, (s, c) in enumerate(zip(out, out_cov))
    ]


def merge_contigs(
    contig_sets: list[list[Contig]],
    min_overlap: int = MIN_OVERLAP,
) -> MergeResult:
    """Merge any number of contig sets into one transcript set."""
    if min_overlap < SEED_K:
        raise ValueError(f"min_overlap must be >= {SEED_K}")
    usage = ResourceUsage(n_ranks=1)
    result = MergeResult(transcripts=[], usage=usage)
    flat = [c for cs in contig_sets for c in cs]
    result.input_contigs = len(flat)
    if not flat:
        return result

    kept = _remove_contained(flat, result)
    merged = _join_overlaps(kept, min_overlap, result)
    merged.sort(key=lambda c: (-len(c), c.seq))
    result.transcripts = merged
    usage.peak_rank_memory_bytes = int(
        sum(len(c) for c in flat) * 2.5
    )
    return result
