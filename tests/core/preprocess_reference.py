"""Reference read QC, one ``FastqRecord`` at a time — the test oracle.

This is the loop ``repro.core.preprocess`` shipped before QC became
array work on a raw ``ReadStore``, kept verbatim: adapter by
``str.find``, 3' trim by ``str.rstrip`` over the Phred+33 string,
N-drop by ``"N" in seq``, dedup through a ``set[str]``, one new record
per survivor.  ``test_preprocess_kernel.py`` requires the kernels to
return the same counters, survivors (and their order), store digest and
usage on ``ACGTN`` input; outside that alphabet the loop is case- and
IUPAC-blind, which is the bug the kernels' one alphabet rule fixes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.preprocess import PreprocessParams
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.seq.fastq import PHRED_OFFSET, FastqRecord
from repro.seq.reads import ADAPTER

COUNTERS = (
    "input_reads",
    "output_reads",
    "modal_read_length",
    "trimmed",
    "dropped_n",
    "dropped_short",
    "dropped_duplicate",
    "adapters_clipped",
    "input_bases",
    "output_bases",
)


@dataclass
class ReferenceResult:
    reads: list[FastqRecord]
    usage: ResourceUsage
    input_reads: int = 0
    trimmed: int = 0
    dropped_n: int = 0
    dropped_short: int = 0
    dropped_duplicate: int = 0
    adapters_clipped: int = 0
    input_bases: int = 0
    output_bases: int = 0

    @property
    def output_reads(self) -> int:
        return len(self.reads)

    @property
    def modal_read_length(self) -> int:
        if not self.reads:
            return 0
        lengths = np.array([len(r) for r in self.reads])
        values, counts = np.unique(lengths, return_counts=True)
        return int(values[counts.argmax()])


def _trim_read(
    rec: FastqRecord, clip_adapters: bool, low_quality: str
) -> tuple[str, bool, bool]:
    """Returns (trimmed sequence, was_trimmed, adapter_clipped).

    ``low_quality`` holds every Phred+33 character below the quality
    threshold; the 3' trim strips them off the quality string.
    """
    seq = rec.seq
    clipped = False
    if clip_adapters:
        idx = seq.find(ADAPTER)
        if idx >= 0:
            seq = seq[:idx]
            clipped = True
    if not rec.qual.isascii():
        raise ValueError(f"non-ASCII quality string for read {rec.id}")
    end = len(rec.qual[: len(seq)].rstrip(low_quality))
    return seq[:end], end < len(rec.seq), clipped


def preprocess_reference(
    reads: list[FastqRecord],
    params: PreprocessParams | None = None,
) -> ReferenceResult:
    """Run the QC stage over ``reads`` (mates included, interleaved)."""
    params = params or PreprocessParams()
    usage = ResourceUsage(n_ranks=1)

    out: list[FastqRecord] = []
    seen: set[str] = set()
    res = ReferenceResult(reads=out, usage=usage)
    res.input_reads = len(reads)
    low_quality = "".join(
        map(chr, range(PHRED_OFFSET + params.quality_threshold))
    )

    for rec in reads:
        res.input_bases += len(rec)
        seq, was_trimmed, clipped = _trim_read(
            rec, params.clip_adapters, low_quality
        )
        if clipped:
            res.adapters_clipped += 1
        if was_trimmed or clipped:
            res.trimmed += 1
        if params.drop_n and "N" in seq:
            res.dropped_n += 1
            continue
        if len(seq) < params.min_length:
            res.dropped_short += 1
            continue
        if params.dedup:
            if seq in seen:
                res.dropped_duplicate += 1
                continue
            seen.add(seq)
        out.append(FastqRecord(id=rec.id, seq=seq, qual=rec.qual[: len(seq)]))
        res.output_bases += len(seq)

    usage.add_phase(
        PhaseUsage(
            name="preprocess",
            kind="preprocess",
            critical_compute=res.input_bases / max(params.n_threads, 1),
            total_compute=float(res.input_bases),
        )
    )
    # Peak footprint: the dedup hash holds every unique read sequence.
    usage.peak_rank_memory_bytes = int(res.output_bases * 1.6) + 64 * len(out)
    return res
