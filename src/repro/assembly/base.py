"""Shared assembler plumbing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly.contigs import Contig
from repro.assembly.dbg import Unitig
from repro.seq.alphabet import decode, reverse_complement


@dataclass(frozen=True)
class AssemblyParams:
    """Parameters common to every assembler."""

    k: int
    min_count: int = 2          # coverage threshold for solid k-mers
    min_contig_length: int = 100
    clip_tips: bool = True
    pop_bubbles: bool = True

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.min_contig_length < self.k:
            raise ValueError("min_contig_length must be >= k")


def unitigs_to_contigs(
    unitigs: list[Unitig],
    params: AssemblyParams,
    assembler: str,
) -> list[Contig]:
    """Filter unitigs by length and materialize Contig records.

    Sequences are emitted in canonical strand orientation (lexicographic
    minimum of the two strands) so output is independent of the seed
    order the walk happened to use — serial and distributed assemblies of
    the same spectrum produce byte-identical contigs.
    """
    # Unitig codes are N-free, so code bytes order exactly like letters.
    oriented = [
        (min(u.codes.tobytes(), reverse_complement(u.codes).tobytes()), u)
        for u in unitigs
        if len(u) >= params.min_contig_length
    ]
    oriented.sort(key=lambda pair: (-len(pair[0]), pair[0]))
    return [
        Contig(
            contig_id=f"{assembler}_k{params.k}_c{i:06d}",
            seq=decode(np.frombuffer(codes, dtype=np.uint8)),
            coverage=u.coverage,
            k=params.k,
            assembler=assembler,
        )
        for i, (codes, u) in enumerate(oriented)
    ]
