"""Branch contracts (ROADMAP 16(c)): what each assembler emits today
where the de Bruijn graph branches.

Three small graphs, each a 300-bp transcript tiled by error-free reads
at every offset on both strands, so every solid k-mer is seen ~70 times:

* a SNP bubble: two more reads carry one substitution mid-transcript,
  a parallel path of k k-mers seen twice;
* an error tip: two more reads end in a wrong base, a one-k-mer dead
  end seen twice;
* a repeat shorter than k: one (k-1)-mer occurs twice in the
  transcript, with different bases on either side of each copy, so its
  junction has two ways in and two ways out (a shorter repeat would not
  branch the graph at all).

Velvet, Ray, ABySS and Contrail all run the same ``clean_unitigs`` (tips,
then bubbles), and none joins unitigs again after it, so the first three
break the transcript at every junction the cleanup leaves behind.
Contrail's rounds stop early (ROADMAP 3(a)): it emits fragments, and the
error branches on them are not tips or bubbles to the cleanup.

Each contig is pinned as the ``(start, end)`` it spells on the
transcript, else on the erroneous read, beside the run's tips removed
and bubbles popped.  ROADMAP 13 changes these pins per
assembler, citing each tool's published rule; the de Bruijn oracle
(``test_debruijn_oracle.py``) must hold under every such change.
"""

import numpy as np
import pytest

from repro.assembly.base import AssemblyParams
from repro.assembly.registry import run_assembler
from repro.seq.alphabet import reverse_complement
from repro.seq.fastq import FastqRecord
from repro.seq.readstore import ReadStore

K = 25
READ_LENGTH = 60
PARAMS = AssemblyParams(k=K, min_contig_length=K)  # every unitig is a contig


def _random(rng, n: int) -> str:
    return "".join("ACGT"[b] for b in rng.integers(0, 4, n))


def _substitute(seq: str, i: int) -> str:
    return seq[:i] + "CGTA"["ACGT".index(seq[i])] + seq[i + 1 :]


def _tiles(seq: str) -> list[str]:
    """One read at every offset of ``seq``, once per strand."""
    reads = []
    for start in range(len(seq) - READ_LENGTH + 1):
        read = seq[start : start + READ_LENGTH]
        reads += [read, reverse_complement(read)]
    return reads


def _repeat_transcript(rng) -> str:
    """300 bp holding one (k-1)-mer twice, each copy flanked by bases
    the other copy's flanks do not repeat."""
    repeat = _random(rng, K - 1)
    a, b, c = _random(rng, 100), _random(rng, 80), _random(rng, 72)
    if a[-1] == b[-1]:
        b = _substitute(b, len(b) - 1)
    if b[0] == c[0]:
        c = _substitute(c, 0)
    return a + repeat + b + repeat + c


def _cases():
    """``{case: (transcript, erroneous read, reads)}``."""
    rng = np.random.default_rng(16)
    transcript = _random(rng, 300)
    snp = _substitute(transcript, 150)[120:180]
    tip = _substitute(transcript[100:160], READ_LENGTH - 1)
    repeat = _repeat_transcript(rng)
    return {
        "snp bubble": (transcript, snp, _tiles(transcript) + [snp] * 2),
        "error tip": (transcript, tip, _tiles(transcript) + [tip] * 2),
        "repeat of k-1": (repeat, "", _tiles(repeat)),
    }


CASES = _cases()


def _span(seq: str, text: str) -> tuple[int, int] | None:
    for strand in (seq, reverse_complement(seq)):
        if (start := text.find(strand)) >= 0:
            return start, start + len(seq)
    return None


def emitted(assembler: str, case: str) -> tuple:
    """``(ref spans, err spans, tips removed, bubbles popped)`` of one
    run: each contig as the ``(start, end)`` it spells on either strand
    of the transcript, else of the erroneous read."""
    transcript, error, reads = CASES[case]
    store = ReadStore.from_reads(
        [FastqRecord(f"r{i}", s, "I" * len(s)) for i, s in enumerate(reads)]
    )
    result = run_assembler(assembler, store, PARAMS, n_ranks=4)
    ref, err = [], []
    for contig in result.contigs:
        if (span := _span(contig.seq, transcript)) is not None:
            ref.append(span)
        elif (span := _span(contig.seq, error)) is not None:
            err.append(span)
        else:
            raise AssertionError(f"{contig.seq} spells no input sequence")
    stats = result.stats
    return sorted(ref), sorted(err), stats["tips_removed"], stats["bubbles_popped"]


#: Velvet, Ray and ABySS emit the same contigs.  The bubble: the error
#: branch is popped and the reference branch (2k - 1 = 49 bp) stays a
#: contig between the flanks, each overlapping it by k - 1.  The tip: it
#: is clipped, and the transcript stays split where it hung.  The
#: repeat: both copies are one junction, so the transcript is three
#: unitigs — in, a loop from the junction back to it, out.
SHARED = {
    "snp bubble": ([(0, 150), (126, 175), (151, 300)], [], 0, 1),
    "error tip": ([(0, 159), (135, 300)], [], 1, 0),
    "repeat of k-1": ([(0, 124), (100, 228), (204, 300)], [], 0, 0),
}

#: Contrail stops compressing early, so every case is fragments (and,
#: for the bubble, error-branch fragments no cleanup rule recognises).
CONTRAIL = {
    "snp bubble": (
        [(6, 52), (28, 70), (46, 75), (51, 88), (64, 118), (94, 139),
         (115, 150), (126, 161), (137, 168), (144, 175), (151, 197),
         (173, 229), (205, 239), (215, 240), (216, 300)],
        [(6, 41), (17, 48), (24, 49), (25, 55)],
        1, 0,
    ),
    "error tip": (
        [(6, 34), (10, 44), (20, 47), (23, 73), (49, 75), (51, 79),
         (55, 118), (94, 125), (101, 131), (107, 132), (108, 139),
         (115, 152), (128, 158), (134, 159), (135, 214), (190, 271),
         (247, 290)],
        [],
        3, 0,
    ),
    "repeat of k-1": (
        [(19, 51), (27, 53), (29, 65), (41, 67), (43, 75), (51, 77),
         (53, 83), (59, 84), (60, 108), (84, 110), (86, 112), (88, 117),
         (93, 124), (100, 132), (108, 190), (166, 196), (172, 199),
         (175, 200), (176, 218), (194, 227), (203, 228), (204, 233),
         (209, 239), (215, 249), (225, 272), (248, 300)],
        [],
        1, 0,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("assembler", ["velvet", "ray", "abyss"])
def test_velvet_ray_and_abyss_split_at_each_junction_left(assembler, case):
    assert emitted(assembler, case) == SHARED[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_contrail_emits_fragments(case):
    assert emitted("contrail", case) == CONTRAIL[case]
