"""Table V — transcript assembly quality (DETONATE reference metrics).

Paper (B. glumae, DETONATE v1.10 reference-based scores):

======================  =========================  =====================
Assembler used          nucleotide (P, R, F1)      (weighted kmer R, kc)
======================  =========================  =====================
Ray                     0.84, 0.26, 0.40           0.86, 0.86
ABySS                   0.82, 0.42, 0.55           0.79, 0.78
Contrail                0.78, 0.43, 0.56           0.84, 0.83
Ray + Contrail          0.78, 0.43, 0.56           0.78, 0.77
Ray+Contrail+ABySS      0.79, 0.44, 0.57           0.77, 0.76
Trinity                 0.51, 0.35, 0.42           0.84, 0.83
======================  =========================  =====================

Shape assertions (absolute values depend on the synthetic data):
* every pipeline option beats Trinity at the nucleotide level
  (precision in particular),
* weighted k-mer scores are comparable across all options (including
  Trinity),
* the MAMP combinations are not better than the best single assembler,
* kc <= weighted k-mer recall everywhere.
"""

import functools

import pytest

from repro.assembly.trinity import TRINITY_K
from repro.bench.harness import (
    annotation_reference,
    format_table,
    run_assembly,
)
from repro.core.merge import merge_contigs
from repro.evaluation.detonate import DetonateScores, evaluate

#: Subset of the B. glumae k list used for the quality comparison (full
#: 7-k sweeps only change runtimes, not the ordering).
QUALITY_KS = (35, 41, 47)

OPTIONS = {
    "ray": ("ray",),
    "abyss": ("abyss",),
    "contrail": ("contrail",),
    "ray+contrail": ("ray", "contrail"),
    "ray+contrail+abyss": ("ray", "contrail", "abyss"),
}


@functools.lru_cache(maxsize=None)
def option_scores(option: str) -> DetonateScores:
    if option == "trinity":
        # Trinity runs its own preparation on the raw reads (the paper
        # flags exactly this caveat for the comparison).
        contigs = run_assembly("B_glumae", "trinity", TRINITY_K, 1).contigs
    else:
        contig_sets = [
            run_assembly("B_glumae", asm, k, 16, preprocessed=True).contigs
            for asm in OPTIONS[option]
            for k in QUALITY_KS
        ]
        contigs = merge_contigs(contig_sets).transcripts
    # Score against the CDS-like annotation (the paper's ground truth is
    # protein genes, not full mRNAs — that is what pulls precision < 1).
    return evaluate(contigs, annotation_reference("B_glumae"))


def all_scores() -> dict[str, DetonateScores]:
    return {name: option_scores(name) for name in [*OPTIONS, "trinity"]}


def test_table5_quality(benchmark, report_sink):
    scores = benchmark.pedantic(all_scores, rounds=1, iterations=1)
    rows = [
        [
            name,
            f"{s.precision:.2f}, {s.recall:.2f}, {s.f1:.2f}",
            f"{s.weighted_kmer_recall:.2f}, {s.kc_score:.2f}",
            s.n_contigs,
        ]
        for name, s in scores.items()
    ]
    table = format_table(
        f"Table V: assembly quality (B. glumae analog, k={list(QUALITY_KS)})",
        ["Assembler used", "nucleotide (P, R, F1)", "(wkr, kc)", "contigs"],
        rows,
    )
    report_sink.append(table)
    print("\n" + table)

    trinity = scores["trinity"]
    singles = [scores[n] for n in ("ray", "abyss", "contrail")]
    combos = [scores["ray+contrail"], scores["ray+contrail+abyss"]]

    # 1. pipeline options beat Trinity at the nucleotide level.
    for s in singles + combos:
        assert s.precision > trinity.precision
        assert s.f1 >= trinity.f1 - 0.05

    # 2. weighted k-mer scores comparable across all options.
    wkrs = [s.weighted_kmer_recall for s in singles + combos + [trinity]]
    assert max(wkrs) - min(wkrs) < 0.25

    # 3. MAMP combos are not better than the best single option.
    best_single_f1 = max(s.f1 for s in singles)
    for c in combos:
        assert c.f1 <= best_single_f1 + 0.05

    # 4. kc is wkr minus a positive penalty.
    for s in scores.values():
        assert s.kc_score <= s.weighted_kmer_recall


def test_table5_combination_is_average_like(benchmark):
    """The paper notes the MAMP results sit near the average of the
    single-assembler results rather than dominating them."""
    scores = benchmark.pedantic(all_scores, rounds=1, iterations=1)
    singles_f1 = [scores[n].f1 for n in ("ray", "abyss", "contrail")]
    combo_f1 = scores["ray+contrail+abyss"].f1
    assert min(singles_f1) - 0.1 <= combo_f1 <= max(singles_f1) + 0.1
