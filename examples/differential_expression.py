"""Differential gene expression across two conditions (optional stage).

Rnnotator's last stage computes differential expression "only optional
for cases when multiple sample conditions are provided" (Fig. 1).  This
example simulates two conditions from the same transcriptome — with a
few transcripts up-regulated in condition B — assembles a reference from
the pooled reads, quantifies each condition against it, and runs the
exact-test DE analysis.

Run:  python examples/differential_expression.py
"""

from dataclasses import replace

import numpy as np

from repro.assembly.base import AssemblyParams
from repro.assembly.velvet import VelvetAssembler
from repro.core.diffexpr import differential_expression
from repro.core.preprocess import preprocess
from repro.core.quantify import quantify
from repro.seq.datasets import tiny_dataset
from repro.seq.reads import ReadSimulator, ReadSimSpec
from repro.seq.readstore import ReadStore
from repro.seq.transcriptome import Transcript, Transcriptome


def perturbed_transcriptome(base: Transcriptome, factor: float, n_up: int,
                            rng: np.random.Generator) -> Transcriptome:
    """Up-regulate ``n_up`` random transcripts by ``factor``."""
    idx = set(rng.choice(len(base.transcripts), size=n_up, replace=False))
    changed = [
        Transcript(t.transcript_id, t.codes,
                   t.abundance * (factor if i in idx else 1.0))
        for i, t in enumerate(base.transcripts)
    ]
    total = sum(t.abundance for t in changed)
    return Transcriptome(
        base.name + "_B",
        [Transcript(t.transcript_id, t.codes, t.abundance / total)
         for t in changed],
    ), idx


def main() -> None:
    rng = np.random.default_rng(0)
    ds = tiny_dataset(seed=9, coverage_boost=4.0)
    txome_a = ds.transcriptome
    txome_b, up_idx = perturbed_transcriptome(txome_a, 6.0, 3, rng)
    up_names = {txome_a.transcripts[i].transcript_id for i in up_idx}
    print(f"condition B up-regulates {sorted(up_names)} by 6x\n")

    spec = ReadSimSpec(read_length=50, n_reads=16_000, seed=1)
    run_a = ReadSimulator(txome_a, spec).run()
    run_b = ReadSimulator(txome_b, replace(spec, seed=2)).run()

    # Assemble a reference from the pooled, pre-processed reads.
    pooled = preprocess(run_a.reads + run_b.reads)
    assembly = VelvetAssembler().assemble(
        ReadStore.from_reads(pooled.reads),
        AssemblyParams(k=31, min_contig_length=150),
    )
    print(f"reference: {len(assembly.contigs)} contigs "
          f"({assembly.total_bp} bp) from pooled reads")

    # Quantify each condition against the assembled reference.
    qa = quantify(preprocess(run_a.reads).reads, assembly.contigs)
    qb = quantify(preprocess(run_b.reads).reads, assembly.contigs)

    de = differential_expression(qa.transcript_ids, qa.counts, qb.counts)
    print(f"\n{de.n_significant} transcripts significant at "
          f"alpha={de.alpha}:")
    for row in sorted(de.significant_rows(),
                      key=lambda r: r.log2_fold_change)[:10]:
        print(
            f"  {row.transcript_id:22s} A={row.count_a:5d} B={row.count_b:5d}"
            f" log2FC={row.log2_fold_change:+.2f} p={row.p_value:.2e}"
        )
    print(
        "\n(negative log2FC = higher in condition B; the significant set "
        "should correspond to the up-regulated transcripts' contigs)"
    )


if __name__ == "__main__":
    main()
