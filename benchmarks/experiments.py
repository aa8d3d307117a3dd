"""Every paper table and figure: reproduced, checked and rendered once.

An artifact is a memoised reproducer (its rows), the claims
``tests/paper_tables.py`` states over those rows, and one markdown
table.  EXPERIMENTS.md holds each table between
``<!-- paper-table: NAME -->`` and ``<!-- /paper-table -->``.  Rewrite
them all with::

    PYTHONPATH=src python -m benchmarks.experiments

and check every claim and every block, byte for byte, with::

    PYTHONPATH=src python -m pytest benchmarks/test_experiments.py
"""

from __future__ import annotations

import functools
import numbers
import re
from pathlib import Path

from repro.assembly.registry import ASSEMBLERS, TABLE1_ASSEMBLERS
from repro.assembly.trinity import TRINITY_K
from repro.bench import harness
from repro.bench.calibration import (
    ANCHOR_DATASET,
    ANCHOR_K,
    anchor_report,
    calibrated_cost_model,
)
from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.sge import SGEJob, SGEScheduler
from repro.core.merge import merge_contigs
from repro.core.planner import select_kmer_list
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.core.scaling import paper_usage
from repro.core.schemes import MatchingScheme
from repro.evaluation.detonate import evaluate
from repro.obs import Tracer
from repro.seq.datasets import B_GLUMAE, B_GLUMAE_PE, GB, P_CRISPA, generate_dataset
from tests.paper_tables import (
    CLAIMS,
    PAPER_FIG5,
    PAPER_FIG5_COST,
    PAPER_FIG5_TOTAL,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    reproduce_table4,
    run_fig2,
)

DOC = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

_NAMES = {"ray": "Ray", "abyss": "ABySS", "contrail": "Contrail"}
_DATASETS = {"B_glumae": "B. glumae", "P_crispa": "P. crispa"}


# -- the markdown renderer ------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, numbers.Integral):
        return f"{value:,}"
    if isinstance(value, numbers.Real):
        return f"{value:,.0f}"
    return str(value)


def markdown_table(headers: list[str], rows: list[list]) -> str:
    """A markdown table with alignment-free pipes: numbers get thousands
    separators (reals rounded to whole units; format finer precision into
    a string first) and a missing cell (``None``) reads ``-``."""
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(_cell(v) for v in row) + " |" for row in rows]
    return "\n".join(lines)


def series_rows(series: dict[str, dict]) -> list[list]:
    """A figure as rows: one per x, one column per series, ``None``
    where a series has no point at that x."""
    xs = sorted({x for points in series.values() for x in points})
    return [[x, *(points.get(x) for points in series.values())] for x in xs]


# -- EXPERIMENTS.md's blocks ------------------------------------------------------

#: A marker is a line of its own, so the doc's prose can name one.
_MARKER = re.compile(r"^<!-- (/?)paper-table(?:: ([\w-]+))? -->$", re.M)
_BLOCK = re.compile(
    r"^(<!-- paper-table: ([\w-]+) -->\n).*?^(<!-- /paper-table -->)$",
    re.M | re.S,
)


def doc_blocks(text: str) -> dict[str, str]:
    """``{name: body}`` of every paper-table block in ``text``, the body
    being everything between its two markers; raises ``ValueError``
    naming the marker of a duplicated or unclosed block or of a close
    with no open."""
    blocks, name, start = {}, None, 0
    for m in _MARKER.finditer(text):
        closing, opened = m.group(1), m.group(2)
        if closing:
            if name is None:
                raise ValueError("<!-- /paper-table --> closes no block")
            blocks[name], name = text[start : m.start()], None
        elif name is not None:
            raise ValueError(f"paper-table: {name} is not closed")
        elif opened in blocks:
            raise ValueError(f"paper-table: {opened} appears twice")
        else:
            name, start = opened, m.end()
    if name is not None:
        raise ValueError(f"paper-table: {name} is not closed")
    return blocks


def splice(text: str, tables: dict[str, str]) -> str:
    """``text`` with every block's body replaced by its table from
    ``tables``; raises ``ValueError`` naming any marker that is
    malformed (see :func:`doc_blocks`), missing from ``text`` or not in
    ``tables``."""
    blocks = doc_blocks(text)
    if missing := sorted(tables.keys() - blocks.keys()):
        raise ValueError(f"paper-table: {missing[0]} has no block")
    if unknown := sorted(blocks.keys() - tables.keys()):
        raise ValueError(f"paper-table: {unknown[0]} is no artifact")
    return _BLOCK.sub(lambda m: f"{m[1]}{tables[m[2]]}\n{m[3]}", text)


# -- the reproducers ----------------------------------------------------------------


def table1():
    return {name: ASSEMBLERS[name] for name in TABLE1_ASSEMBLERS}


@functools.lru_cache(maxsize=1)
def table2():
    rows = {}
    for spec in (B_GLUMAE, P_CRISPA):
        run = harness.bench_dataset(spec.name).run
        rows[spec.name] = dict(
            genome_size_bp=spec.genome_size_bp,
            n_protein_genes=spec.n_protein_genes,
            fastq_gb=round(spec.fastq_bytes / GB, 1),
            read_length=spec.read_length,
            n_reads=spec.n_reads,
            paired=spec.paired,
            preprocess_memory_gb=spec.preprocess_memory_bytes / GB,
            kmer_list=spec.kmer_list,
            kmer_rule=select_kmer_list(spec.read_length),
            analog_read_length=run.spec.read_length,
            analog_reads=len(run.reads),
            analog_mates=len(run.mates),
        )
    return rows


@functools.lru_cache(maxsize=1)
def table3():
    rows = {}
    for name, _, ttc in anchor_report():
        usage = harness.run_assembly(ANCHOR_DATASET, name, ANCHOR_K, 16).usage
        rows[name] = dict(
            ttc=ttc,
            n_jobs=usage.n_jobs,
            n_messages=usage.n_messages,
            serial_compute=usage.serial_compute,
        )
    return rows


#: Subset of the B. glumae k list used for the quality comparison (full
#: 7-k sweeps only change runtimes, not the ordering).
QUALITY_KS = (35, 41, 47)


@functools.lru_cache(maxsize=1)
def table5():
    scores = {}
    for option in PAPER_TABLE5:
        if option == "trinity":
            # Trinity runs its own preparation on the raw reads (the
            # paper flags exactly this caveat for the comparison).
            contigs = harness.run_assembly(
                "B_glumae", "trinity", TRINITY_K, 1
            ).contigs
        else:
            contigs = merge_contigs(
                [
                    harness.run_assembly(
                        "B_glumae", asm, k, 16, preprocessed=True
                    ).contigs
                    for asm in option.split("+")
                    for k in QUALITY_KS
                ]
            ).transcripts
        # Scored against the CDS-like annotation (the paper's ground
        # truth is protein genes, not full mRNAs — that is what pulls
        # precision below 1).
        scores[option] = evaluate(
            contigs, harness.annotation_reference("B_glumae")
        )
    return scores


FIG2_KS = (35, 41, 47)


@functools.lru_cache(maxsize=1)
def fig2():
    return run_fig2(
        harness.bench_dataset("B_glumae"),
        calibrated_cost_model(),
        assemblers=("ray",),
        kmer_list=FIG2_KS,
    )


def _p_crispa_ttc(assembler, k, nodes, instance, fraction=1.0) -> float:
    """Paper-scale TTC of one P. crispa job on ``nodes`` x ``instance``,
    eight ranks a node (``run_assembly`` drops Contrail's N reads, as the
    paper had to)."""
    return harness.price_assembly(
        calibrated_cost_model(),
        harness.run_assembly("P_crispa", assembler, k, 8 * nodes, False, fraction),
        harness.bench_dataset("P_crispa", fraction),
        instance,
        nodes,
    )


@functools.lru_cache(maxsize=1)
def fig3():
    """TTC vs nodes at k=51 on c3.2xlarge, no pre-processing."""
    return {
        asm: {n: _p_crispa_ttc(asm, 51, n, "c3.2xlarge") for n in (2, 4, 8, 16)}
        for asm in _NAMES
    }


@functools.lru_cache(maxsize=1)
def fig4_upper():
    """Ray TTC vs cores on r3.2xlarge for fractions of the reads: data
    parallelism inside one job."""
    return {
        frac: {
            cores: _p_crispa_ttc("ray", 51, cores // 8, "r3.2xlarge", frac)
            for cores in (8, 16, 24, 32)
        }
        for frac in (0.25, 0.5, 1.0)
    }


@functools.lru_cache(maxsize=1)
def fig4_lower():
    """The four-k Ray stage's TTC vs r3.2xlarge nodes, scheduled through
    SGE as the pipeline does: task parallelism across k-mer jobs."""
    jobs = {k: _p_crispa_ttc("ray", k, 1, "r3.2xlarge") for k in (51, 55, 59, 63)}
    stage = {}
    for nodes in (1, 2, 3, 4):
        events = EventQueue(SimClock())
        sched = SGEScheduler(events, {f"n{i}": 8 for i in range(nodes)})
        for k, seconds in jobs.items():
            sched.qsub(SGEJob(f"ray_k{k}", slots=8, duration=seconds))
        sched.run_to_completion()
        stage[nodes] = events.clock.now
    return {"stage": stage, "jobs": jobs}


@functools.lru_cache(maxsize=1)
def fig5():
    """The §IV.C sample run: paired B. glumae 4.4 GB analog, S2, three
    assemblers x two k on c3.2xlarge, 16-node Contrail jobs."""
    config = PipelineConfig(
        assemblers=("ray", "abyss", "contrail"),
        scheme=MatchingScheme.S2,
        instance_type="c3.2xlarge",
        kmer_list=(51, 55),
        mpi_nodes_per_job=1,
        contrail_nodes_per_job=16,
        # Rnnotator scales its k-mer coverage cutoff with library depth;
        # this PE library is ~190x, so solid k-mers need 4 observations.
        min_count=4,
    )
    tracer = Tracer()
    result = RnnotatorPipeline(
        cost_model=calibrated_cost_model(), tracer=tracer
    ).run(generate_dataset(B_GLUMAE_PE, scale=0.004, seed=11), config)
    stages = {s.name: s for s in result.stages}
    assembly = stages["transcript-assembly"]
    last = max(
        (
            s
            for s in tracer.spans
            if s.name.startswith("exec:")
            and s.attrs["stage"] == "transcript-assembly"
        ),
        key=lambda s: s.v_end,
    )
    ttc = {name: stages[name].ttc for name in PAPER_FIG5}
    ttc["post-processing"] += stages["quantification"].ttc
    return dict(
        stages=ttc,
        total=result.total_ttc,
        cost=result.total_cost,
        n_jobs=result.plan.n_jobs,
        n_nodes=result.plan.n_nodes,
        kmer_list=result.kmer_list,
        assembly_nodes=assembly.n_nodes,
        assembly_instance=assembly.instance_type,
        assembly_end=assembly.finished_at,
        transfer=result.transfer_seconds,
        upload=stages["stage-in"].ttc,
        last_unit=(last.attrs["assembler"], last.v_end),
    )


@functools.lru_cache(maxsize=1)
def ablation():
    """Ray at k=41 on B. glumae with and without pre-processing, priced
    on 2 x c3.2xlarge."""
    ds = harness.bench_dataset("B_glumae")
    machine = harness.machine_for("c3.2xlarge", 2)
    rows = {}
    for name, preprocessed in (("raw reads", False), ("preprocessed", True)):
        result = harness.run_assembly(
            "B_glumae", "ray", 41, 16, preprocessed=preprocessed
        )
        scores = evaluate(result.contigs, harness.annotation_reference("B_glumae"))
        rows[name] = dict(
            solid_kmers=result.stats["distinct_kmers"],
            contigs=len(result.contigs),
            precision=scores.precision,
            f1=scores.f1,
            ttc=calibrated_cost_model().task_seconds(
                paper_usage(result.usage, ds), machine
            ),
        )
    return rows


# -- the tables -------------------------------------------------------------------


def _scores(values) -> str:
    return ", ".join(f"{v:.2f}" for v in values)


def _hours(seconds: float) -> str:
    hours, minutes = divmod(round(seconds / 60), 60)
    return f"{seconds:,.0f} s ({hours} h {minutes} m)"


def _table1(infos):
    return ["Assembler", "Type", "Distributed implementation", "Analog of"], [
        [_NAMES[n], i.graph_type, i.distributed_impl, i.analog_of_version]
        for n, i in infos.items()
    ]


def _table2(rows):
    def pairs(n, paired):
        return f"{n:,} x 2" if paired else n

    return [
        "Data set", "Genome", "Genes", "FASTQ", "Read length", "Reads",
        "Pre-processing memory", "k-mer list", "Analog reads",
    ], [
        [
            _DATASETS[name],
            f"{r['genome_size_bp'] / 1e6:.1f} Mb",
            r["n_protein_genes"],
            f"{r['fastq_gb']:.1f} GB",
            r["read_length"],
            pairs(r["n_reads"], r["paired"]),
            f"{r['preprocess_memory_gb']:.0f} GB",
            ", ".join(map(str, r["kmer_list"])),
            pairs(r["analog_reads"], r["paired"]),
        ]
        for name, r in rows.items()
    ]


def _table3(rows):
    return ["Assembler", "Paper (s)", "Reproduced (s)"], [
        [_NAMES[n], paper, rows[n]["ttc"]] for n, paper in PAPER_TABLE3.items()
    ]


def _table4(cells):
    return ["Task", "Data set", "c3.2xlarge", "r3.2xlarge", "Paper (c3/r3)"], [
        [task, _DATASETS[ds], *cells[task, ds], "/".join(paper)]
        for (task, ds), paper in PAPER_TABLE4.items()
    ]


def _table5(scores):
    return [
        "Option", "Paper (P, R, F1)", "Paper (wkr, kc)", "Ours (P, R, F1)",
        "Ours (wkr, kc)",
    ], [
        [
            label,
            _scores(nucleotide),
            _scores(kmer),
            _scores(scores[option].nucleotide_tuple()),
            _scores((scores[option].weighted_kmer_recall, scores[option].kc_score)),
        ]
        for option, (label, nucleotide, kmer) in PAPER_TABLE5.items()
    ]


def _fig2(runs):
    labels = {"conventional": "conventional", "static": "distributed static",
              "dynamic": "distributed dynamic"}
    return [
        "Pattern", "assembly nodes", "assembly TTC (s)", "total TTC (s)",
        "cost ($)",
    ], [
        [
            labels[name],
            r.plan.n_nodes,
            r.stage_ttc("transcript-assembly"),
            r.total_ttc,
            f"{r.total_cost:.2f}",
        ]
        for name, r in runs.items()
    ]


def _fig3(series):
    return ["nodes", *(f"{_NAMES[a]} (s)" for a in series)], series_rows(series)


def _fig4_upper(series):
    return ["cores", *(f"{f:.0%} reads" for f in series)], series_rows(series)


def _fig4_lower(panel):
    return ["nodes", "stage TTC (s)"], series_rows({"stage": panel["stage"]})


def _fig5(r):
    rows = [
        [label, f"{paper:,.0f} s", f"{r['stages'][name]:,.0f} s"]
        for name, (label, paper) in PAPER_FIG5.items()
    ]
    rows.append(
        ["**total**", f"**{_hours(PAPER_FIG5_TOTAL)}**", f"**{_hours(r['total'])}**"]
    )
    rows.append(
        ["**cost**", f"**${PAPER_FIG5_COST:.2f}**", f"**${r['cost']:.2f}**"]
    )
    return ["Stage", "Paper", "Reproduced"], rows


def _ablation(rows):
    return [
        "Input", "solid k-mers", "contigs", "precision", "F1", "TTC (s)",
    ], [
        [name, r["solid_kmers"], r["contigs"], f"{r['precision']:.2f}",
         f"{r['f1']:.2f}", r["ttc"]]
        for name, r in rows.items()
    ]


#: Block name -> (reproducer, table).  ``CLAIMS`` has the same names.
ARTIFACTS = {
    "table1": (table1, _table1),
    "table2": (table2, _table2),
    "table3": (table3, _table3),
    "table4": (reproduce_table4, _table4),
    "table5": (table5, _table5),
    "fig2": (fig2, _fig2),
    "fig3": (fig3, _fig3),
    "fig4-upper": (fig4_upper, _fig4_upper),
    "fig4-lower": (fig4_lower, _fig4_lower),
    "fig5": (fig5, _fig5),
    "ablation": (ablation, _ablation),
}


def render(name: str) -> str:
    reproduce, table = ARTIFACTS[name]
    return markdown_table(*table(reproduce()))


def failed_claims(name: str) -> list[str]:
    """The names of ``name``'s claims that do not hold."""
    rows = ARTIFACTS[name][0]()
    return [claim for claim, holds in CLAIMS[name].items() if not holds(rows)]


def main() -> None:
    DOC.write_text(splice(DOC.read_text(), {n: render(n) for n in ARTIFACTS}))


if __name__ == "__main__":
    main()
