"""The paper's tables as data, stated once, with the claims this
reproduction makes about them.

Each artifact has the paper's values (where the paper prints numbers)
and a ``*_CLAIMS`` dict: claim name -> a boolean over the reproduced
rows that ``benchmarks/experiments.py`` builds.  ``CLAIMS`` collects
them by the artifact's EXPERIMENTS.md block name; the tier-1 invariants
here (Table IV, Fig. 2) assert against the same data.
"""

import math

from repro.bench.calibration import TABLE3_TARGETS
from repro.cloud.instances import get_instance_type
from repro.core.memory import fits_instance
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.core.workflow import WorkflowPattern
from repro.seq.datasets import B_GLUMAE, P_CRISPA


def within(value: float, target: float, rel: float) -> bool:
    """``value`` is within ``rel`` of ``target``, relative to the target."""
    return abs(value - target) <= rel * abs(target)


# -- Table I: the integrated assemblers ---------------------------------------

#: name -> (graph type, distributed implementation, version).
PAPER_TABLE1 = {
    "ray": ("DBG", "MPI", "2.3.1"),
    "abyss": ("DBG", "MPI", "1.9.0"),
    "contrail": ("DBG", "Hadoop MapReduce", "0.8.2"),
}

#: Over ``{name: AssemblerInfo}`` for the Table I names.
TABLE1_CLAIMS = {
    "every assembler has the paper's graph type, implementation and version": (
        lambda infos: all(
            (i.graph_type, i.distributed_impl) == PAPER_TABLE1[n][:2]
            and i.analog_of_version.endswith(PAPER_TABLE1[n][2])
            for n, i in infos.items()
        )
        and set(infos) == set(PAPER_TABLE1)
    ),
    "every assembler runs on multi-node shared-nothing systems": (
        lambda infos: all(i.scalable for i in infos.values())
    ),
}


# -- Table II: the data sets --------------------------------------------------

#: The paper-scale columns; memory and FASTQ sizes in GiB.
PAPER_TABLE2 = {
    "B_glumae": dict(
        genome_size_bp=6_700_000,
        n_protein_genes=5_223,
        fastq_gb=3.8,
        read_length=50,
        n_reads=16_263_310,
        paired=False,
        preprocess_memory_gb=15,
        kmer_list=(35, 37, 39, 41, 43, 45, 47),
    ),
    "P_crispa": dict(
        genome_size_bp=34_500_000,
        n_protein_genes=13_617,
        fastq_gb=26.2,
        read_length=100,
        n_reads=54_168_576,
        paired=True,
        preprocess_memory_gb=40,
        kmer_list=(51, 55, 59, 63),
    ),
}

#: Over ``{dataset: row}``: a row holds ``PAPER_TABLE2``'s keys as the
#: spec states them, ``kmer_rule`` (the list the selection rule derives
#: from the read length) and the analog's ``analog_read_length``,
#: ``analog_reads`` and ``analog_mates`` (0 when single-end).
TABLE2_CLAIMS = {
    "the paper-scale columns are Table II's": lambda rows: all(
        {key: rows[n][key] for key in paper} == paper
        for n, paper in PAPER_TABLE2.items()
    ),
    "the k-mer rule regenerates both k lists from read length": lambda rows: all(
        row["kmer_rule"] == row["kmer_list"] for row in rows.values()
    ),
    "the analogs keep the paper's read length and pairing": lambda rows: all(
        row["analog_read_length"] == row["read_length"]
        and (row["analog_mates"] == row["analog_reads"]) == row["paired"]
        for row in rows.values()
    ),
}


# -- Table III: baseline TTC, the calibration anchors -------------------------

#: Seconds on 2 x c3.2xlarge, B. glumae, k=47 (the calibration's own
#: targets, so the model and this table cannot disagree).
PAPER_TABLE3 = TABLE3_TARGETS

#: Over ``{assembler: row}`` with the priced ``ttc`` and the measured
#: ``n_jobs``, ``n_messages`` and ``serial_compute`` of a 16-rank run.
TABLE3_CLAIMS = {
    "each anchor lands within 2% of the paper": lambda rows: all(
        within(rows[n]["ttc"], t, 0.02) for n, t in PAPER_TABLE3.items()
    ),
    "ABySS < Ray < Contrail": lambda rows: (
        rows["abyss"]["ttc"] < rows["ray"]["ttc"] < rows["contrail"]["ttc"]
    ),
    "Contrail costs more than 3x Ray": lambda rows: (
        rows["contrail"]["ttc"] > 3 * rows["ray"]["ttc"]
    ),
    "Contrail is a chain of at least 5 MapReduce jobs": lambda rows: (
        rows["contrail"]["n_jobs"] >= 5
    ),
    "Ray sends more probe messages than ABySS, which sends some": lambda rows: (
        rows["ray"]["n_messages"] > rows["abyss"]["n_messages"] > 0
    ),
    "ABySS carries more serial compute than Ray": lambda rows: (
        rows["abyss"]["serial_compute"] > rows["ray"]["serial_compute"]
    ),
}


# -- Table IV: the instance capacity matrix -----------------------------------

#: Table IV's ground truth: (task, dataset) -> (c3.2xlarge, r3.2xlarge),
#: O = supported, X = not.  P. crispa fails everything but
#: post-processing on the 16 GB c3; everything fits the 61 GB r3.
PAPER_TABLE4 = {
    ("Pre-Processing", "B_glumae"): ("O", "O"),
    ("Pre-Processing", "P_crispa"): ("X", "O"),
    ("Assembly (Ray)", "B_glumae"): ("O", "O"),
    ("Assembly (Ray)", "P_crispa"): ("X", "O"),
    ("Assembly (ABySS)", "B_glumae"): ("O", "O"),
    ("Assembly (ABySS)", "P_crispa"): ("X", "O"),
    ("Assembly (Contrail)", "B_glumae"): ("O", "O"),
    ("Assembly (Contrail)", "P_crispa"): ("X", "O"),
    ("Post-Processing", "B_glumae"): ("O", "O"),
    ("Post-Processing", "P_crispa"): ("O", "O"),
}

_TASK_KEY = {
    "Pre-Processing": "preprocess",
    "Assembly (Ray)": "assembly",
    "Assembly (ABySS)": "assembly",
    "Assembly (Contrail)": "assembly",
    "Post-Processing": "postprocess",
}


def reproduce_table4() -> dict[tuple[str, str], tuple[str, str]]:
    """Table IV's cells as the memory model decides them."""
    c3 = get_instance_type("c3.2xlarge").memory_bytes
    r3 = get_instance_type("r3.2xlarge").memory_bytes
    out = {}
    for task, ds_name in PAPER_TABLE4:
        spec = {"B_glumae": B_GLUMAE, "P_crispa": P_CRISPA}[ds_name]
        key = _TASK_KEY[task]
        out[(task, ds_name)] = (
            "O" if fits_instance(spec, key, c3) else "X",
            "O" if fits_instance(spec, key, r3) else "X",
        )
    return out


TABLE4_CLAIMS = {
    "all ten cells match the paper": lambda cells: cells == PAPER_TABLE4,
}


# -- Table V: assembly quality (DETONATE) -------------------------------------

#: option -> (label, paper nucleotide (P, R, F1), paper (wkr, kc)).
PAPER_TABLE5 = {
    "ray": ("Ray", (0.84, 0.26, 0.40), (0.86, 0.86)),
    "abyss": ("ABySS", (0.82, 0.42, 0.55), (0.79, 0.78)),
    "contrail": ("Contrail", (0.78, 0.43, 0.56), (0.84, 0.83)),
    "ray+contrail": ("Ray+Contrail", (0.78, 0.43, 0.56), (0.78, 0.77)),
    "ray+contrail+abyss": (
        "Ray+Contrail+ABySS", (0.79, 0.44, 0.57), (0.77, 0.76)
    ),
    "trinity": ("Trinity", (0.51, 0.35, 0.42), (0.84, 0.83)),
}
_SINGLES = ("ray", "abyss", "contrail")
_COMBOS = ("ray+contrail", "ray+contrail+abyss")


#: Over ``{option: DetonateScores}`` for every ``PAPER_TABLE5`` option.
TABLE5_CLAIMS = {
    "every pipeline option beats Trinity's precision": lambda s: all(
        s[o].precision > s["trinity"].precision for o in _SINGLES + _COMBOS
    ),
    "no pipeline option's F1 is more than 0.05 below Trinity's": lambda s: all(
        s[o].f1 >= s["trinity"].f1 - 0.05 for o in _SINGLES + _COMBOS
    ),
    "weighted k-mer recall spreads less than 0.25 across all options": (
        lambda s: max(x.weighted_kmer_recall for x in s.values())
        - min(x.weighted_kmer_recall for x in s.values())
        < 0.25
    ),
    "no ensemble beats the best single assembler's F1 by more than 0.05": (
        lambda s: all(
            s[c].f1 <= max(s[o].f1 for o in _SINGLES) + 0.05 for c in _COMBOS
        )
    ),
    "the three-assembler ensemble's F1 is within 0.1 of the singles' range": (
        lambda s: min(s[o].f1 for o in _SINGLES) - 0.1
        <= s["ray+contrail+abyss"].f1
        <= max(s[o].f1 for o in _SINGLES) + 0.1
    ),
    "kc never exceeds weighted k-mer recall": lambda s: all(
        x.kc_score <= x.weighted_kmer_recall for x in s.values()
    ),
}


# -- Fig. 2: the workflow patterns --------------------------------------------

#: Fig. 2's three workflow patterns, as the knobs that tell them apart:
#: the conventional pattern holds every pilot on one fixed node, the
#: distributed static one fixes the instance type, and the distributed
#: dynamic one decides both at run time.
FIG2_PATTERNS = {
    "conventional": dict(
        workflow=WorkflowPattern.CONVENTIONAL,
        instance_type="c3.2xlarge",
        max_nodes=1,
    ),
    "static": dict(
        workflow=WorkflowPattern.DISTRIBUTED_STATIC, instance_type="c3.2xlarge"
    ),
    "dynamic": dict(workflow=WorkflowPattern.DISTRIBUTED_DYNAMIC),
}

#: Fig. 2's ground truth: each distributed pattern's total TTC and cost
#: against the conventional pattern's.  Spreading the k-mer jobs over
#: more nodes finishes sooner and bills more instance-hours; the
#: transcripts are the same under every pattern.
PAPER_FIG2 = {
    "static": ("TTC <=", "cost >="),
    "dynamic": ("TTC <=", "cost >="),
}


def run_fig2(dataset, cost_model=None, **knobs) -> dict:
    """One pipeline run per pattern, in ``FIG2_PATTERNS`` order; ``knobs``
    are the config every pattern shares."""
    return {
        name: RnnotatorPipeline(cost_model).run(
            dataset, PipelineConfig(**knobs, **pattern)
        )
        for name, pattern in FIG2_PATTERNS.items()
    }


def reproduce_fig2(runs: dict) -> dict[str, tuple[str, str]]:
    """``PAPER_FIG2``'s cells as the runs decide them."""
    conv = runs["conventional"]
    return {
        name: (
            "TTC <=" if r.total_ttc <= conv.total_ttc else "TTC >",
            "cost >=" if r.total_cost >= conv.total_cost else "cost <",
        )
        for name, r in runs.items()
        if name != "conventional"
    }


def _assembly_ttc(run) -> float:
    return run.stage_ttc("transcript-assembly")


#: Over ``run_fig2``'s runs of one assembler's k list.
FIG2_CLAIMS = {
    "each distributed pattern's TTC and cost sit where the paper's do": (
        lambda runs: reproduce_fig2(runs) == PAPER_FIG2
    ),
    "both distributed assembly stages beat the conventional one": lambda runs: all(
        _assembly_ttc(runs[p]) < _assembly_ttc(runs["conventional"])
        for p in ("static", "dynamic")
    ),
    "the static total beats the conventional total": lambda runs: (
        runs["static"].total_ttc < runs["conventional"].total_ttc
    ),
    "the dynamic planner picks c3.2xlarge for B. glumae": lambda runs: (
        runs["dynamic"].stages[1].instance_type == "c3.2xlarge"
    ),
    "the dynamic total is within 5% of the static one": lambda runs: within(
        runs["dynamic"].total_ttc, runs["static"].total_ttc, 0.05
    ),
    "every pattern assembles the same transcripts": lambda runs: (
        len({tuple(t.seq for t in r.transcripts) for r in runs.values()}) == 1
    ),
    "serialised jobs cost 1.3x to (job count)x the distributed stage": (
        lambda runs: 1.3
        < _assembly_ttc(runs["conventional"]) / _assembly_ttc(runs["static"])
        < runs["static"].plan.n_jobs
    ),
}


# -- Fig. 3: assembler scale-out ----------------------------------------------

#: Over ``{assembler: {nodes: TTC}}`` on P. crispa, k=51, c3.2xlarge.
FIG3_CLAIMS = {
    "ABySS fastest at every node count": lambda s: all(
        s["abyss"][n] < s["ray"][n] for n in s["abyss"]
    ),
    "Contrail slowest at the fewest nodes": lambda s: (
        s["contrail"][min(s["ray"])] > s["ray"][min(s["ray"])]
    ),
    "Ray gains less than 2x and ABySS less than 3x from the fewest nodes": (
        lambda s: s["ray"][min(s["ray"])] / s["ray"][max(s["ray"])] < 2.0
        and s["abyss"][min(s["abyss"])] / s["abyss"][max(s["abyss"])] < 3.0
    ),
    "Ray's gain is marginal but real": lambda s: (
        s["ray"][max(s["ray"])] < s["ray"][min(s["ray"])]
    ),
    "Contrail gains more than 3x from the fewest nodes": lambda s: (
        s["contrail"][min(s["contrail"])] / s["contrail"][max(s["contrail"])]
        > 3.0
    ),
    "Contrail ends within 2x of Ray": lambda s: (
        s["contrail"][max(s["contrail"])] < 2.0 * s["ray"][max(s["ray"])]
    ),
}


# -- Fig. 4: the two levels of assembly parallelism ---------------------------

#: Over ``{input fraction: {cores: Ray TTC}}``, fractions ascending.
FIG4_UPPER_CLAIMS = {
    "more input takes longer at every core count": lambda s: all(
        s[a][c] < s[b][c]
        for a, b in zip(sorted(s), sorted(s)[1:])
        for c in s[a]
    ),
    "every input size gains, by less than 2.5x, from the fewest to the most cores": (
        lambda s: all(
            d[max(d)] <= d[min(d)] and d[min(d)] / d[max(d)] < 2.5
            for d in s.values()
        )
    ),
}

#: Over ``{"stage": {nodes: multi-k stage TTC}, "jobs": {k: job TTC}}``.
FIG4_LOWER_CLAIMS = {
    "2 nodes beat 1": lambda p: p["stage"][2] < p["stage"][1],
    "3 nodes still beat 2": lambda p: p["stage"][3] < p["stage"][2],
    "4 nodes are no slower than 3": lambda p: p["stage"][4] <= p["stage"][3],
    "the 4-node stage equals the slowest job": lambda p: within(
        p["stage"][4], max(p["jobs"].values()), 0.01
    ),
    "the 1-node stage equals the sum of the jobs": lambda p: within(
        p["stage"][1], sum(p["jobs"].values()), 0.01
    ),
}


# -- Fig. 5 / §IV.C: the end-to-end sample run --------------------------------

#: Stage -> (label, paper seconds).  The paper's P_C is post-processing
#: and quantification together.
PAPER_FIG5 = {
    "stage-in": ("input transfer", 215.0),
    "pre-processing": ("pre-processing (P_A)", 2640.0),
    "transcript-assembly": ("transcript assembly (P_B, 36 nodes)", 4680.0),
    "post-processing": ("post-processing + quantification (P_C)", 2460.0),
}
PAPER_FIG5_TOTAL = 10020.0
PAPER_FIG5_COST = 20.28

#: Over the sample run's row: ``stages`` (``PAPER_FIG5``'s keys -> TTC),
#: ``total``, ``cost``, the plan's ``n_jobs`` / ``n_nodes`` / ``kmer_list``,
#: the assembly stage's ``assembly_nodes`` / ``assembly_instance`` /
#: ``assembly_end``, ``transfer`` and ``upload`` seconds,
#: ``last_unit``: (assembler, virtual end) of the assembly stage's
#: latest ``exec:`` span in the run's trace, and ``hours_billed``: the
#: sorted ``hours_billed`` of the trace's ``vm.lifetime`` spans.
FIG5_CLAIMS = {
    "6 SGE jobs over k = 51, 55": lambda r: (
        r["n_jobs"] == 6 and r["kmer_list"] == (51, 55)
    ),
    "a 36-node c3.2xlarge assembly fleet": lambda r: (
        r["n_nodes"] == r["assembly_nodes"] == 36
        and r["assembly_instance"] == "c3.2xlarge"
    ),
    "every stage within 25% of the paper": lambda r: all(
        within(r["stages"][name], paper, 0.25)
        for name, (_, paper) in PAPER_FIG5.items()
    ),
    "the total within 17% of the paper": lambda r: within(
        r["total"], PAPER_FIG5_TOTAL, 0.17
    ),
    "the cost is the billed instance-hours at the c3.2xlarge price": lambda r: (
        math.isclose(
            r["cost"],
            sum(r["hours_billed"])
            * get_instance_type("c3.2xlarge").price_per_hour,
            rel_tol=1e-12,
        )
    ),
    "35 fleet VMs billed 2 h each and one shared VM billed 3 h": lambda r: (
        r["hours_billed"] == [2] * 35 + [3]
    ),
    "one shared VM: the WAN upload is the only transfer": lambda r: within(
        r["transfer"], r["upload"], 0.01
    ),
    "the assembly stage ends with its last unit, a Contrail job": lambda r: (
        r["last_unit"] == ("contrail", r["assembly_end"])
    ),
}


# -- Ablation: what pre-processing buys ---------------------------------------

#: Over ``{"raw reads": row, "preprocessed": row}`` with ``solid_kmers``,
#: ``contigs``, ``precision``, ``f1`` and the priced ``ttc``.
ABLATION_CLAIMS = {
    "pre-processing shrinks the solid k-mer graph": lambda r: (
        r["preprocessed"]["solid_kmers"] < r["raw reads"]["solid_kmers"]
    ),
    "pre-processing costs at most 0.05 of F1": lambda r: (
        r["preprocessed"]["f1"] >= r["raw reads"]["f1"] - 0.05
    ),
    "pre-processing cuts the assembly TTC": lambda r: (
        r["preprocessed"]["ttc"] < r["raw reads"]["ttc"]
    ),
}


#: Every artifact's claims, by its EXPERIMENTS.md block name.
CLAIMS = {
    "table1": TABLE1_CLAIMS,
    "table2": TABLE2_CLAIMS,
    "table3": TABLE3_CLAIMS,
    "table4": TABLE4_CLAIMS,
    "table5": TABLE5_CLAIMS,
    "fig2": FIG2_CLAIMS,
    "fig3": FIG3_CLAIMS,
    "fig4-upper": FIG4_UPPER_CLAIMS,
    "fig4-lower": FIG4_LOWER_CLAIMS,
    "fig5": FIG5_CLAIMS,
    "ablation": ABLATION_CLAIMS,
}
