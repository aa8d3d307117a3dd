"""Dynamic planning: turn pre-processing output into pilot sizing.

Two decisions the paper highlights (§III.E, §IV.C):

* the **k-mer list** depends on the post-trim read length and is unknown
  until pre-processing finishes — B. glumae (50 bp) gets
  k = 35..47 step 2, P. crispa (100 bp) gets k = 51..63 step 4;
* the **pilot P_B fleet size** follows from the job mix: one node per MPI
  k-mer job (the paper's benchmarks show no significant gain beyond one
  node per MPI job) plus a 16-node block per Contrail job (what it takes
  Contrail to match MPI TTCs), all bounded by budget, with MPI jobs
  widened when a single node cannot hold the k-mer table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.assembly.registry import ASSEMBLERS
from repro.cloud.cluster import SETUP_SECONDS
from repro.cloud.ec2 import DEFAULT_PROVISION_SECONDS
from repro.cloud.instances import InstanceType, get_instance_type
from repro.cloud.storage import DEFAULT_LAN_BANDWIDTH, DEFAULT_WAN_BANDWIDTH
from repro.core.memory import task_memory_bytes
from repro.parallel.costmodel import CostModel
from repro.seq.datasets import DatasetSpec


def select_kmer_list(read_length: int) -> tuple[int, ...]:
    """The data-dependent k-mer list (reproduces Table II's two lists).

    Short-read data (<= 60 bp) sweeps odd k from 35 up to ~95% of the
    read length in steps of 2; longer reads use a sparser sweep, 51..63
    step 4 (denser sampling there adds cost without assembly benefit).
    """
    if read_length < 38:
        raise ValueError(f"reads of length {read_length} are too short to assemble")
    if read_length <= 60:
        k_max = min(47, read_length)
        if k_max % 2 == 0:
            k_max -= 1
        return tuple(range(35, k_max + 1, 2))
    return tuple(range(51, 64, 4))


@dataclass(frozen=True)
class AssemblyPlan:
    """Sizing of the assembly stage (pilot P_B)."""

    kmer_list: tuple[int, ...]
    assemblers: tuple[str, ...]
    mpi_nodes_per_job: int
    contrail_nodes_per_job: int
    n_nodes: int
    instance_type: str

    @property
    def n_jobs(self) -> int:
        return len(self.jobs())

    def jobs(self) -> list[tuple[str, int, int]]:
        """(assembler, k, nodes) for every assembly job (:func:`_jobs`)."""
        mpi, mapreduce = self.mpi_nodes_per_job, self.contrail_nodes_per_job
        return [
            (a, k, min(nodes, self.n_nodes))
            for a, k, nodes in _jobs(self.assemblers, self.kmer_list, mpi, mapreduce)
        ]


def _jobs(assemblers, kmer_list, mpi_nodes: int, mapreduce_nodes: int):
    """The job list: every assembler at every k of the sweep, but a
    registry ``fixed_k`` assembler once, at its own k.  Each job takes
    ``mapreduce_nodes`` when it is a MapReduce one, else ``mpi_nodes``."""
    for a in assemblers:
        info = ASSEMBLERS[a]
        mapreduce = info.distributed_impl == "Hadoop MapReduce"
        nodes = mapreduce_nodes if mapreduce else mpi_nodes
        ks = kmer_list if info.fixed_k is None else (info.fixed_k,)
        yield from ((a, k, nodes) for k in ks)


def require_at_least_one(**fields: int) -> None:
    """Raise a ``ValueError`` naming the first of ``fields`` below 1."""
    for name, value in fields.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def plan_assembly(
    spec: DatasetSpec,
    kmer_list: tuple[int, ...],
    assemblers: tuple[str, ...],
    instance_type: str,
    mpi_nodes_per_job: int = 1,
    contrail_nodes_per_job: int = 16,
    max_nodes: int = 64,
) -> AssemblyPlan:
    """Size pilot P_B for the given job mix.

    MPI jobs are widened beyond ``mpi_nodes_per_job`` when the per-node
    k-mer table would not fit the instance memory (aggregate distributed
    memory is the whole point of the MPI assemblers).
    """
    if not kmer_list or not assemblers:
        raise ValueError("need at least one k and one assembler")
    require_at_least_one(
        mpi_nodes_per_job=mpi_nodes_per_job,
        contrail_nodes_per_job=contrail_nodes_per_job,
        max_nodes=max_nodes,
    )
    itype = get_instance_type(instance_type)

    # Widen MPI jobs until the assembly footprint fits per node.
    need = mpi_nodes_per_job
    while (
        task_memory_bytes(spec, "assembly", n_nodes=need) > itype.memory_bytes
        and need < max_nodes
    ):
        need += 1
    mpi_nodes = need

    jobs = _jobs(assemblers, kmer_list, mpi_nodes, contrail_nodes_per_job)
    wanted = sum(nodes for _, _, nodes in jobs)
    n_nodes = max(mpi_nodes, min(wanted, max_nodes))

    return AssemblyPlan(
        kmer_list=tuple(kmer_list),
        assemblers=tuple(assemblers),
        mpi_nodes_per_job=mpi_nodes,
        contrail_nodes_per_job=min(contrail_nodes_per_job, n_nodes),
        n_nodes=n_nodes,
        instance_type=instance_type,
    )


# ---------------------------------------------------------------------------
# Run prediction (ROADMAP item 5: a planner validated against traces).
#
# The predictor prices a run *before* it happens from nothing but the
# dataset spec, the assembly plan and the post-trim read length, using
# the same physical cost model the simulator itself prices with.  Stage
# work is expressed per k-mer *window* — a read of post-trim length L
# contributes (L - k + 1) windows at k — and the per-window coefficients
# below are calibrated once against the workload generators' measured
# phase usage (messages dominate the MPI assemblers: ~one point-to-point
# message per window).  repro.obs.attribution compares these predictions
# against the critical-path actuals from the run's own trace and gates
# on the relative error.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssemblerCoefficients:
    """Per-window work coefficients of one assembler's job.

    ``*_work_per_window`` values are total work units per window across
    all ranks (divide by ranks for the per-rank critical path);
    ``messages_per_window`` is the total point-to-point message count.
    """

    kmer_work_per_window: float = 1.72
    graph_work_per_window: float = 0.52
    walk_work_per_window: float = 0.88
    messages_per_window: float = 0.0
    comm_bytes_per_window: float = 0.0
    collective_phases: int = 0
    mr_jobs: int = 0


#: Calibrated against the measured phase usage of each workload
#: generator on the B. glumae analog, keyed by the registry's
#: ``distributed_impl``.  Every assembler does the same aggregate work;
#: MPI adds its messaging, MapReduce pays Hadoop job startup instead.
_COEFFICIENTS: dict[str, AssemblerCoefficients] = {
    "MPI": AssemblerCoefficients(
        messages_per_window=0.97, comm_bytes_per_window=26.0, collective_phases=5
    ),
    "none": AssemblerCoefficients(),
    "Hadoop MapReduce": AssemblerCoefficients(mr_jobs=4),
}

#: Pre-processing threads (UnitDescription cores for the QC unit).
_PREPROCESS_THREADS = 8
#: Contig bases produced per assembly job, as a fraction of input bases
#: (assemblies condense reads ~25-50x; calibrated on the analog runs).
_CONTIG_BP_FRACTION_PER_JOB = 0.021
#: Pseudoalignment operations per read during quantification.
_QUANT_OPS_PER_READ = 1.27


#: Host-side fused-extraction throughput: k-mer windows packed, masked,
#: canonicalized and counted per real second by the parent process
#: (calibrated on the Fig. 4 analog workload; real seconds, not virtual
#: — the spectrum build never touches the virtual clock).
_SPECTRUM_WINDOWS_PER_SECOND = 6.0e6


def predict_spectrum_build(
    spec: DatasetSpec, kmer_list, modal_read_length: int
) -> float:
    """Predicted real host seconds of the count-once spectrum build in the
    parent: total windows over the calibrated throughput."""
    windows = sum(
        spec.n_reads * max(1, modal_read_length - k + 1) for k in kmer_list
    )
    return windows / _SPECTRUM_WINDOWS_PER_SECOND


@dataclass(frozen=True)
class StagePrediction:
    """Predicted virtual seconds of one pipeline stage (or overhead)."""

    name: str
    seconds: float


@dataclass(frozen=True)
class RunPrediction:
    """Predicted end-to-end TTC and cost of a planned run."""

    stages: tuple[StagePrediction, ...]
    ttc_s: float
    cost_usd: float
    vm_hours: int

    def stage_seconds(self, name: str) -> float:
        for s in self.stages:
            if s.name == name:
                return s.seconds
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "ttc_s": self.ttc_s,
            "cost_usd": self.cost_usd,
            "vm_hours": self.vm_hours,
            "stages": {s.name: round(s.seconds, 6) for s in self.stages},
        }


def _predict_job_seconds(
    assembler: str,
    k: int,
    nodes: int,
    spec: DatasetSpec,
    modal_read_length: int,
    itype: InstanceType,
    cm: CostModel,
) -> float:
    """Predicted virtual seconds of one assembly job."""
    co = _COEFFICIENTS[ASSEMBLERS[assembler].distributed_impl]
    windows = spec.n_reads * max(1, modal_read_length - k + 1)
    ranks = nodes * itype.vcpus
    f = itype.compute_factor
    t = co.kmer_work_per_window * windows / (ranks * cm.rate("kmer") * f)
    t += co.graph_work_per_window * windows / (ranks * cm.rate("graph") * f)
    t += co.walk_work_per_window * windows / (ranks * cm.rate("walk") * f)
    t += co.messages_per_window * windows * cm.message_latency
    if nodes > 1 and co.comm_bytes_per_window:
        off_node = (nodes - 1) / nodes
        t += (
            co.comm_bytes_per_window * windows * off_node
            / (itype.network_bandwidth * nodes)
        )
    if co.collective_phases:
        t += (
            co.collective_phases
            * cm.collective_latency
            * max(1.0, math.log2(ranks))
        )
    t += co.mr_jobs * cm.mr_job_overhead
    t += spec.preprocessed_bytes / (cm.rate("io") * nodes)
    return t


def predict_run(
    spec: DatasetSpec,
    plan: AssemblyPlan,
    modal_read_length: int,
    *,
    reuses_vms: bool = True,
    pa_instance_type: str | None = None,
    cost_model: CostModel | None = None,
    wan_bandwidth: float = DEFAULT_WAN_BANDWIDTH,
    lan_bandwidth: float = DEFAULT_LAN_BANDWIDTH,
    provision_seconds: float = DEFAULT_PROVISION_SECONDS,
) -> RunPrediction:
    """Predict a planned run's virtual TTC and on-demand dollar cost.

    ``reuses_vms`` selects the matching scheme's overhead structure: S2
    builds one shared cluster and grows it for the fan-out; S1 builds a
    fresh cluster per pilot and pays LAN hand-overs between them.
    """
    cm = cost_model or CostModel()
    itype = get_instance_type(plan.instance_type)
    pa_itype = get_instance_type(pa_instance_type or plan.instance_type)
    input_bases = spec.n_reads * spec.read_length

    stage_in = spec.fastq_bytes / wan_bandwidth

    pre = input_bases / (
        _PREPROCESS_THREADS * cm.rate("preprocess") * pa_itype.compute_factor
    )
    pre += (spec.fastq_bytes + spec.preprocessed_bytes) / cm.rate("io")

    jobs = plan.jobs()
    assembly = max(
        _predict_job_seconds(a, k, n, spec, modal_read_length, itype, cm)
        for a, k, n in jobs
    )

    contig_bytes = _CONTIG_BP_FRACTION_PER_JOB * input_bases * len(jobs)
    merge = contig_bytes / (cm.rate("merge") * itype.compute_factor)
    quant = (
        _QUANT_OPS_PER_READ * spec.n_reads
        / (cm.rate("quantify") * itype.compute_factor)
    )

    stages = [StagePrediction("stage-in", stage_in)]
    if reuses_vms:
        # S2: one shared cluster built before pre-processing, grown
        # (provision only, no re-setup) for the fan-out.
        overhead_pre = provision_seconds + SETUP_SECONDS
        overhead_asm = provision_seconds if plan.n_nodes > 1 else 0.0
        stages += [
            StagePrediction("cluster-setup", overhead_pre),
            StagePrediction("pre-processing", pre),
            StagePrediction("cluster-grow", overhead_asm),
            StagePrediction("transcript-assembly", assembly),
            StagePrediction("post-processing", merge),
            StagePrediction("quantification", quant),
        ]
        ttc = sum(s.seconds for s in stages)
        head_hours = math.ceil((ttc - stage_in) / 3600.0)
        worker_hours = (
            math.ceil((provision_seconds + assembly) / 3600.0)
            if plan.n_nodes > 1
            else 0
        )
        vm_hours = head_hours + (plan.n_nodes - 1) * worker_hours
        cost = (
            head_hours * pa_itype.price_per_hour
            + (plan.n_nodes - 1) * worker_hours * itype.price_per_hour
        )
    else:
        # S1: a fresh cluster per pilot, LAN hand-overs in between.
        copy_pre = spec.preprocessed_bytes / lan_bandwidth
        copy_contigs = contig_bytes / lan_bandwidth
        cluster = provision_seconds + SETUP_SECONDS
        stages += [
            StagePrediction("cluster-setup", 3 * cluster),
            StagePrediction("data-handover", copy_pre + copy_contigs),
            StagePrediction("pre-processing", pre),
            StagePrediction("transcript-assembly", assembly),
            StagePrediction("post-processing", merge),
            StagePrediction("quantification", quant),
        ]
        ttc = sum(s.seconds for s in stages)
        pa_hours = math.ceil((cluster + pre) / 3600.0)
        pb_hours = math.ceil((cluster + copy_pre + assembly) / 3600.0)
        pc_hours = math.ceil(
            (cluster + copy_contigs + merge + quant) / 3600.0
        )
        vm_hours = pa_hours + plan.n_nodes * pb_hours + pc_hours
        cost = (
            pa_hours * pa_itype.price_per_hour
            + plan.n_nodes * pb_hours * itype.price_per_hour
            + pc_hours * itype.price_per_hour
        )

    return RunPrediction(
        stages=tuple(stages),
        ttc_s=ttc,
        cost_usd=cost,
        vm_hours=vm_hours,
    )
