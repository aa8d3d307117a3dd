"""The end-to-end pilot-based Rnnotator pipeline.

``RnnotatorPipeline.run`` executes the full workflow of the paper on the
simulated cloud: data staging, pilot P_A (pre-processing), pilot P_B
(multi-k multi-assembler transcript assembly), pilot P_C
(post-processing + quantification) — under either pilot-VM matching
scheme (S1/S2) and any of the three workflow patterns, reporting
per-stage TTC and the run's dollar cost exactly like §IV.C's sample run.
"""

from __future__ import annotations

import hashlib
import operator
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator

from repro.assembly.contigs import AssemblyResult, Contig
from repro.assembly.packed import check_k
from repro.assembly.registry import ASSEMBLERS
from repro.assembly.sweep import KmerSpectrum, build_spectra, get_kmer_table_cache
from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.cluster import Cluster, build_cluster
from repro.cloud.ec2 import EC2Region
from repro.cloud.instances import cheapest_with_memory
from repro.cloud.storage import TransferModel
from repro.core import multikmer
from repro.core.assembly_cache import get_assembly_cache
from repro.core.memory import task_memory_bytes
from repro.core.planner import (
    AssemblyPlan,
    RunPrediction,
    plan_assembly,
    predict_run,
    predict_spectrum_build,
    require_at_least_one,
    select_kmer_list,
)
from repro.core.preprocess import PreprocessParams, PreprocessResult, preprocess
from repro.core.merge import MergeResult, merge_contigs
from repro.core.quantify import QuantificationResult, quantify
from repro.core.schemes import MatchingScheme
from repro.core.workflow import STAGES, StageReport, WorkflowPattern
from repro.obs import Tracer, get_tracer, use_tracer
from repro.obs.tracer import MAIN_TRACK
from repro.parallel.costmodel import CostModel
from repro.parallel.executor import (
    EXECUTOR_BACKENDS,
    DelayedWorkload,
    ProcessExecutor,
    make_executor,
)
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.manager import PilotManager, UnitFailureError, UnitManager
from repro.pilot.pilot import Pilot
from repro.pilot.scheduler import SchedulingError
from repro.pilot.states import PILOT_FINAL
from repro.seq.datasets import Dataset, DatasetSpec
from repro.seq.readstore import ReadStore

if TYPE_CHECKING:
    from repro.cloud.spot import SpotPreemptor
    from repro.core.checkpoint import CheckpointStore
    from repro.pilot.elastic import ElasticPool

submit_spectra_build = None  # pipebench patch point; ROADMAP 1(a) removes it

#: The stages a run reports — one :class:`StageReport` and ``stage`` span
#: each — in run order: data staging, then Fig. 1's four.
#: ``FaultPlan.abort_after_stage`` accepts exactly these.
STAGE_NAMES = ("stage-in", *(name for name, _ in STAGES))


class PipelineError(RuntimeError):
    """A stage failed terminally (e.g. OOM under a static workflow)."""


class PipelineKilled(PipelineError):
    """The run was killed mid-pipeline by its :class:`FaultPlan`: the
    simulated analogue of the driver process dying.  Checkpoints written
    up to the kill point survive; a rerun with the same
    ``checkpoint_dir`` resumes bit-identically."""


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of one pipeline run."""

    assemblers: tuple[str, ...] = ("ray",)
    scheme: MatchingScheme = MatchingScheme.S2
    workflow: WorkflowPattern = WorkflowPattern.DISTRIBUTED_DYNAMIC
    instance_type: str | None = None  # None -> planner chooses (dynamic)
    mpi_nodes_per_job: int = 1
    contrail_nodes_per_job: int = 16
    max_nodes: int = 64
    min_count: int = 2
    min_contig_length: int = 100
    kmer_list: tuple[int, ...] | None = None  # None -> data-dependent
    preprocess_params: PreprocessParams = field(default_factory=PreprocessParams)
    #: Workload-execution backend for the assembly fan-out, by name:
    #: "serial", "thread" or "process".  Each run makes its own and
    #: closes it.  The single-unit stages (pre/post-processing,
    #: quantification) always run serially: their workloads are closures
    #: over pipeline state.
    executor: str = "serial"
    executor_workers: int | None = None
    #: Directory of the durable checkpoint store (None = no
    #: checkpointing).  A rerun pointed at the same directory with the
    #: same dataset and config replays completed units bit-identically
    #: — same contigs, usage and virtual TTCs (see repro.core.checkpoint).
    checkpoint_dir: str | None = None
    #: Restart budget for the assembly fan-out units; >0 lets the
    #: restart machinery survive transient (preemption) failures.
    unit_max_restarts: int = 0

    def fingerprint(self) -> str:
        """Stable digest of the result-determining knobs: runs of one
        dataset are comparable exactly when their fingerprints are equal
        (the run ledger's regression check refuses to compare otherwise).

        Execution-mechanics knobs that cannot change results — executor
        backend and worker count, checkpoint directory, restart budget —
        are deliberately excluded.  Caching, faults and telemetry are
        not knobs at all: a cache is a process-wide scope
        (``use_assembly_cache``, ``use_kmer_table_cache``) whose hits are
        bit-identical, faults are the pipeline's :class:`FaultPlan`, and
        sampling / heartbeat cadences and alert rules are arguments of
        the :class:`~repro.obs.Tracer`.
        """
        key = repr(
            (
                self.assemblers,
                self.scheme.value,
                self.workflow.value,
                self.instance_type,
                self.mpi_nodes_per_job,
                self.contrail_nodes_per_job,
                self.max_nodes,
                self.min_count,
                self.min_contig_length,
                self.kmer_list,
                self.preprocess_params,
            )
        )
        return hashlib.sha256(key.encode()).hexdigest()[:16]

    def __post_init__(self) -> None:
        # Kept as tuples of Python values: one run, one fingerprint,
        # whether the caller spelled it with a list or numpy ints.
        object.__setattr__(self, "assemblers", tuple(self.assemblers))
        if not self.assemblers:
            raise ValueError("need at least one assembler")
        unknown = [a for a in self.assemblers if a not in ASSEMBLERS]
        if unknown:
            raise ValueError(
                f"unknown assemblers {unknown}, known: {sorted(ASSEMBLERS)}"
            )
        if len(set(self.assemblers)) < len(self.assemblers):
            raise ValueError(f"duplicate assemblers in {self.assemblers}")
        if self.kmer_list is not None:
            ks = tuple(check_k(operator.index(k)) for k in self.kmer_list)
            object.__setattr__(self, "kmer_list", ks)
            if not ks:
                raise ValueError(
                    "kmer_list must be None (data-dependent) or non-empty"
                )
            if len(set(ks)) < len(ks):
                raise ValueError(f"duplicate ks in kmer_list {ks}")
        if self.workflow is WorkflowPattern.CONVENTIONAL and (
            not self.scheme.reuses_vms
        ):
            raise ValueError(
                "the conventional pattern implies VM reuse (S2/S3)"
            )
        require_at_least_one(
            mpi_nodes_per_job=self.mpi_nodes_per_job,
            contrail_nodes_per_job=self.contrail_nodes_per_job,
            max_nodes=self.max_nodes,
            min_count=self.min_count,
        )
        if self.executor not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"executor must be one of {sorted(EXECUTOR_BACKENDS)}, "
                f"got {self.executor!r}"
            )
        if self.executor_workers is not None and self.executor_workers < 1:
            raise ValueError(
                f"executor_workers must be None or >= 1, "
                f"got {self.executor_workers}"
            )
        if self.unit_max_restarts < 0:
            raise ValueError("unit_max_restarts must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """Faults injected into one run: the chaos drills of the smoke CLI,
    the CI chaos job and the tests.  Not configuration — nothing here is
    fingerprinted, ledgered or replaced by a benchmark."""

    #: Virtual-seconds offsets from the start of the assembly fan-out at
    #: which the cloud reclaims one worker VM of P_B's cluster (spot
    #: preemption; the head node is protected).
    preempt_at: tuple[float, ...] = ()
    #: Raise :class:`PipelineKilled` right after the named stage
    #: completes — the simulated driver kill that exercises
    #: checkpoint/resume.
    abort_after_stage: str | None = None
    #: Real-sleep ``straggle_seconds`` inside every fan-out workload
    #: whose unit name contains ``straggle_unit`` — the straggler drill
    #: (heartbeats see the delay; no virtual quantity changes).
    straggle_unit: str | None = None
    straggle_seconds: float = 0.0

    def __post_init__(self) -> None:
        if any(dt < 0 for dt in self.preempt_at):
            raise ValueError("preempt_at offsets must be >= 0")
        if self.straggle_seconds < 0:
            raise ValueError("straggle_seconds must be >= 0")
        if self.abort_after_stage not in (None, *STAGE_NAMES):
            raise ValueError(
                f"abort_after_stage must be one of {STAGE_NAMES}, "
                f"got {self.abort_after_stage!r}"
            )


@dataclass
class PipelineResult:
    """Everything a run produced, plus its timing and cost."""

    config: PipelineConfig
    stages: list[StageReport]
    preprocess: PreprocessResult
    kmer_list: tuple[int, ...]
    plan: AssemblyPlan
    assemblies: dict[tuple[str, int], AssemblyResult]
    merge: MergeResult
    quantification: QuantificationResult
    total_ttc: float
    total_cost: float
    transfer_seconds: float
    #: Checkpoint store traffic when ``config.checkpoint_dir`` was set
    #: (keys: unit_hits/unit_misses/unit_puts); ``None`` otherwise.
    #: ``unit_hits > 0`` means this run resumed prior work.
    checkpoint_stats: dict | None = None

    @property
    def transcripts(self) -> list[Contig]:
        return self.merge.transcripts

    def stage_ttc(self, name: str) -> float:
        for s in self.stages:
            if s.name == name:
                return s.ttc
        raise KeyError(name)

    def summary(self) -> str:
        lines = [
            f"pipeline: {'+'.join(self.config.assemblers)} | "
            f"scheme={self.config.scheme.value} "
            f"workflow={self.config.workflow.value}",
            f"k-mer list: {list(self.kmer_list)}",
        ]
        for s in self.stages:
            lines.append(
                f"  {s.name:22s} {s.ttc:9.0f} s  on {s.n_nodes:3d} x "
                f"{s.instance_type} ({s.pilot}) {s.notes}"
            )
        lines.append(
            f"TOTAL: {self.total_ttc:.0f} s "
            f"({self.total_ttc / 3600:.2f} h), cost {self.total_cost:.2f} USD"
        )
        real = sum(s.real_seconds for s in self.stages)
        if real:
            lines.append(f"real host time across stages: {real:.2f} s")
        return "\n".join(lines)


@dataclass
class _Run:
    """One run's context: what the caller passed, the fresh simulated
    region it runs on, and then the products each stage fills in for the
    ones after it (unset until that stage ran; DESIGN §7)."""

    dataset: Dataset
    config: PipelineConfig
    faults: FaultPlan
    cost_model: CostModel
    #: Closed when the run ends, however it ends.
    cleanup: ExitStack

    clock: SimClock = field(default_factory=SimClock)
    stages: list[StageReport] = field(default_factory=list)
    #: The raw reads, encoded exactly once: QC is array work on this
    #: store, and its digest is QC's content address.
    raw_store: ReadStore | None = field(init=False)
    #: Unit outcomes are keyed by content (ReadStore digests and
    #: assembly params).
    ckpt: CheckpointStore | None = None

    #: The instance type of every pilot: the plan sizes P_B in nodes.
    itype: str = field(init=False)
    pa: Pilot = field(init=False)
    shared_cluster: Cluster | None = field(init=False)
    pre: PreprocessResult = field(init=False)
    store: ReadStore = field(init=False)
    plan: AssemblyPlan = field(init=False)
    #: Closed when the assembly fan-out ends, or by ``cleanup`` when a
    #: stage before that fails: the executor the pipeline made and the
    #: spectra this run shared.
    fanout: ExitStack = field(init=False)
    spectra: tuple[KmerSpectrum, ...] = field(init=False)
    computing: frozenset[tuple] = field(init=False)
    missing_ks: tuple[int, ...] = field(init=False)
    prediction: RunPrediction = field(init=False)
    pb: Pilot = field(init=False)
    umb: UnitManager = field(init=False)
    fanout_keys: tuple = field(init=False)
    assemblies: dict[tuple[str, int], AssemblyResult] = field(init=False)
    pc: Pilot = field(init=False)
    umc: UnitManager = field(init=False)
    merged: MergeResult = field(init=False)
    quantification: QuantificationResult = field(init=False)

    def __post_init__(self) -> None:
        """The fresh region every stage runs on, at virtual time 0."""
        get_tracer().bind_clock(self.clock)
        self.events = EventQueue(self.clock)
        self.region = EC2Region(self.clock)
        self.transfers = TransferModel(self.clock)
        self.pm = PilotManager(self.region, self.events)
        self.raw_store = ReadStore.from_reads(self.dataset.run.all_reads())
        if self.config.checkpoint_dir is not None:
            from repro.core.checkpoint import CheckpointStore

            self.ckpt = CheckpointStore(self.config.checkpoint_dir)

    @property
    def spec(self) -> DatasetSpec:
        return self.dataset.spec


@contextmanager
def _stage(run: _Run, name: str, pilot: Pilot | None) -> Iterator[SimpleNamespace]:
    """The one place a reported stage runs: the ``with`` body, under an
    open ``stage:<name>`` span on ``pilot``'s track (data staging runs on
    none).  The body leaves its ``notes`` on the yielded record.  On a
    clean exit the :class:`StageReport` is appended with the span's exact
    virtual interval (the report CLI cross-checks ``v1 - v0`` against
    ``StageReport.ttc``) and the span closes ``done``; a raising body
    closes it ``failed`` with the error.  Last, die here if the fault
    plan says so."""
    placement = {"pilot": "-", "n_nodes": 0, "instance_type": "-"}
    if pilot is not None:
        desc = pilot.description
        placement = {"pilot": pilot.pilot_id, "n_nodes": desc.n_nodes,
                     "instance_type": desc.instance_type}
    stage = SimpleNamespace(notes="")
    t0, w0 = run.clock.now, time.perf_counter()
    with get_tracer().span(
        f"stage:{name}", "stage", process=pilot and pilot.pilot_id,
        stage=name, **placement,
    ) as span:
        span.process = MAIN_TRACK  # what the stage records stays on the driver's track
        try:
            yield stage
        except BaseException as exc:
            span.set(notes=stage.notes, outcome="failed", error=str(exc))
            raise
        run.stages.append(StageReport(
            name, started_at=t0, finished_at=run.clock.now, notes=stage.notes,
            real_seconds=time.perf_counter() - w0, **placement,
        ))
        span.set(notes=stage.notes, outcome="done")
    if run.faults.abort_after_stage == name:
        raise PipelineKilled(
            f"simulated kill after stage {name!r} "
            f"(checkpoints: {run.config.checkpoint_dir})"
        )


def _unit_manager(run: _Run, pilot: Pilot, **fanout) -> UnitManager:
    """A unit manager over ``pilot`` alone, asking the run's checkpoint
    store and the active run cache about every keyed unit; ``fanout`` is
    what only the assembly stage sets (its executor backend and elastic
    pool)."""
    um = UnitManager(
        run.events,
        cost_model=run.cost_model,
        checkpoint=run.ckpt,
        cache=get_assembly_cache(),
        **fanout,
    )
    um.add_pilot(pilot)
    return um


def _single_unit_stage(
    run: _Run,
    um: UnitManager,
    stage: str,
    compute,
    notes,
    *,
    name: str,
    memory_bytes: int,
    key,
    undersized: bool = False,
    **io_bytes: int,
):
    """Run ``compute()`` as the one unit of ``stage`` on ``um``'s pilot
    (its result carries its own raw ``usage``) and close the stage with
    ``notes(result)``; returns the result.  The workload runs serially:
    it is a closure over the run.  ``key`` is its content address, by
    which the agent answers it from the checkpoint store or the run
    cache instead of calling ``compute()``.

    ``undersized`` marks the stage whose pilot a static workflow may have
    sized too small for its input (P_A): its failures name the instance
    type and say so, scheduling errors included.
    """
    (pilot,) = um.pilots

    def work():
        result = compute()
        return result, result.usage

    failed, hint = f"{stage} failed", ""
    if undersized:
        failed += f" on {pilot.description.instance_type}"
        hint = " (a dynamic workflow would have chosen a larger instance)"
    with _stage(run, stage, pilot) as closing:
        desc = UnitDescription(
            name=name,
            work=work,
            cores=8,
            memory_bytes=memory_bytes,
            scale=run.dataset.read_scale,
            stage=stage,
            checkpoint_key=key,
            **io_bytes,
        )
        (unit,) = um.submit_units([desc])
        try:
            um.run([unit])
        except UnitFailureError as exc:
            detail = exc if undersized else unit.error
            raise PipelineError(f"{failed}: {detail}{hint}") from exc
        except SchedulingError as exc:
            if not undersized:
                raise
            raise PipelineError(f"{failed}: {exc}{hint}") from exc
        closing.notes = notes(unit.result)
    return unit.result


# -- the stages ---------------------------------------------------------------
# Each takes the run context, reads what earlier stages filled in and fills
# in its own products; the five named in STAGE_NAMES run inside _stage.


def _stage_in(run: _Run) -> None:
    """Stage 0: the FASTQ goes up over the WAN."""
    spec = run.spec
    with _stage(run, "stage-in", None) as closing:
        run.transfers.upload(spec.fastq_bytes, dst="head")
        closing.notes = f"{spec.fastq_bytes / 1024**3:.1f} GB over WAN"


def _preprocess_stage(run: _Run) -> None:
    """Pilot P_A and the QC unit.  Fills ``itype``, ``pa``,
    ``shared_cluster`` (S2/S3: the fleet every pilot reuses) and ``pre``;
    drops ``raw_store``."""
    config, spec = run.config, run.spec
    pre_mem = task_memory_bytes(spec, "preprocess")
    if config.instance_type is not None:
        run.itype = config.instance_type
    elif config.workflow.decides_at_runtime:
        run.itype = cheapest_with_memory(pre_mem, min_vcpus=8).name
    else:
        run.itype = "c3.2xlarge"  # the static default of the paper

    run.shared_cluster = None
    run.pa = run.pm.submit(PilotDescription("P_A", run.itype, n_nodes=1))
    if config.scheme.reuses_vms:
        run.shared_cluster = build_cluster(
            run.region, run.events, run.itype, 1, name="shared"
        )
        run.pm.launch_on(run.pa, run.shared_cluster)
    else:
        run.pm.launch(run.pa)

    run.pre = _single_unit_stage(
        run,
        _unit_manager(run, run.pa),
        "pre-processing",
        lambda: preprocess(run.raw_store, config.preprocess_params),
        lambda pre: f"{pre.output_reads}/{pre.input_reads} reads kept",
        name="preprocess",
        memory_bytes=pre_mem,
        key=("stage:preprocess", run.raw_store.digest, config.preprocess_params),
        undersized=True,
        input_bytes=spec.fastq_bytes,
        output_bytes=spec.preprocessed_bytes,
    )
    run.raw_store = None  # QC returned: the raw arrays can go


def _plan_stage(run: _Run) -> None:
    """The dynamic decision: the k list and P_B's size from what QC kept.
    Fills ``store`` and ``plan``."""
    config = run.config
    kmer_list = config.kmer_list or select_kmer_list(run.pre.modal_read_length)
    # Every fan-out unit shares the filtered store QC returned (under
    # the process backend it attaches to its shared-memory segment),
    # and quantification joins against the same arrays.  The run holds
    # an alias: what it shares and unlinks is its own, and the
    # result's store stays process memory.  Quantification reads it
    # last, so it outlives the assembly stage, and however the run ends
    # its shared segment is unlinked here.
    run.store = run.pre.store.alias()
    run.cleanup.callback(run.store.close)  # unlinks the segment iff one was created
    run.plan = plan_assembly(
        run.spec,
        kmer_list,
        config.assemblers,
        run.itype,
        mpi_nodes_per_job=config.mpi_nodes_per_job,
        contrail_nodes_per_job=config.contrail_nodes_per_job,
        max_nodes=config.max_nodes,
    )


def _close_spectra(run: _Run) -> None:
    for sp in run.spectra:
        # Drops the graph products the fan-out's jobs shared and unlinks
        # the segments this run shared; local arrays are the table
        # cache's and stay open (see repro.assembly.sweep).
        sp.close()


def _spectrum_demand_stage(run: _Run) -> None:
    """Which jobs compute and which k they read.  Fills ``computing``,
    ``spectra`` (the table cache's hits so far), ``missing_ks`` and
    ``fanout``.

    K-mers are counted only for jobs that will read them.  A job is
    *satisfied* when its content key is already in the assembly cache or
    the checkpoint store: it will be served from there and never opens a
    spectrum.  Only the k of unsatisfied jobs is needed; a needed k is
    looked up in the table cache first, and what is still missing is
    counted in one fused pass in the parent (the supply stage).  The
    probes are predictions, not promises: a job that misses after all
    builds its own spectrum, bit-identically.
    """
    config, store, ckpt = run.config, run.store, run.ckpt
    jobs = multikmer.planned_jobs(
        run.plan, store, config.min_count, config.min_contig_length
    )
    table_cache = get_kmer_table_cache()
    asm_cache = get_assembly_cache()
    tracer = get_tracer()
    unsatisfied = [
        j
        for j in jobs
        if not (asm_cache is not None and j.key in asm_cache)
        and not (ckpt is not None and ckpt.has_unit(j.key))
    ]
    run.computing = frozenset(j.key for j in unsatisfied)
    needed_ks = sorted({j.k for j in unsatisfied})
    cached = (
        {k: table_cache.get(store.digest, k) for k in needed_ks}
        if table_cache is not None
        else {}
    )
    run.spectra = tuple(sp for sp in cached.values() if sp is not None)
    run.fanout = run.cleanup.enter_context(ExitStack())
    run.fanout.callback(_close_spectra, run)
    run.missing_ks = tuple(k for k in needed_ks if cached.get(k) is None)
    if not run.missing_ks and tracer.enabled:
        tracer.event(
            "spectrum.skip",
            category="spectrum",
            ks=sorted({j.k for j in jobs}),
            jobs=len(jobs),
            jobs_satisfied=len(jobs) - len(unsatisfied),
            reason="spectra cached" if needed_ks else "jobs satisfied",
        )


def _prediction_stage(run: _Run) -> None:
    """Price the rest of the run up front from spec + plan alone; the
    prediction rides on the pipeline span so trace analytics
    (repro.obs.attribution) can gate predicted-vs-actual TTC/cost.
    Fills ``prediction``."""
    plan = run.plan
    run.prediction = predict_run(
        run.spec,
        plan,
        run.pre.modal_read_length,
        reuses_vms=run.config.scheme.reuses_vms,
        pa_instance_type=run.itype,
        cost_model=run.cost_model,
        wan_bandwidth=run.transfers.wan_bandwidth,
        lan_bandwidth=run.transfers.lan_bandwidth,
        provision_seconds=run.region.provision_seconds,
    )
    tracer = get_tracer()
    if tracer.enabled:
        # Stream the prediction *now*, not only on the pipeline
        # span at teardown: budget burn-rate rules and the live
        # monitor's ETA need planned cost/TTC while the meter is
        # still running.
        tracer.event(
            "planner.prediction",
            category="planner",
            ttc_s=run.prediction.ttc_s,
            cost_usd=run.prediction.cost_usd,
            assembly_jobs=plan.n_jobs,
            n_nodes=plan.n_nodes,
            instance_type=plan.instance_type,
        )


def _provision_stage(run: _Run) -> None:
    """Pilot P_B on ``plan.n_nodes``, with the fault plan's preemptor,
    S3's elastic pool and the configured backend.  Fills ``pb`` and
    ``umb``."""
    config, faults, region, events = run.config, run.faults, run.region, run.events
    n_nodes = run.plan.n_nodes
    pb = run.pb = run.pm.submit(PilotDescription("P_B", run.itype, n_nodes=n_nodes))
    run.pm.finish(run.pa)  # its data is handed over; under S1 its VM dies
    if config.scheme.reuses_vms:
        if run.shared_cluster.n_nodes < n_nodes:
            run.shared_cluster.grow(region, n_nodes - run.shared_cluster.n_nodes)
        run.pm.launch_on(pb, run.shared_cluster)
    else:
        run.pm.launch(pb)
        run.transfers.copy(run.spec.preprocessed_bytes, src="P_A", dst="P_B")

    # ---- failure injection + S3 elasticity for the fan-out ---------
    preemptor: SpotPreemptor | None = None
    if faults.preempt_at:
        from repro.cloud.spot import SpotPreemptor

        preemptor = SpotPreemptor(
            region,
            events,
            cluster=pb.cluster,
            protect={pb.cluster.head.vm_id},
        )
        preemptor.arm_in(faults.preempt_at)
    elastic: ElasticPool | None = None
    if config.scheme.elastic:
        from repro.pilot.elastic import ElasticPool

        elastic = ElasticPool(
            region,
            events,
            cluster=pb.cluster,
            pilot=pb,
            min_nodes=1,
            max_nodes=config.max_nodes,
        )
        if preemptor is not None:
            preemptor.on_preempt.append(elastic.on_preempt)

    # Any backend can spread the fan-out's picklable workloads over the
    # host's cores; a pool forks at its first submit, which no hit reaches.
    run.umb = _unit_manager(
        run,
        pb,
        executor=make_executor(config.executor, config.executor_workers),
        elastic=elastic,
    )
    run.fanout.callback(run.umb.close)  # heartbeat threads, then the pool


def _spectrum_supply_stage(run: _Run) -> None:
    """Count the missing spectra and put every spectrum where the
    fan-out's workers can read it.  Extends ``spectra``."""
    if run.missing_ks:
        planner_serial_s = predict_spectrum_build(
            run.spec, run.missing_ks, run.pre.modal_read_length
        )
        built = build_spectra(
            run.store, run.missing_ks, span_attrs={"planner_serial_s": planner_serial_s}
        )
        run.spectra += built
        table_cache = get_kmer_table_cache()
        if table_cache is not None:
            for sp in built:
                table_cache.put(sp)
    if isinstance(run.umb.executor, ProcessExecutor):
        # Move every spectrum into shared memory BEFORE the
        # pool's first fan-out submit: the pool forks at that
        # submit, so its workers find the live segments in the
        # inherited attach registry and map nothing.
        for sp in run.spectra:
            sp.share()


def _assembly_stage(run: _Run) -> None:
    """The multi-k multi-assembler fan-out on P_B.  Fills
    ``fanout_keys`` and ``assemblies``; closes ``fanout``."""
    config, faults, plan = run.config, run.faults, run.plan
    with _stage(run, "transcript-assembly", run.pb) as closing, run.fanout:
        # The stage's host time includes graph derivation.
        closing.notes = (
            f"{plan.n_jobs} jobs "
            f"({'+'.join(config.assemblers)}, k={list(plan.kmer_list)})"
        )
        descs = multikmer.assembly_unit_descriptions(
            plan,
            run.spec,
            run.store,
            run.dataset,
            min_count=config.min_count,
            min_contig_length=config.min_contig_length,
            max_restarts=config.unit_max_restarts,
            spectra=run.spectra,
            computing=run.computing,
        )
        if faults.straggle_unit and faults.straggle_seconds > 0:
            # The straggler drill: delay matching workloads in real
            # time only (virtual usage untouched).
            descs = [
                replace(
                    d,
                    work=DelayedWorkload(d.work, faults.straggle_seconds),
                )
                if faults.straggle_unit in d.name
                else d
                for d in descs
            ]
        units = run.umb.submit_units(descs)
        try:
            run.umb.run(units)
        except UnitFailureError as exc:
            raise PipelineError(
                f"assembly jobs failed: "
                f"{[(u.description.name, u.error) for u in exc.units]}"
            ) from exc
    # The merge output is a pure function of the fan-out results, so
    # its content address is the ordered tuple of their keys.
    run.fanout_keys = tuple(d.checkpoint_key for d in descs)
    run.assemblies = multikmer.collect_assembly_results(units)


def _postprocess_stage(run: _Run) -> None:
    """Pilot P_C and the contig merge.  Fills ``pc``, ``umc`` and
    ``merged``."""
    config, spec, assemblies = run.config, run.spec, run.assemblies
    pc = run.pc = run.pm.submit(PilotDescription("P_C", run.itype, n_nodes=1))
    run.pm.finish(run.pb)
    if config.scheme.reuses_vms:
        if run.umb.elastic is not None:
            run.umb.elastic.shrink_idle()
        run.shared_cluster.shrink_to(run.region, 1)
        run.pm.launch_on(pc, run.shared_cluster)
    else:
        run.pm.launch(pc)
        contig_bytes = int(
            sum(r.total_bp for r in assemblies.values())
            / max(run.dataset.read_scale, 1e-9)
        )
        run.transfers.copy(contig_bytes, src="P_B", dst="P_C")
    run.umc = _unit_manager(run, pc)
    run.merged = _single_unit_stage(
        run,
        run.umc,
        "post-processing",
        lambda: merge_contigs([r.contigs for r in assemblies.values()]),
        lambda m: f"{m.input_contigs} -> {m.output_contigs} contigs",
        name="postprocess-merge",
        memory_bytes=task_memory_bytes(spec, "postprocess"),
        key=("stage:merge", run.fanout_keys),
    )


def _quantification_stage(run: _Run) -> None:
    """The read-to-transcript join, still on P_C, which then finishes.
    Fills ``quantification``."""
    store = run.store
    run.quantification = _single_unit_stage(
        run,
        run.umc,
        "quantification",
        lambda: quantify(store, run.merged.transcripts),
        lambda q: f"{q.assignment_rate:.0%} reads assigned",
        name="quantification",
        memory_bytes=task_memory_bytes(run.spec, "postprocess"),
        # Depends on the pre-processed reads as well as the fan-out.
        key=("stage:quantify", store.digest, run.fanout_keys),
    )
    run.pm.finish(run.pc)


def _root_attrs(run: _Run, tracer: Tracer) -> dict:
    """The ``pipeline`` span's attributes once the fleet is released:
    what was run and its bill, then the plan and the prediction as far
    as the run got, then the alert summary."""
    config = run.config
    attrs = dict(
        dataset=run.spec.name,
        assemblers="+".join(config.assemblers),
        scheme=config.scheme.value,
        workflow=config.workflow.value,
        total_cost_usd=run.region.total_cost,
        config_fingerprint=config.fingerprint(),
    )
    if hasattr(run, "store"):
        attrs["store_digest"] = run.store.digest
    if hasattr(run, "plan"):
        plan = run.plan
        attrs.update(kmer_list=list(plan.kmer_list), n_nodes=plan.n_nodes,
                     instance_type=plan.instance_type)
    if hasattr(run, "prediction"):
        prediction = run.prediction
        attrs.update(planner_ttc_s=prediction.ttc_s,
                     planner_cost_usd=prediction.cost_usd,
                     planner_stages=prediction.as_dict()["stages"])
    return {**attrs, **tracer.alert_summary()}


#: The run, in order.  :meth:`RnnotatorPipeline.run` is a loop over this.
_STAGES = (
    _stage_in,
    _preprocess_stage,
    _plan_stage,
    _spectrum_demand_stage,
    _prediction_stage,
    _provision_stage,
    _spectrum_supply_stage,
    _assembly_stage,
    _postprocess_stage,
    _quantification_stage,
)


def _result(run: _Run) -> PipelineResult:
    ckpt = run.ckpt
    return PipelineResult(
        config=run.config,
        stages=run.stages,
        preprocess=run.pre,
        kmer_list=run.plan.kmer_list,
        plan=run.plan,
        assemblies=run.assemblies,
        merge=run.merged,
        quantification=run.quantification,
        total_ttc=run.clock.now,
        total_cost=run.region.total_cost,
        transfer_seconds=run.transfers.total_seconds,
        checkpoint_stats=(
            None
            if ckpt is None
            else {
                "unit_hits": ckpt.stats.hits,
                "unit_misses": ckpt.stats.misses,
                "unit_puts": ckpt.stats.puts,
            }
        ),
    )


class RnnotatorPipeline:
    """Driver for the full pipeline on a fresh simulated region.

    Passing a :class:`~repro.obs.Tracer` installs it process-wide for the
    duration of :meth:`run` (via :func:`~repro.obs.use_tracer`) and binds
    it to the run's virtual clock, so every instrumented layer underneath
    — event queue, pilots, scheduler, EC2, SGE, assembler phases —
    records into it.  Telemetry beyond spans (resource sampling,
    heartbeats, alert rules) is configured on that tracer.
    """

    def __init__(
        self,
        cost_model: CostModel | None = None,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self.tracer = tracer
        self.faults = faults or FaultPlan()
        #: Alerts fired during the most recent run (empty unless its
        #: tracer had ``alert_rules``); the smoke CLI reads this for its
        #: assertions.
        self.last_alerts: list = []

    # -- public API --------------------------------------------------------

    def run(self, dataset: Dataset, config: PipelineConfig | None = None) -> PipelineResult:
        if self.tracer is not None:
            with use_tracer(self.tracer):
                return self._run(dataset, config)
        return self._run(dataset, config)

    def _run(self, dataset: Dataset, config: PipelineConfig | None) -> PipelineResult:
        """Walk :data:`_STAGES` over a fresh run context, under the
        ambient tracer's alert engine (when it has rules) and inside the
        ``pipeline`` root span.  However the walk ends, every pilot not
        yet final is canceled, the fleet is released (so a failed run is
        billed in full) and the root closes with its ``outcome``:
        ``done``, ``failed`` or ``killed``."""
        config = config or PipelineConfig()
        tracer = get_tracer()
        with tracer.alerting() as alerts, ExitStack() as cleanup:
            self.last_alerts = alerts
            run = _Run(dataset, config, self.faults, self.cost_model, cleanup)
            with tracer.span("pipeline", "pipeline") as root:
                try:
                    for stage in _STAGES:
                        stage(run)
                except BaseException as exc:
                    killed = isinstance(exc, PipelineKilled)
                    ended = {"outcome": "killed" if killed else "failed",
                             "error": str(exc)}
                    raise
                else:
                    ended = {"outcome": "done"}
                finally:
                    for pilot in run.pm.pilots:
                        if pilot.state not in PILOT_FINAL:
                            run.pm.cancel(pilot)
                    run.region.terminate_all()
                    if tracer.enabled:
                        root.set(**_root_attrs(run, tracer), **ended)
            return _result(run)
