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
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

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
from repro.parallel.costmodel import CostModel
from repro.parallel.executor import (
    DelayedWorkload,
    ProcessExecutor,
    SerialExecutor,
    WorkloadExecutor,
    make_executor,
)
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.manager import PilotManager, UnitFailureError, UnitManager
from repro.pilot.pilot import Pilot
from repro.pilot.scheduler import MemoryAwareScheduler, SchedulingError
from repro.pilot.states import UnitState
from repro.seq.datasets import Dataset, DatasetSpec
from repro.seq.readstore import ReadStore

if TYPE_CHECKING:
    from repro.cloud.spot import SpotPreemptor
    from repro.core.checkpoint import CheckpointStore
    from repro.pilot.elastic import ElasticPool

submit_spectra_build = None  # pipebench patch point; ROADMAP 1(a) removes it

#: The stages a run reports — one :class:`StageReport`, ``stage`` span and
#: checkpoint marker each — in run order: data staging, then Fig. 1's
#: four.  ``FaultPlan.abort_after_stage`` accepts exactly these.
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
    #: Workload-execution backend for the assembly fan-out: "serial",
    #: "thread", "process", or a WorkloadExecutor instance.  The single-
    #: unit stages (pre/post-processing, quantification) always run
    #: serially: their workloads are closures over pipeline state.
    executor: str | WorkloadExecutor = "serial"
    executor_workers: int | None = None
    #: Directory of the durable checkpoint store (None = no
    #: checkpointing).  A rerun pointed at the same directory with the
    #: same dataset and config replays completed units bit-identically
    #: — same contigs, usage and virtual TTCs (see repro.core.checkpoint).
    checkpoint_dir: str | None = None
    #: Restart budget for the assembly fan-out units; >0 lets the
    #: restart machinery survive transient (preemption) failures.
    unit_max_restarts: int = 0

    def result_key(self) -> tuple:
        """The result-determining knobs, spelled once for both
        :meth:`fingerprint` and the checkpoint stage markers.

        Execution-mechanics knobs that cannot change results — executor
        backend and worker count, checkpoint directory, restart budget —
        are deliberately excluded.  Caching, faults and telemetry are
        not knobs at all: a cache is a process-wide scope
        (``use_assembly_cache``, ``use_kmer_table_cache``) whose hits are
        bit-identical, faults are the pipeline's :class:`FaultPlan`, and
        sampling / heartbeat cadences and alert rules are arguments of
        the :class:`~repro.obs.Tracer`.
        """
        return (
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

    def fingerprint(self) -> str:
        """Stable digest of :meth:`result_key`: runs of one dataset are
        comparable exactly when their fingerprints are equal (the run
        ledger's regression check refuses to compare otherwise)."""
        key = repr(self.result_key())
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
        if isinstance(self.executor, str):
            make_executor(self.executor)  # validate the name early
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
    #: (keys: unit_hits/unit_misses/unit_puts/stages_recorded); ``None``
    #: otherwise.  ``unit_hits > 0`` means this run resumed prior work.
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

    r_start: float = field(default_factory=time.perf_counter)
    clock: SimClock = field(default_factory=SimClock)
    stages: list[StageReport] = field(default_factory=list)
    #: The raw reads, encoded exactly once: QC is array work on this
    #: store, and its digest is the checkpoint's content address.
    raw_store: ReadStore | None = field(init=False)
    #: Unit outcomes are keyed by content (ReadStore digests and
    #: assembly params); stage markers additionally carry the config's
    #: result_key so a changed knob invalidates them.
    ckpt: CheckpointStore | None = None
    run_key: tuple | None = None

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
    executor: WorkloadExecutor = field(init=False)
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
            self.run_key = (self.raw_store.digest, *self.config.result_key())

    @property
    def spec(self) -> DatasetSpec:
        return self.dataset.spec


def _close_stage(
    run: _Run,
    name: str,
    pilot: Pilot | None,
    started_at: float,
    notes: str,
    w0: float | None = None,
) -> None:
    """The one place a stage ends, at the clock's now: append its
    :class:`StageReport` (sized as ``pilot`` was described; data staging
    runs on none); mirror it as a ``category="stage"`` span whose virtual
    interval equals the report's exactly (the report CLI cross-checks
    ``v1 - v0`` against ``StageReport.ttc``); write its checkpoint
    marker; then die here if the fault plan says so."""
    report = StageReport(
        name=name,
        pilot="-" if pilot is None else pilot.pilot_id,
        started_at=started_at,
        finished_at=run.clock.now,
        n_nodes=0 if pilot is None else pilot.description.n_nodes,
        instance_type="-" if pilot is None else pilot.description.instance_type,
        notes=notes,
        real_seconds=0.0 if w0 is None else time.perf_counter() - w0,
    )
    run.stages.append(report)
    tracer = get_tracer()
    if tracer.enabled:
        r1 = time.perf_counter()
        tracer.add_span(
            f"stage:{name}",
            v_start=report.started_at,
            v_end=report.finished_at,
            category="stage",
            process=None if pilot is None else report.pilot,
            r_start=r1 - report.real_seconds,
            r_end=r1,
            stage=name,
            pilot=report.pilot,
            n_nodes=report.n_nodes,
            instance_type=report.instance_type,
            notes=notes,
        )
    if run.ckpt is not None:
        run.ckpt.put_stage(
            (run.run_key, name),
            {"name": name, "ttc": report.ttc, "notes": notes},
        )
    if run.faults.abort_after_stage == name:
        raise PipelineKilled(
            f"simulated kill after stage {name!r} "
            f"(checkpoints: {run.config.checkpoint_dir})"
        )


def _unit_manager(run: _Run, pilot: Pilot, **fanout) -> UnitManager:
    """A unit manager over ``pilot`` alone; ``fanout`` is what only the
    assembly stage sets (its executor backend and elastic pool)."""
    um = UnitManager(
        run.events,
        scheduler=MemoryAwareScheduler(),
        cost_model=run.cost_model,
        checkpoint=run.ckpt,
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
    checkpoint_key,
    undersized: bool = False,
    **io_bytes: int,
):
    """Run ``compute()`` as the one unit of ``stage`` on ``um``'s pilot
    (its result carries its own ``usage``) and close the stage with
    ``notes(result)``; returns the result.  The workload runs serially:
    it is a closure over the run.  Its content address
    ``checkpoint_key()`` is only taken when checkpointing.

    ``undersized`` marks the stage whose pilot a static workflow may have
    sized too small for its input (P_A): its failures name the instance
    type and say so, scheduling errors included.
    """
    (pilot,) = um.pilots

    def work():
        result = compute()
        return result, result.usage

    t0 = run.clock.now
    w0 = time.perf_counter()
    desc = UnitDescription(
        name=name,
        work=work,
        cores=8,
        memory_bytes=memory_bytes,
        scale=run.dataset.read_scale,
        stage=stage,
        checkpoint_key=None if run.ckpt is None else checkpoint_key(),
        **io_bytes,
    )
    (unit,) = um.submit_units([desc])
    failed, hint = f"{stage} failed", ""
    if undersized:
        failed += f" on {pilot.description.instance_type}"
        hint = " (a dynamic workflow would have chosen a larger instance)"
    try:
        um.run([unit])
    except UnitFailureError as exc:
        detail = exc if undersized else unit.error
        raise PipelineError(f"{failed}: {detail}{hint}") from exc
    except SchedulingError as exc:
        if not undersized:
            raise
        raise PipelineError(f"{failed}: {exc}{hint}") from exc
    if unit.state is not UnitState.DONE:
        raise PipelineError(f"{failed}: {unit.error}{hint}")
    _close_stage(run, stage, pilot, t0, notes(unit.result), w0)
    return unit.result


# -- the stages ---------------------------------------------------------------
# Each takes the run context, reads what earlier stages filled in and fills
# in its own products; the five named in STAGE_NAMES end in _close_stage.


def _stage_in(run: _Run) -> None:
    """Stage 0: the FASTQ goes up over the WAN."""
    spec = run.spec
    t0 = run.clock.now
    run.transfers.upload(spec.fastq_bytes, dst="head")
    _close_stage(
        run, "stage-in", None, t0, f"{spec.fastq_bytes / 1024**3:.1f} GB over WAN"
    )


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
        checkpoint_key=lambda: (
            "stage:preprocess", run.raw_store.digest, config.preprocess_params
        ),
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
    """Which jobs compute, which k they read, and the backend they run
    on.  Fills ``computing``, ``spectra`` (the table cache's hits so
    far), ``missing_ks``, ``fanout`` and ``executor``.

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
    cache_hits = [asm_cache is not None and j.key in asm_cache for j in jobs]
    unsatisfied = [
        j
        for j, hit in zip(jobs, cache_hits)
        if not (hit or (ckpt is not None and ckpt.has_unit(j.key)))
    ]
    run.computing = frozenset(j.key for j in unsatisfied)
    needed_ks = sorted({j.spectrum_k for j in unsatisfied})
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
            ks=sorted({j.spectrum_k for j in jobs}),
            jobs=len(jobs),
            jobs_satisfied=len(jobs) - len(unsatisfied),
            reason="spectra cached" if needed_ks else "jobs satisfied",
        )
    # The assembly fan-out is where task-level parallelism lives:
    # its workloads are picklable AssemblyWorkload callables, so
    # any executor backend can spread them over the host's cores.
    # A pool is for jobs that compute: when the assembly cache
    # holds every job the fan-out is one lookup per job, run
    # inline — no fork, no segment, nothing pickled, and the hits
    # are counted in the process that reads the counters.  (A
    # hit evicted since the probe is computed inline too.)  Only
    # a backend the pipeline would have made itself is replaced:
    # a caller's executor instance sees every dispatch.
    # Checkpoint replays keep the configured backend: their
    # dispatch path is trace-transparent (see ReplayWorkload).
    if jobs and all(cache_hits) and isinstance(config.executor, str):
        run.executor = SerialExecutor()
    else:
        run.executor = make_executor(config.executor, config.executor_workers)
    if isinstance(config.executor, str):
        # The pipeline owns backends it created.
        run.fanout.callback(run.executor.shutdown)


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
    """Pilot P_B on ``plan.n_nodes``, with the fault plan's preemptor and
    S3's elastic pool.  Fills ``pb`` and ``umb``."""
    config, faults, region, events = run.config, run.faults, run.region, run.events
    n_nodes = run.plan.n_nodes
    pb = run.pb = run.pm.submit(PilotDescription("P_B", run.itype, n_nodes=n_nodes))
    if config.scheme.reuses_vms:
        if run.shared_cluster.n_nodes < n_nodes:
            run.shared_cluster.grow(region, n_nodes - run.shared_cluster.n_nodes)
        run.pm.launch_on(pb, run.shared_cluster)
    else:
        run.pm.finish(run.pa)  # S1: P_A's VM dies once its data is handed over
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

    run.umb = _unit_manager(run, pb, executor=run.executor, elastic=elastic)
    if isinstance(config.executor, str):
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
    if isinstance(run.executor, ProcessExecutor):
        # Move every spectrum into shared memory BEFORE the
        # pool's first fan-out submit: the pool forks at that
        # submit, so its workers find the live segments in the
        # inherited attach registry and map nothing.  (A caller's
        # executor reused across runs may already have its pool up;
        # its workers then attach by name,
        # sharedarrays._attach_untracked, and the process-wide
        # resource tracker stays balanced.)
        for sp in run.spectra:
            sp.share()


def _assembly_stage(run: _Run) -> None:
    """The multi-k multi-assembler fan-out on P_B.  Fills
    ``fanout_keys`` and ``assemblies``; closes ``fanout``."""
    config, faults, plan = run.config, run.faults, run.plan
    with run.fanout:
        t0 = run.clock.now
        w0 = time.perf_counter()  # the stage's host time includes graph derivation
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
    failed = [u for u in units if u.state is not UnitState.DONE]
    if failed:
        raise PipelineError(
            f"assembly jobs failed: "
            f"{[(u.description.name, u.error) for u in failed]}"
        )
    # The merge output is a pure function of the fan-out results, so
    # its content address is the ordered tuple of their keys.
    run.fanout_keys = tuple(d.checkpoint_key for d in descs)
    run.assemblies = multikmer.collect_assembly_results(units)
    notes = (
        f"{plan.n_jobs} jobs "
        f"({'+'.join(config.assemblers)}, k={list(plan.kmer_list)})"
    )
    _close_stage(run, "transcript-assembly", run.pb, t0, notes, w0)


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
        checkpoint_key=lambda: ("stage:merge", run.fanout_keys),
    )


def _quantification_stage(run: _Run) -> None:
    """The read-to-transcript join, still on P_C.  Fills
    ``quantification``."""
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
        checkpoint_key=lambda: ("stage:quantify", store.digest, run.fanout_keys),
    )


def _teardown_stage(run: _Run) -> None:
    """Finish P_C, release the fleet, stamp the ``pipeline`` root span."""
    config, plan, prediction = run.config, run.plan, run.prediction
    run.pm.finish(run.pc)
    run.region.terminate_all()
    tracer = get_tracer()
    if tracer.enabled:
        alert_attrs = tracer.alert_summary()
        tracer.add_span(
            "pipeline",
            v_start=0.0,
            v_end=run.clock.now,
            category="pipeline",
            r_start=run.r_start,
            r_end=time.perf_counter(),
            dataset=run.spec.name,
            assemblers="+".join(config.assemblers),
            scheme=config.scheme.value,
            workflow=config.workflow.value,
            total_cost_usd=run.region.total_cost,
            config_fingerprint=config.fingerprint(),
            store_digest=run.store.digest,
            kmer_list=list(plan.kmer_list),
            n_nodes=plan.n_nodes,
            instance_type=plan.instance_type,
            planner_ttc_s=prediction.ttc_s,
            planner_cost_usd=prediction.cost_usd,
            planner_stages=prediction.as_dict()["stages"],
            **alert_attrs,
        )


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
    _teardown_stage,
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
                "stages_recorded": ckpt.stage_count(),
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

    def run_many(
        self, datasets: list[Dataset], config: PipelineConfig | None = None
    ) -> list[PipelineResult]:
        """Run several datasets back-to-back on one executor backend;
        every result is bit-identical to a separate :meth:`run` call."""
        config = config or PipelineConfig()
        executor = make_executor(config.executor, config.executor_workers)
        # A run only closes backends it constructed itself (string
        # specs), so the pool survives across runs.
        shared = replace(config, executor=executor)
        try:
            return [self.run(dataset, shared) for dataset in datasets]
        finally:
            if isinstance(config.executor, str):
                executor.shutdown()

    def _run(self, dataset: Dataset, config: PipelineConfig | None) -> PipelineResult:
        """Walk :data:`_STAGES` over a fresh run context, under the
        ambient tracer's alert engine (when it has rules)."""
        config = config or PipelineConfig()
        with get_tracer().alerting() as alerts, ExitStack() as cleanup:
            self.last_alerts = alerts
            run = _Run(dataset, config, self.faults, self.cost_model, cleanup)
            for stage in _STAGES:
                stage(run)
            return _result(run)
