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
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

from repro.assembly.contigs import AssemblyResult, Contig
from repro.assembly.sweep import (
    KmerSpectrum,
    build_spectra,
    get_kmer_table_cache,
    submit_spectra_build,
)
from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.cluster import Cluster, build_cluster
from repro.cloud.ec2 import EC2Region
from repro.cloud.instances import cheapest_with_memory, get_instance_type
from repro.cloud.spot import SpotPreemptor
from repro.cloud.storage import TransferModel
from repro.core import multikmer
from repro.core.assembly_cache import get_assembly_cache
from repro.core.checkpoint import CheckpointStore
from repro.core.memory import task_memory_bytes
from repro.core.planner import (
    AssemblyPlan,
    plan_assembly,
    predict_run,
    predict_spectrum_build,
    select_kmer_list,
)
from repro.core.preprocess import PreprocessParams, PreprocessResult, preprocess
from repro.core.merge import MergeResult, merge_contigs
from repro.core.quantify import QuantificationResult, quantify
from repro.core.schemes import MatchingScheme
from repro.core.workflow import StageReport, WorkflowPattern
from repro.obs import Tracer, get_tracer, use_tracer
from repro.obs.alerts import AlertEngine, parse_rule
from repro.parallel.costmodel import CostModel
from repro.parallel.executor import (
    DelayedWorkload,
    ProcessExecutor,
    SerialExecutor,
    WorkloadExecutor,
    make_executor,
)
from repro.pilot.db import StateStore
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.elastic import ElasticPool
from repro.pilot.manager import PilotManager, UnitFailureError, UnitManager
from repro.pilot.scheduler import MemoryAwareScheduler, SchedulingError
from repro.pilot.states import UnitState
from repro.seq.datasets import Dataset
from repro.seq.readstore import ReadStore


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
    #: None (the default): the spectra are counted in the parent by
    #: repro.assembly.sweep.build_spectra, on every backend.  An integer
    #: opts a pool backend into the sharded build of that many shards
    #: (repro.assembly.sweep.submit_spectra_build), which is
    #: bit-identical for any shard count and has lost to the parent
    #: build on every measured input (DESIGN §11).
    spectrum_shards: int | None = None
    #: Radix-bucket count of the sharded build's merge (power of two).
    spectrum_buckets: int = 16
    #: Seconds between RSS/CPU samples taken *inside* fan-out workloads
    #: running on a pool backend (shipped back in the worker trace and
    #: exported as Perfetto counter tracks).  0 keeps only the
    #: span-endpoint snapshots; ignored when tracing is off.
    resource_cadence: float = 0.0
    #: Directory of the durable checkpoint store (None = no
    #: checkpointing).  A rerun pointed at the same directory with the
    #: same dataset and config replays completed units bit-identically
    #: — same contigs, usage and virtual TTCs (see repro.core.checkpoint).
    checkpoint_dir: str | None = None
    #: Restart budget for the assembly fan-out units; >0 lets the
    #: restart machinery survive transient (preemption) failures.
    unit_max_restarts: int = 0
    #: Declarative SLO/alert rules (see :mod:`repro.obs.alerts`): compact
    #: specs (``"heartbeat_timeout:30:critical"``) or
    #: :class:`~repro.obs.alerts.AlertRule` instances.  Non-empty with
    #: tracing on, an :class:`~repro.obs.alerts.AlertEngine` rides the
    #: run as a live sink; firings become ``alert`` events in the trace
    #: and a summary on the pipeline span.  () = no engine.
    alert_rules: tuple = ()
    #: Real seconds between per-unit ``unit.heartbeat`` events while
    #: workloads are in flight (0 = off).  Purely real-clock telemetry:
    #: results and virtual TTCs are bit-identical either way.
    heartbeat_cadence: float = 0.0

    def result_key(self) -> tuple:
        """The result-determining knobs, spelled once for both
        :meth:`fingerprint` and the checkpoint stage markers.

        Execution-mechanics knobs that cannot change results — executor
        backend, spectrum sharding, checkpoint directory, restart budget,
        telemetry — are deliberately excluded.  Caching and faults are
        not knobs at all: a cache is a process-wide scope
        (``use_assembly_cache``, ``use_kmer_table_cache``) whose hits are
        bit-identical, and faults are the pipeline's :class:`FaultPlan`.
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
        if not self.assemblers:
            raise ValueError("need at least one assembler")
        if self.workflow is WorkflowPattern.CONVENTIONAL and (
            not self.scheme.reuses_vms
        ):
            raise ValueError(
                "the conventional pattern implies VM reuse (S2/S3)"
            )
        if isinstance(self.executor, str):
            make_executor(self.executor)  # validate the name early
        if self.unit_max_restarts < 0:
            raise ValueError("unit_max_restarts must be >= 0")
        if self.spectrum_shards is not None and self.spectrum_shards < 1:
            raise ValueError("spectrum_shards must be None or >= 1")
        if self.spectrum_buckets < 1 or (
            self.spectrum_buckets & (self.spectrum_buckets - 1)
        ):
            raise ValueError(
                f"spectrum_buckets must be a power of two, "
                f"got {self.spectrum_buckets}"
            )
        if self.heartbeat_cadence < 0:
            raise ValueError("heartbeat_cadence must be >= 0")
        for rule in self.alert_rules:
            parse_rule(rule)  # validate specs early


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


def _trace_stage(report: StageReport) -> None:
    """Mirror a finished :class:`StageReport` as a ``category="stage"``
    span whose virtual interval equals the report's exactly (the report
    CLI cross-checks ``v1 - v0`` against ``StageReport.ttc``)."""
    tracer = get_tracer()
    if not tracer.enabled:
        return
    r1 = time.perf_counter()
    tracer.add_span(
        f"stage:{report.name}",
        v_start=report.started_at,
        v_end=report.finished_at,
        category="stage",
        process=report.pilot if report.pilot != "-" else None,
        r_start=r1 - report.real_seconds,
        r_end=r1,
        stage=report.name,
        pilot=report.pilot,
        n_nodes=report.n_nodes,
        instance_type=report.instance_type,
        notes=report.notes,
    )


class RnnotatorPipeline:
    """Driver for the full pipeline on a fresh simulated region.

    Passing a :class:`~repro.obs.Tracer` installs it process-wide for the
    duration of :meth:`run` (via :func:`~repro.obs.use_tracer`) and binds
    it to the run's virtual clock, so every instrumented layer underneath
    — event queue, pilots, scheduler, EC2, SGE, assembler phases —
    records into it.
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
        #: Alerts fired by the most recent run's engine (empty without
        #: ``alert_rules``); the smoke CLI reads this for its assertions.
        self.last_alerts: list = []
        self._alert_engine: AlertEngine | None = None

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
        # _run only closes backends it constructed itself (string
        # specs), so the pool survives across runs.
        shared = replace(config, executor=executor)
        try:
            return [self.run(dataset, shared) for dataset in datasets]
        finally:
            if isinstance(config.executor, str):
                executor.shutdown()

    def _run(self, dataset: Dataset, config: PipelineConfig | None) -> PipelineResult:
        """Attach the alert engine (when configured) around the real run
        body, detaching it whatever happens — run_many reuses one tracer
        across runs and must not accumulate stale sinks."""
        config = config or PipelineConfig()
        tracer = get_tracer()
        engine: AlertEngine | None = None
        if tracer.enabled and config.alert_rules:
            engine = AlertEngine(config.alert_rules, tracer=tracer)
            tracer.add_sink(engine)
        self._alert_engine = engine
        try:
            # Owns the ReadStore: quantification reads it last, so it
            # outlives the assembly stage, and however the run ends its
            # shared segment is unlinked here.
            with ExitStack() as cleanup:
                return self._run_inner(dataset, config, cleanup)
        finally:
            self._alert_engine = None
            if engine is not None:
                engine.finalize()
                tracer.remove_sink(engine)
                self.last_alerts = list(engine.alerts)

    def _run_inner(
        self, dataset: Dataset, config: PipelineConfig, cleanup: ExitStack
    ) -> PipelineResult:
        spec = dataset.spec
        faults = self.faults

        r_run0 = time.perf_counter()
        clock = SimClock()
        get_tracer().bind_clock(clock)
        events = EventQueue(clock)
        region = EC2Region(clock)
        db = StateStore(clock)
        transfers = TransferModel(clock)
        pm = PilotManager(region, events, db)
        stages: list[StageReport] = []

        # Encode the raw reads exactly once: QC is array work on this
        # store, and its digest is the checkpoint's content address.
        raw_store = ReadStore.from_reads(dataset.run.all_reads())

        # ---- durable checkpointing ----------------------------------------
        # Unit outcomes are keyed by content (ReadStore digests and
        # assembly params); stage markers additionally carry the config's
        # result_key so a changed knob invalidates them.
        ckpt: CheckpointStore | None = None
        run_key = None
        if config.checkpoint_dir is not None:
            ckpt = CheckpointStore(config.checkpoint_dir)
            raw_digest = raw_store.digest
            run_key = (raw_digest, *config.result_key())

        def checkpoint_stage(report: StageReport) -> None:
            if ckpt is not None:
                ckpt.put_stage(
                    (run_key, report.name),
                    {"name": report.name, "ttc": report.ttc,
                     "notes": report.notes},
                )

        def maybe_abort(stage_name: str) -> None:
            if faults.abort_after_stage == stage_name:
                raise PipelineKilled(
                    f"simulated kill after stage {stage_name!r} "
                    f"(checkpoints: {config.checkpoint_dir})"
                )

        # ---- choose the P_A instance type ---------------------------------
        pre_mem = task_memory_bytes(spec, "preprocess")
        if config.instance_type is not None:
            pa_itype = config.instance_type
        elif config.workflow.decides_at_runtime:
            pa_itype = cheapest_with_memory(pre_mem, min_vcpus=8).name
        else:
            pa_itype = "c3.2xlarge"  # the static default of the paper

        # ---- stage 0: stage data in --------------------------------------
        t0 = clock.now
        transfers.upload(spec.fastq_bytes, dst="head")
        stages.append(
            StageReport(
                name="stage-in",
                pilot="-",
                started_at=t0,
                finished_at=clock.now,
                n_nodes=0,
                instance_type="-",
                notes=f"{spec.fastq_bytes / 1024**3:.1f} GB over WAN",
            )
        )
        _trace_stage(stages[-1])
        checkpoint_stage(stages[-1])
        maybe_abort("stage-in")

        # ---- pilot P_A: pre-processing ------------------------------------
        shared_cluster: Cluster | None = None
        pa = pm.submit(PilotDescription("P_A", pa_itype, n_nodes=1))
        if config.scheme.reuses_vms:
            shared_cluster = build_cluster(
                region, events, pa_itype, 1, name="shared"
            )
            pm.launch_on(pa, shared_cluster)
        else:
            pm.launch(pa)

        um = UnitManager(
            db,
            events,
            scheduler=MemoryAwareScheduler(),
            cost_model=self.cost_model,
            checkpoint=ckpt,
            heartbeat_cadence=config.heartbeat_cadence,
        )
        um.add_pilot(pa)

        def pre_work():
            result = preprocess(raw_store, config.preprocess_params)
            return result, result.usage

        t0 = clock.now
        w0 = time.perf_counter()
        (pre_unit,) = um.submit_units(
            [
                UnitDescription(
                    name="preprocess",
                    work=pre_work,
                    cores=8,
                    memory_bytes=pre_mem,
                    scale=dataset.read_scale,
                    stage="pre-processing",
                    input_bytes=spec.fastq_bytes,
                    output_bytes=spec.preprocessed_bytes,
                    checkpoint_key=None
                    if ckpt is None
                    else (
                        "stage:preprocess",
                        raw_digest,
                        config.preprocess_params,
                    ),
                )
            ]
        )
        try:
            um.run([pre_unit])
        except (SchedulingError, UnitFailureError) as exc:
            raise PipelineError(
                f"pre-processing failed on {pa_itype}: {exc} "
                "(a dynamic workflow would have chosen a larger instance)"
            ) from exc
        if pre_unit.state is not UnitState.DONE:
            raise PipelineError(
                f"pre-processing failed on {pa_itype}: {pre_unit.error} "
                "(a dynamic workflow would have chosen a larger instance)"
            )
        pre: PreprocessResult = pre_unit.result
        raw_store = None  # QC returned: the raw arrays can go
        stages.append(
            StageReport(
                name="pre-processing",
                pilot=pa.pilot_id,
                started_at=t0,
                finished_at=clock.now,
                n_nodes=1,
                instance_type=pa_itype,
                notes=f"{pre.output_reads}/{pre.input_reads} reads kept",
                real_seconds=time.perf_counter() - w0,
            )
        )
        _trace_stage(stages[-1])
        checkpoint_stage(stages[-1])
        maybe_abort("pre-processing")

        # ---- plan the assembly stage (the dynamic decision) ---------------
        kmer_list = config.kmer_list or select_kmer_list(pre.modal_read_length)

        # Every fan-out unit shares the filtered store QC returned (under
        # the process backend it attaches to its shared-memory segment),
        # and quantification joins against the same arrays.  The run holds
        # an alias: what it shares and unlinks is its own, and the
        # result's store stays process memory.
        store = pre.store.alias()
        cleanup.callback(store.close)  # unlinks the segment iff one was created
        store_digest = store.digest
        spectra: tuple[KmerSpectrum, ...] = ()
        assembly_executor: WorkloadExecutor | None = None
        umb: UnitManager | None = None
        try:
            pb_itype = pa_itype if config.scheme.reuses_vms else (
                config.instance_type or pa_itype
            )
            plan = plan_assembly(
                spec,
                kmer_list,
                config.assemblers,
                pb_itype,
                mpi_nodes_per_job=config.mpi_nodes_per_job,
                contrail_nodes_per_job=config.contrail_nodes_per_job,
                max_nodes=config.max_nodes,
            )

            # ---- spectrum stage: demand, then supply ----------------------
            # K-mers are counted only for jobs that will read them.  A
            # job is *satisfied* when its content key is already in the
            # assembly cache or the checkpoint store: it will be served
            # from there and never opens a spectrum.  Only the k of
            # unsatisfied jobs is needed; a needed k is looked up in the
            # table cache first, and what is still missing is counted in
            # one fused pass in the parent.  The probes are predictions,
            # not promises: a job that misses after all builds its own
            # spectrum, bit-identically.
            jobs = multikmer.planned_jobs(
                plan, store, config.min_count, config.min_contig_length
            )
            table_cache = get_kmer_table_cache()
            asm_cache = get_assembly_cache()
            tracer = get_tracer()
            pending_build = None
            cache_hits = [
                asm_cache is not None and j.key in asm_cache for j in jobs
            ]
            unsatisfied = [
                j
                for j, hit in zip(jobs, cache_hits)
                if not (hit or (ckpt is not None and ckpt.has_unit(j.key)))
            ]
            needed_ks = sorted({j.spectrum_k for j in unsatisfied})
            cached = (
                {k: table_cache.get(store_digest, k) for k in needed_ks}
                if table_cache is not None
                else {}
            )
            spectra = tuple(sp for sp in cached.values() if sp is not None)
            missing_ks = tuple(k for k in needed_ks if cached.get(k) is None)
            if not missing_ks and tracer.enabled:
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
                assembly_executor = SerialExecutor()
            else:
                assembly_executor = make_executor(
                    config.executor, config.executor_workers
                )
            if (
                missing_ks
                and config.spectrum_shards is not None
                and assembly_executor.supports_overlap
            ):
                # The opt-in sharded build, submitted *now*: the shard
                # workers race the pilot provisioning and cluster growth
                # below on the real clock, and the merge at collect time
                # is bit-identical to the build in the parent.
                pending_build = submit_spectra_build(
                    store,
                    missing_ks,
                    assembly_executor,
                    n_shards=config.spectrum_shards,
                    n_buckets=config.spectrum_buckets,
                )

            # Price the rest of the run up front from spec + plan alone;
            # the prediction rides on the pipeline span so trace analytics
            # (repro.obs.attribution) can gate predicted-vs-actual
            # TTC/cost.
            prediction = predict_run(
                spec,
                plan,
                pre.modal_read_length,
                reuses_vms=config.scheme.reuses_vms,
                pa_instance_type=pa_itype,
                cost_model=self.cost_model,
                wan_bandwidth=transfers.wan_bandwidth,
                lan_bandwidth=transfers.lan_bandwidth,
                provision_seconds=region.provision_seconds,
            )
            if tracer.enabled:
                # Stream the prediction *now*, not only on the pipeline
                # span at teardown: budget burn-rate rules and the live
                # monitor's ETA need planned cost/TTC while the meter is
                # still running.
                tracer.event(
                    "planner.prediction",
                    category="planner",
                    ttc_s=prediction.ttc_s,
                    cost_usd=prediction.cost_usd,
                    assembly_jobs=plan.n_jobs,
                    n_nodes=plan.n_nodes,
                    instance_type=plan.instance_type,
                )

            # ---- pilot P_B: transcript assembly ----------------------------
            pb = pm.submit(
                PilotDescription("P_B", pb_itype, n_nodes=plan.n_nodes)
            )
            if config.scheme.reuses_vms:
                if shared_cluster.n_nodes < plan.n_nodes:
                    shared_cluster.grow(
                        region, plan.n_nodes - shared_cluster.n_nodes
                    )
                pm.launch_on(pb, shared_cluster)
            else:
                pm.finish(pa)  # S1: P_A's VM dies once its data is handed over
                pm.launch(pb)
                transfers.copy(
                    spec.preprocessed_bytes, src="P_A", dst="P_B"
                )

            # ---- failure injection + S3 elasticity for the fan-out ---------
            preemptor: SpotPreemptor | None = None
            if faults.preempt_at:
                preemptor = SpotPreemptor(
                    region,
                    events,
                    cluster=pb.cluster,
                    protect={pb.cluster.head.vm_id},
                )
                preemptor.arm_in(faults.preempt_at)
            elastic: ElasticPool | None = None
            if config.scheme.elastic:
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

            umb = UnitManager(
                db,
                events,
                scheduler=MemoryAwareScheduler(),
                cost_model=self.cost_model,
                executor=assembly_executor,
                resource_cadence=config.resource_cadence,
                checkpoint=ckpt,
                elastic=elastic,
                heartbeat_cadence=config.heartbeat_cadence,
            )
            umb.add_pilot(pb)

            if missing_ks:
                build_prediction = predict_spectrum_build(
                    spec,
                    missing_ks,
                    pre.modal_read_length,
                    n_shards=(
                        pending_build.n_shards
                        if pending_build is not None
                        else 1
                    ),
                )
                build_attrs = {
                    "planner_serial_s": build_prediction.serial_s,
                    "planner_sharded_s": build_prediction.sharded_s,
                }
                if pending_build is not None:
                    # Everything since submit — P_B provisioning, cluster
                    # growth, manager setup — ran while the shard workers
                    # extracted; collect merges their sorted runs.
                    built = pending_build.collect(span_attrs=build_attrs)
                else:
                    built = build_spectra(
                        store, missing_ks, span_attrs=build_attrs
                    )
                spectra += built
                if table_cache is not None:
                    for sp in built:
                        table_cache.put(sp)
            if isinstance(assembly_executor, ProcessExecutor):
                # Move every spectrum into shared memory BEFORE the
                # pool's first fan-out submit: the pool forks at that
                # submit, so its workers find the live segments in the
                # inherited attach registry and map nothing.  (After an
                # opt-in sharded build the pool is already up and they
                # attach by name, sharedarrays._attach_untracked; either
                # way the process-wide resource tracker stays balanced.)
                for sp in spectra:
                    sp.share()
            descs = multikmer.assembly_unit_descriptions(
                plan,
                spec,
                store,
                dataset,
                min_count=config.min_count,
                min_contig_length=config.min_contig_length,
                max_restarts=config.unit_max_restarts,
                spectra=spectra,
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
            t0 = clock.now
            w0 = time.perf_counter()
            units = umb.submit_units(descs)
            try:
                umb.run(units)
            except UnitFailureError as exc:
                raise PipelineError(
                    f"assembly jobs failed: "
                    f"{[(u.description.name, u.error) for u in exc.units]}"
                ) from exc
        finally:
            if isinstance(config.executor, str):
                # The pipeline owns backends it created; umb.close() shuts
                # the executor down, or do it directly when a failure
                # predates the unit manager.
                if umb is not None:
                    umb.close()
                elif assembly_executor is not None:
                    assembly_executor.shutdown()
            for sp in spectra:
                # Unlinks the segments this run shared; local arrays are
                # the table cache's and stay open (see repro.assembly.sweep).
                sp.close()
        failed = [u for u in units if u.state is not UnitState.DONE]
        if failed:
            raise PipelineError(
                f"assembly jobs failed: "
                f"{[(u.description.name, u.error) for u in failed]}"
            )
        assemblies = multikmer.collect_assembly_results(units)
        stages.append(
            StageReport(
                name="transcript-assembly",
                pilot=pb.pilot_id,
                started_at=t0,
                finished_at=clock.now,
                n_nodes=plan.n_nodes,
                instance_type=pb_itype,
                notes=f"{plan.n_jobs} jobs "
                f"({'+'.join(config.assemblers)}, k={list(kmer_list)})",
                real_seconds=time.perf_counter() - w0,
            )
        )
        _trace_stage(stages[-1])
        checkpoint_stage(stages[-1])
        maybe_abort("transcript-assembly")

        # ---- pilot P_C: post-processing + quantification -------------------
        pc_itype = pb_itype
        pc = pm.submit(PilotDescription("P_C", pc_itype, n_nodes=1))
        if config.scheme.reuses_vms:
            pm.finish(pb)
            if elastic is not None:
                elastic.shrink_idle()
            shared_cluster.shrink_to(region, 1)
            pm.launch_on(pc, shared_cluster)
        else:
            pm.finish(pb)
            pm.launch(pc)
            contig_bytes = int(
                sum(r.total_bp for r in assemblies.values())
                / max(dataset.read_scale, 1e-9)
            )
            transfers.copy(contig_bytes, src="P_B", dst="P_C")

        umc = UnitManager(
            db,
            events,
            scheduler=MemoryAwareScheduler(),
            cost_model=self.cost_model,
            checkpoint=ckpt,
            heartbeat_cadence=config.heartbeat_cadence,
        )
        umc.add_pilot(pc)
        # The merge output is a pure function of the fan-out results, so
        # its content address is the ordered tuple of their keys; the
        # quantification additionally depends on the pre-processed reads.
        fanout_keys = tuple(d.checkpoint_key for d in descs)
        merge_key = (
            None if ckpt is None else ("stage:merge", fanout_keys)
        )
        quant_key = (
            None
            if ckpt is None
            else ("stage:quantify", store.digest, fanout_keys)
        )

        def merge_work():
            result = merge_contigs(
                [r.contigs for r in assemblies.values()]
            )
            return result, result.usage

        t0 = clock.now
        w0 = time.perf_counter()
        (merge_unit,) = umc.submit_units(
            [
                UnitDescription(
                    name="postprocess-merge",
                    work=merge_work,
                    cores=8,
                    memory_bytes=task_memory_bytes(spec, "postprocess"),
                    scale=dataset.read_scale,
                    stage="post-processing",
                    checkpoint_key=merge_key,
                )
            ]
        )
        try:
            umc.run([merge_unit])
        except UnitFailureError as exc:
            raise PipelineError(
                f"post-processing failed: {merge_unit.error}"
            ) from exc
        if merge_unit.state is not UnitState.DONE:
            raise PipelineError(f"post-processing failed: {merge_unit.error}")
        merged: MergeResult = merge_unit.result
        stages.append(
            StageReport(
                name="post-processing",
                pilot=pc.pilot_id,
                started_at=t0,
                finished_at=clock.now,
                n_nodes=1,
                instance_type=pc_itype,
                notes=f"{merged.input_contigs} -> {merged.output_contigs} contigs",
                real_seconds=time.perf_counter() - w0,
            )
        )
        _trace_stage(stages[-1])
        checkpoint_stage(stages[-1])
        maybe_abort("post-processing")

        def quant_work():
            result = quantify(store, merged.transcripts)
            return result, result.usage

        t0 = clock.now
        w0 = time.perf_counter()
        (quant_unit,) = umc.submit_units(
            [
                UnitDescription(
                    name="quantification",
                    work=quant_work,
                    cores=8,
                    memory_bytes=task_memory_bytes(spec, "postprocess"),
                    scale=dataset.read_scale,
                    stage="quantification",
                    checkpoint_key=quant_key,
                )
            ]
        )
        try:
            umc.run([quant_unit])
        except UnitFailureError as exc:
            raise PipelineError(
                f"quantification failed: {quant_unit.error}"
            ) from exc
        if quant_unit.state is not UnitState.DONE:
            raise PipelineError(f"quantification failed: {quant_unit.error}")
        quantification: QuantificationResult = quant_unit.result
        stages.append(
            StageReport(
                name="quantification",
                pilot=pc.pilot_id,
                started_at=t0,
                finished_at=clock.now,
                n_nodes=1,
                instance_type=pc_itype,
                notes=f"{quantification.assignment_rate:.0%} reads assigned",
                real_seconds=time.perf_counter() - w0,
            )
        )
        _trace_stage(stages[-1])
        checkpoint_stage(stages[-1])
        maybe_abort("quantification")

        # ---- teardown -------------------------------------------------------
        pm.finish(pc)
        region.terminate_all()

        tracer = get_tracer()
        if tracer.enabled:
            alert_attrs = {}
            engine = self._alert_engine
            if engine is not None:
                # Rules that only resolve at teardown (cache hit-rate
                # floors, final budget check) must fire before the root
                # span stamps the summary; finalize is idempotent.
                engine.finalize()
                counts = engine.summary()
                alert_attrs = {
                    "alerts_total": sum(counts.values()),
                    "alerts_critical": counts.get("critical", 0),
                    "alerts_warning": counts.get("warning", 0),
                    "alerts_info": counts.get("info", 0),
                }
            tracer.add_span(
                "pipeline",
                v_start=0.0,
                v_end=clock.now,
                category="pipeline",
                r_start=r_run0,
                r_end=time.perf_counter(),
                dataset=spec.name,
                assemblers="+".join(config.assemblers),
                scheme=config.scheme.value,
                workflow=config.workflow.value,
                total_cost_usd=region.total_cost,
                config_fingerprint=config.fingerprint(),
                store_digest=store_digest,
                kmer_list=list(kmer_list),
                n_nodes=plan.n_nodes,
                instance_type=plan.instance_type,
                planner_ttc_s=prediction.ttc_s,
                planner_cost_usd=prediction.cost_usd,
                planner_stages=prediction.as_dict()["stages"],
                **alert_attrs,
            )

        return PipelineResult(
            config=config,
            stages=stages,
            preprocess=pre,
            kmer_list=tuple(kmer_list),
            plan=plan,
            assemblies=assemblies,
            merge=merged,
            quantification=quantification,
            total_ttc=clock.now,
            total_cost=region.total_cost,
            transfer_seconds=transfers.total_seconds,
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
