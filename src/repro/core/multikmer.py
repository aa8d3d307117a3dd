"""Multi-k, multi-assembler assembly fan-out.

Builds one compute unit per (assembler, k) pair — the paper's sample run
submits "the total 6 jobs, corresponding to two k-mer assemblies for each
assembler" to SGE — and provides the workload closures that run the real
assemblers on the pre-processed reads.

The fan-out follows an encode-once, count-once discipline: the reads are
encoded one time into a shared :class:`~repro.seq.readstore.ReadStore`,
their k-mers counted one time per k into a shared
:class:`~repro.assembly.sweep.KmerSpectrum`, and every workload carries
only cheap references to both — O(1) to pickle under the process backend
(shared-memory handles), zero per-unit copying.  A content-addressed
:class:`~repro.core.assembly_cache.AssemblyCache` keyed by the store
digest short-circuits byte-identical re-runs (VM reuse, restarts,
repeated sweeps) with bit-identical results and virtual TTCs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.assembly.base import AssemblyParams
from repro.assembly.contigs import AssemblyResult
from repro.assembly.registry import get_assembler
from repro.assembly.sweep import KmerSpectrum
from repro.assembly.trinity import TRINITY_K
from repro.cloud.instances import get_instance_type
from repro.core.assembly_cache import get_assembly_cache
from repro.core.scaling import paper_usage_from_scales
from repro.core.memory import task_memory_bytes
from repro.core.planner import AssemblyPlan
from repro.obs import get_tracer
from repro.pilot.description import UnitDescription
from repro.seq.datasets import DatasetSpec
from repro.seq.readstore import ReadStore

#: Assemblers taking an ``n_ranks`` argument (distributed implementations).
DISTRIBUTED_ASSEMBLERS = frozenset({"ray", "abyss", "contrail"})


def spectrum_k(assembler: str, k: int) -> int:
    """The k whose spectrum serves ``assembler`` at sweep value ``k``
    (trinity always counts 25-mers)."""
    return TRINITY_K if assembler == "trinity" else int(k)


def content_key(
    store: ReadStore, assembler: str, params: AssemblyParams, n_ranks: int
) -> tuple:
    """Content address of one assembly job: the reads, the assembler,
    its parameters and the rank count determine the result.  The one
    place the tuple is built — it is the assembly-cache key, the unit's
    checkpoint key and what the pipeline's demand probe asks about."""
    return (store.digest, assembler, params, n_ranks)


@dataclass(frozen=True)
class AssemblyWorkload:
    """One real assembly as a picklable workload callable.

    A module-level dataclass (rather than a nested closure) so the
    process-pool executor backend can ship it to a worker and pickle the
    ``(AssemblyResult, ResourceUsage)`` outcome back.  When the scale
    ratios are set, the measured usage is extrapolated to paper scale
    with the per-phase factors of :mod:`repro.core.scaling` (the unit is
    then submitted with ``scale=1``).

    ``store`` is the encode-once read set: the workload pickles to a
    constant-size shared-memory handle regardless of read count, and
    consults the active content-addressed assembly cache (if any) before
    running.

    ``spectrum`` is the count-once k-mer content of ``store`` at the
    job's k (:func:`spectrum_k`), O(1) to pickle like the store.  One
    fallback rule, applied by the assembler through
    :func:`~repro.assembly.sweep.resolve_spectrum`: a workload reads the
    spectrum it was handed and looks nowhere else; without a live
    matching one — none handed (the pipeline hands one only to jobs it
    expects to compute, see ``RnnotatorPipeline``'s demand rule), or its
    segment already closed — the job builds that one spectrum itself,
    locally, and runs the same engine on it.  A spectrum never changes
    results, so it is not part of the content key.
    """

    assembler_name: str
    params: AssemblyParams
    n_ranks: int
    store: ReadStore
    read_scale: float | None = None
    graph_scale: float | None = None
    spectrum: KmerSpectrum | None = None

    def cache_key(self) -> tuple:
        """Content address of this workload."""
        return content_key(
            self.store, self.assembler_name, self.params, self.n_ranks
        )

    def _assemble(self) -> AssemblyResult:
        kwargs = (
            {"n_ranks": self.n_ranks}
            if self.assembler_name in DISTRIBUTED_ASSEMBLERS
            else {}
        )
        return get_assembler(self.assembler_name).assemble(
            self.store, self.params, spectrum=self.spectrum, **kwargs
        )

    def record_result(self, result: AssemblyResult) -> None:
        """Insert a collected *raw* result into the active cache.

        Called by :func:`collect_assembly_results` on the parent side so
        results computed in pool workers (whose in-worker cache inserts
        never cross the process boundary) become hits for later sweeps.
        """
        cache = get_assembly_cache()
        if cache is not None:
            inserted = cache.put(self.cache_key(), result)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.count("assembly_cache.put")
                tracer.event(
                    "assembly_cache.put",
                    category="cache",
                    assembler=self.assembler_name,
                    k=self.params.k,
                    n_ranks=self.n_ranks,
                    outcome="inserted" if inserted else "kept",
                )

    def __call__(self):
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "assembly_workload",
                category="workload",
                assembler=self.assembler_name,
                k=self.params.k,
            ):
                return self._execute(tracer)
        return self._execute(tracer)

    def _execute(self, tracer):
        key = self.cache_key()
        cache = get_assembly_cache()
        result = cache.get(key) if cache is not None else None
        if cache is not None and tracer.enabled:
            outcome = "hit" if result is not None else "miss"
            tracer.count(f"assembly_cache.{outcome}")
            tracer.event(
                "assembly_cache.lookup",
                category="cache",
                assembler=self.assembler_name,
                k=self.params.k,
                n_ranks=self.n_ranks,
                outcome=outcome,
            )
        if result is None:
            result = self._assemble()
            if cache is not None:
                cache.put(key, result)
        usage = result.usage
        if self.read_scale is not None and self.graph_scale is not None:
            usage = paper_usage_from_scales(
                usage, self.read_scale, self.graph_scale
            )
        return result, usage


def make_assembly_workload(
    assembler_name: str,
    store: ReadStore,
    params: AssemblyParams,
    n_ranks: int,
    dataset=None,
    spectrum: KmerSpectrum | None = None,
) -> AssemblyWorkload:
    """Workload executing one real assembly; returns (result, usage).

    When ``dataset`` is given, only its two extrapolation ratios are
    captured — the workload stays cheap to pickle.  ``spectrum`` is the
    job's counted :class:`~repro.assembly.sweep.KmerSpectrum`, if the
    caller has one (see :class:`AssemblyWorkload`)."""
    return AssemblyWorkload(
        assembler_name=assembler_name,
        params=params,
        n_ranks=n_ranks,
        store=store,
        read_scale=None if dataset is None else dataset.read_scale,
        graph_scale=None if dataset is None else dataset.scale,
        spectrum=spectrum,
    )


@dataclass(frozen=True)
class AssemblyJob:
    """One planned (assembler, k) job with its parameters and content
    key — everything known about a job before any spectrum exists."""

    assembler: str
    k: int
    nodes: int
    cores: int
    params: AssemblyParams
    key: tuple

    @property
    def spectrum_k(self) -> int:
        return spectrum_k(self.assembler, self.k)


def planned_jobs(
    plan: AssemblyPlan,
    store: ReadStore,
    min_count: int = 2,
    min_contig_length: int = 100,
) -> list[AssemblyJob]:
    """The plan's jobs in submission order, each with its content key."""
    vcpus = get_instance_type(plan.instance_type).vcpus
    jobs = []
    for assembler, k, nodes in plan.jobs():
        params = AssemblyParams(
            k=k,
            min_count=min_count,
            min_contig_length=max(min_contig_length, k),
        )
        cores = nodes * vcpus
        jobs.append(
            AssemblyJob(
                assembler=assembler,
                k=k,
                nodes=nodes,
                cores=cores,
                params=params,
                key=content_key(store, assembler, params, cores),
            )
        )
    return jobs


def assembly_unit_descriptions(
    plan: AssemblyPlan,
    spec: DatasetSpec,
    store: ReadStore,
    dataset,
    min_count: int = 2,
    min_contig_length: int = 100,
    input_bytes: int | None = None,
    max_restarts: int = 0,
    spectra: tuple[KmerSpectrum, ...] = (),
) -> list[UnitDescription]:
    """One UnitDescription per (assembler, k) job in the plan.

    ``dataset`` provides the paper-scale extrapolation factors; workloads
    hand back already-extrapolated usage, so units carry ``scale=1``.
    Every unit's workload shares the one :class:`ReadStore`.  ``spectra``
    (see :func:`~repro.assembly.sweep.build_spectra`) are the k-mers of
    that store counted once per k: each unit's workload receives only
    the spectrum at its job's k, so spectra for other k values are never
    pickled to that unit's worker; a job whose k is not among them
    builds its own (see :class:`AssemblyWorkload`).

    Every unit carries a ``checkpoint_key`` — the job's
    :func:`content_key`, the same address the assembly cache uses — so
    runs with a durable checkpoint store resume the fan-out
    bit-identically.  ``max_restarts`` lets callers survive transient
    failures (spot preemption) by retrying.
    """
    by_k = {sp.k: sp for sp in spectra}
    if input_bytes is None:
        input_bytes = spec.preprocessed_bytes
    descs = []
    for job in planned_jobs(plan, store, min_count, min_contig_length):
        descs.append(
            UnitDescription(
                name=f"{job.assembler}_k{job.k}",
                work=make_assembly_workload(
                    job.assembler,
                    store,
                    job.params,
                    job.cores,
                    dataset=dataset,
                    spectrum=by_k.get(job.spectrum_k),
                ),
                cores=job.cores,
                memory_bytes=task_memory_bytes(spec, "assembly", n_nodes=1),
                scale=1.0,
                stage="transcript-assembly",
                input_bytes=input_bytes,
                max_restarts=max_restarts,
                checkpoint_key=job.key,
                tags={
                    "assembler": job.assembler,
                    "k": job.k,
                    "nodes": job.nodes,
                },
            )
        )
    return descs


def collect_assembly_results(units) -> dict[tuple[str, int], AssemblyResult]:
    """Map finished assembly units back to (assembler, k) keys.

    Also records each collected raw result into the assembly cache (see
    :meth:`AssemblyWorkload.record_result`) so results computed inside
    pool workers are available as parent-side hits for later sweeps.

    Raises :class:`ValueError` when two finished units map to the same
    ``(assembler, k)`` key — a silent overwrite here would drop one
    unit's contigs and usage from the merge without any signal.
    """
    out: dict[tuple[str, int], AssemblyResult] = {}
    for u in units:
        if u.result is not None:
            work = u.description.work
            if isinstance(work, AssemblyWorkload):
                work.record_result(u.result)
            key = (u.description.tags["assembler"], u.description.tags["k"])
            if key in out:
                raise ValueError(
                    f"duplicate assembly result for {key!r}: unit "
                    f"{u.description.name!r} collides with an earlier unit"
                )
            out[key] = u.result
    return out
