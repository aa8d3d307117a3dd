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
(shared-memory handles), zero per-unit copying.  Each unit carries its
job's :func:`content_key`, by which the pilot agent serves byte-identical
re-runs (VM reuse, restarts, repeated sweeps) from the checkpoint store
or the :class:`~repro.core.assembly_cache.AssemblyCache` with
bit-identical results and virtual TTCs; a workload only computes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.assembly.base import AssemblyParams
from repro.assembly.contigs import AssemblyResult
from repro.assembly.registry import get_assembler
from repro.assembly.sweep import KmerSpectrum
from repro.cloud.instances import get_instance_type
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
    if assembler == "trinity":
        from repro.assembly.trinity import TRINITY_K

        return TRINITY_K
    return int(k)


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
    constant-size shared-memory handle regardless of read count.

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

    def _assemble(self) -> AssemblyResult:
        kwargs = (
            {"n_ranks": self.n_ranks}
            if self.assembler_name in DISTRIBUTED_ASSEMBLERS
            else {}
        )
        return get_assembler(self.assembler_name).assemble(
            self.store, self.params, spectrum=self.spectrum, **kwargs
        )

    def __call__(self):
        with get_tracer().span(
            "assembly_workload",
            category="workload",
            assembler=self.assembler_name,
            k=self.params.k,
        ):
            result = self._assemble()
        return result, self.priced(result)

    def priced(self, result: AssemblyResult):
        """The usage this workload charges for ``result``: its raw usage,
        extrapolated with this workload's ratios when they are set.  The
        agent prices a run-cache hit and a checkpoint replay here too."""
        if self.read_scale is None or self.graph_scale is None:
            return result.usage
        return paper_usage_from_scales(
            result.usage, self.read_scale, self.graph_scale
        )


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
    computing: frozenset[tuple] = frozenset(),
) -> list[UnitDescription]:
    """One UnitDescription per (assembler, k) job in the plan.

    ``dataset`` provides the paper-scale extrapolation factors; workloads
    hand back already-extrapolated usage, so units carry ``scale=1``.
    Every unit's workload shares the one :class:`ReadStore`.  ``spectra``
    (see :func:`~repro.assembly.sweep.build_spectra`) are the k-mers of
    that store counted once per k: each unit's workload receives only
    the spectrum at its job's k, so spectra for other k values are never
    pickled to that unit's worker; a job whose k is not among them
    builds its own (see :class:`AssemblyWorkload`).  A spectrum that two
    or more jobs in ``computing`` (content keys) read gets their graph
    products derived here, in ``KmerSpectrum.keeping``, so they only read.
    Each computing job's assembler module loads here too, so pool workers
    forked afterwards inherit it instead of compiling it on every run.

    Every unit carries a ``checkpoint_key`` — the job's
    :func:`content_key` — by which the pilot agent replays a checkpoint
    record or serves a run-cache hit, so a resumed fan-out or a warm
    rerun is bit-identical.  ``max_restarts`` lets callers survive transient
    failures (spot preemption) by retrying.
    """
    by_k = {sp.k: sp for sp in spectra}
    jobs = planned_jobs(plan, store, min_count, min_contig_length)
    for job in jobs:
        if job.key in computing:
            get_assembler(job.assembler)
    for sp in spectra:
        readers = [j for j in jobs if j.spectrum_k == sp.k and j.key in computing]
        if len(readers) > 1:
            with sp.keeping():
                for job in readers:
                    if job.assembler in ("ray", "abyss"):
                        sp.partition(job.cores, job.params.min_count)
                    elif job.assembler == "velvet":
                        sp.table(job.params.min_count)
    if input_bytes is None:
        input_bytes = spec.preprocessed_bytes
    descs = []
    for job in jobs:
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

    Raises :class:`ValueError` when two finished units map to the same
    ``(assembler, k)`` key — a silent overwrite here would drop one
    unit's contigs and usage from the merge without any signal.
    """
    out: dict[tuple[str, int], AssemblyResult] = {}
    for u in units:
        if u.result is not None:
            key = (u.description.tags["assembler"], u.description.tags["k"])
            if key in out:
                raise ValueError(
                    f"duplicate assembly result for {key!r}: unit "
                    f"{u.description.name!r} collides with an earlier unit"
                )
            out[key] = u.result
    return out
