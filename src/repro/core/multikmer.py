"""Multi-k, multi-assembler assembly fan-out.

Builds one compute unit per (assembler, k) pair — the paper's sample run
submits "the total 6 jobs, corresponding to two k-mer assemblies for each
assembler" to SGE — and provides the workload closures that run the real
assemblers on the pre-processed reads.

The fan-out follows an encode-once discipline: the reads are encoded one
time into a shared :class:`~repro.seq.readstore.ReadStore` and every
workload carries only a cheap store reference — O(1) to pickle under the
process backend (a shared-memory handle), zero per-unit copying, and one
shared code array feeding every per-k extraction.  A content-addressed
:class:`~repro.core.assembly_cache.AssemblyCache` keyed by the store
digest short-circuits byte-identical re-runs (VM reuse, restarts,
repeated sweeps) with bit-identical results and virtual TTCs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.assembly.base import AssemblyParams, assemble_encoded
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
from repro.seq.fastq import FastqRecord
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

    Exactly one of ``store``/``reads`` is set.  ``store`` is the
    encode-once path: the workload pickles to a constant-size
    shared-memory handle regardless of read count, and (unless
    ``use_cache`` is off) consults the content-addressed assembly cache
    before running.  ``reads`` is the legacy self-contained record tuple,
    kept for old callers and as the old-path baseline in benchmarks.

    ``spectra`` carries the count-once fused extraction of
    :mod:`repro.assembly.sweep`: shared :class:`KmerSpectrum` objects
    (O(1) to pickle, like the store) from which the assembler's matching
    k is served instead of re-extracted.  A workload uses the spectrum
    it was handed and looks nowhere else; the pipeline hands one only to
    jobs it expects to compute (see ``RnnotatorPipeline``'s demand
    rule).  Without a live matching spectrum — none handed, or its
    segment already closed — the assembler extracts its own k-mers,
    bit-identically and merely slower.  Spectra never change results, so
    they are not part of the content key.
    """

    assembler_name: str
    params: AssemblyParams
    n_ranks: int
    store: ReadStore | None = None
    reads: tuple[FastqRecord, ...] | None = None
    read_scale: float | None = None
    graph_scale: float | None = None
    use_cache: bool = True
    spectra: tuple[KmerSpectrum, ...] = ()

    def __post_init__(self) -> None:
        if (self.store is None) == (self.reads is None):
            raise ValueError("exactly one of store/reads must be set")

    def cache_key(self):
        """Content address of this workload, or None when uncacheable."""
        if self.store is None or not self.use_cache:
            return None
        return content_key(
            self.store, self.assembler_name, self.params, self.n_ranks
        )

    def _resolve_spectrum(self) -> "KmerSpectrum | None":
        """The live handed-over spectrum matching this job, if any."""
        if self.store is None:
            return None
        want_k = spectrum_k(self.assembler_name, self.params.k)
        for spectrum in self.spectra:
            if (
                spectrum.k == want_k
                and spectrum.store_digest == self.store.digest
                and not spectrum.closed
            ):
                return spectrum
        return None

    def _assemble(self) -> AssemblyResult:
        assembler = get_assembler(self.assembler_name)
        kwargs = (
            {"n_ranks": self.n_ranks}
            if self.assembler_name in DISTRIBUTED_ASSEMBLERS
            else {}
        )
        if self.store is not None:
            spectrum = self._resolve_spectrum()
            if spectrum is not None:
                kwargs["spectrum"] = spectrum
            return assemble_encoded(assembler, self.store, self.params, **kwargs)
        return assembler.assemble(list(self.reads), self.params, **kwargs)

    def record_result(self, result: AssemblyResult) -> None:
        """Insert a collected *raw* result into the active cache.

        Called by :func:`collect_assembly_results` on the parent side so
        results computed in pool workers (whose in-worker cache inserts
        never cross the process boundary) become hits for later sweeps.
        """
        key = self.cache_key()
        if key is None:
            return
        cache = get_assembly_cache()
        if cache is not None:
            inserted = cache.put(key, result)
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
        cache = get_assembly_cache() if key is not None else None
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
    reads: "ReadStore | list[FastqRecord]",
    params: AssemblyParams,
    n_ranks: int,
    dataset=None,
    use_cache: bool = True,
    spectra: tuple[KmerSpectrum, ...] = (),
) -> AssemblyWorkload:
    """Workload executing one real assembly; returns (result, usage).

    ``reads`` is ideally an already-built (shared) :class:`ReadStore`;
    a record list is encoded once here.  When ``dataset`` is given, only
    its two extrapolation ratios are captured — the workload stays cheap
    to pickle.  ``spectra`` optionally carries count-once
    :class:`~repro.assembly.sweep.KmerSpectrum` objects; the one matching
    the assembler's k (if any) serves extraction."""

    store = (
        reads if isinstance(reads, ReadStore) else ReadStore.from_reads(reads)
    )
    return AssemblyWorkload(
        assembler_name=assembler_name,
        params=params,
        n_ranks=n_ranks,
        store=store,
        read_scale=None if dataset is None else dataset.read_scale,
        graph_scale=None if dataset is None else dataset.scale,
        use_cache=use_cache,
        spectra=tuple(spectra),
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
    reads: "ReadStore | list[FastqRecord]",
    dataset,
    min_count: int = 2,
    min_contig_length: int = 100,
    input_bytes: int | None = None,
    use_cache: bool = True,
    max_restarts: int = 0,
    spectra: tuple[KmerSpectrum, ...] = (),
) -> list[UnitDescription]:
    """One UnitDescription per (assembler, k) job in the plan.

    ``dataset`` provides the paper-scale extrapolation factors; workloads
    hand back already-extrapolated usage, so units carry ``scale=1``.
    The reads are encoded exactly once — every unit's workload shares the
    same :class:`ReadStore`.  ``spectra`` (see :func:`build_spectra`)
    additionally extracts/counts k-mers exactly once per k: each unit's
    workload receives only the spectrum matching its job's k, so
    spectra for other k values are never pickled to that unit's worker.

    Every unit carries a ``checkpoint_key`` — the job's
    :func:`content_key`, the same address the assembly cache uses — so
    runs with a durable checkpoint store resume the fan-out
    bit-identically.  ``max_restarts`` lets callers survive transient
    failures (spot preemption) by retrying.
    """
    store = (
        reads if isinstance(reads, ReadStore) else ReadStore.from_reads(reads)
    )
    if input_bytes is None:
        input_bytes = spec.preprocessed_bytes
    descs = []
    for job in planned_jobs(plan, store, min_count, min_contig_length):
        job_spectra = tuple(
            sp
            for sp in spectra
            if sp.k == job.spectrum_k and sp.store_digest == store.digest
        )
        descs.append(
            UnitDescription(
                name=f"{job.assembler}_k{job.k}",
                work=make_assembly_workload(
                    job.assembler,
                    store,
                    job.params,
                    job.cores,
                    dataset=dataset,
                    use_cache=use_cache,
                    spectra=job_spectra,
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
