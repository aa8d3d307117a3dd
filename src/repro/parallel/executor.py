"""Pluggable workload-execution backends for the pilot agent.

The pilot agent separates *what a unit costs on the virtual clock* (the
cost model, run against the measured usage) from *running the real
Python workload that produces that usage*.  The executors here own the
second half: a workload is dispatched with :meth:`WorkloadExecutor.submit`
and its outcome is collected later through the returned
:class:`WorkloadHandle` — which is what lets a multi-k, multi-assembler
fan-out occupy every host core instead of serializing on one.

Three backends:

* :class:`SerialExecutor` — runs the workload inline at submit time.
  This is the historical behaviour and the default: fully deterministic,
  no pools, no pickling requirements.
* :class:`ThreadExecutor` — a ``ThreadPoolExecutor``.  Accepts any
  callable (closures included); real speedup only where workloads
  release the GIL (I/O, sleeping, native extensions).
* :class:`ProcessExecutor` — a ``ProcessPoolExecutor``.  True CPU
  parallelism for pure-Python workloads, but the workload callable and
  its results must be picklable (see
  :class:`repro.core.multikmer.AssemblyWorkload`).

All backends report the workload's *real* wall-clock seconds in the
outcome, so the host-side speedup is observable alongside the — by
construction backend-independent — virtual TTCs.

Tracing crosses the executor boundary via span-context propagation:
``submit`` accepts an optional picklable
:class:`~repro.obs.context.SpanContext`.  The serial backend ignores it
(inline execution records straight into the ambient tracer); the pool
backends ship it with the workload, ``run_workload`` installs a
thread-local :class:`~repro.obs.context.BufferingTracer` around the
workload body, and the buffered spans/events/metric deltas — plus
RSS/CPU resource samples — come back in
:attr:`WorkloadOutcome.worker_trace` for the collect path to merge.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import get_tracer, set_thread_tracer
from repro.obs.context import BufferingTracer, SpanContext, WorkerTrace
from repro.parallel.usage import ResourceUsage

#: A unit workload: a callable returning (result, measured usage).
#: (Mirrors repro.pilot.description.Workload; redeclared here to keep the
#: parallel layer below the pilot layer.)
Workload = Callable[[], tuple[Any, ResourceUsage]]


class ExecutorError(RuntimeError):
    pass


@dataclass
class WorkloadOutcome:
    """What one workload execution produced.

    ``wall_seconds`` is real host time spent inside the workload — not
    virtual time; the cost model still prices virtual duration from the
    usage record.  ``worker_trace`` carries the workload's buffered
    spans/events/metrics when a span context was propagated (pool
    backends with tracing enabled); ``None`` otherwise.
    """

    result: Any = None
    usage: ResourceUsage | None = None
    wall_seconds: float = 0.0
    error: BaseException | None = None
    worker_trace: WorkerTrace | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _worker_masks(
    allowed: tuple[int, ...], width: int, offset: int
) -> tuple[tuple[int, ...], ...]:
    """Split ``allowed`` CPUs into ``min(width, len(allowed))`` disjoint
    masks that cover it, dealt round-robin starting ``offset`` CPUs in."""
    start = offset % len(allowed)
    rotated = allowed[start:] + allowed[:start]
    slots = min(width, len(allowed))
    return tuple(rotated[i::slots] for i in range(slots))


def _init_worker(
    next_index=None, masks: tuple[tuple[int, ...], ...] = ()
) -> None:
    """Process-pool worker initializer.

    Forked workers inherit the parent's entire heap; moving it to the
    permanent generation (``gc.freeze``) keeps worker-side garbage
    collections from rescanning millions of inherited objects (and from
    dirtying their copy-on-write pages) on every gen-2 pass.  Workers
    are workload runners, not long-lived accumulators — nothing they
    inherit ever becomes garbage they need to reclaim.

    With ``masks`` (:class:`ProcessExecutor`'s placement rule) the worker
    draws its index from the pool's counter and takes that mask.
    """
    import gc

    gc.freeze()
    if masks:
        with next_index.get_lock():
            index = next_index.value
            next_index.value += 1
        try:
            os.sched_setaffinity(0, masks[index % len(masks)])
        except OSError:  # the cpuset shrank since the pool was made
            pass


@dataclass(frozen=True)
class ReplayWorkload:
    """A checkpointed outcome standing in for the real computation.

    Resume-from-checkpoint must be *trace-transparent*: a replayed unit
    travels the identical dispatch path (executor submit, pickle
    measurement, pool round-trip) so the resumed run's trace has the
    same structure as an uninterrupted one.  Only the workload body is
    substituted: :func:`run_workload` short-circuits to the stored
    outcome — including the original worker trace, whose spans and
    events are re-merged parent-side exactly like a live run's.
    """

    result: Any
    usage: ResourceUsage | None
    wall_seconds: float = 0.0
    worker_trace: WorkerTrace | None = None

    def __call__(self) -> tuple[Any, ResourceUsage | None]:
        return self.result, self.usage


@dataclass(frozen=True)
class DelayedWorkload:
    """Chaos wrapper: sleep ``delay_seconds`` of *real* time, then run.

    The straggler drill for the live-telemetry layer: the wrapped unit
    takes longer on the host clock — so heartbeats see it run past its
    peers — while every virtual quantity (the usage record the cost
    model prices) is untouched, preserving TTC/dollar parity.
    Picklable, so it crosses the process backend like any workload.
    """

    work: Workload
    delay_seconds: float

    def __call__(self) -> tuple[Any, ResourceUsage]:
        time.sleep(self.delay_seconds)
        return self.work()


def run_workload(
    work: Workload, context: SpanContext | None = None
) -> tuple[Any, ResourceUsage, float, WorkerTrace | None]:
    """Execute ``work`` and time it.

    Module-level so the process backend can ship it to a worker.  With a
    ``context``, the workload runs under a thread-locally installed
    :class:`BufferingTracer` — in-workload instrumentation lands in its
    buffers instead of vanishing with the worker — and the buffered
    trace is the fourth element of the returned tuple.
    """
    if isinstance(work, ReplayWorkload):
        return work.result, work.usage, work.wall_seconds, work.worker_trace
    if context is None:
        t0 = time.perf_counter()
        result, usage = work()
        return result, usage, time.perf_counter() - t0, None
    buffer = BufferingTracer(cadence=context.resource_cadence)
    previous = set_thread_tracer(buffer)
    try:
        buffer.count("worker_workloads")
        with buffer.span("workload", category="worker", pid=buffer.pid):
            t0 = time.perf_counter()
            result, usage = work()
            wall = time.perf_counter() - t0
    finally:
        set_thread_tracer(previous)
        buffer.close()
    return result, usage, wall, buffer.to_worker_trace()


class WorkloadHandle(ABC):
    """A dispatched workload; :meth:`outcome` blocks until it finishes."""

    @abstractmethod
    def outcome(self) -> WorkloadOutcome:
        """Wait for the workload and return its outcome (never raises
        for workload errors — they come back in ``outcome.error``)."""


class _ReadyHandle(WorkloadHandle):
    """An already-finished workload (serial backend, dispatch errors)."""

    def __init__(self, outcome: WorkloadOutcome) -> None:
        self._outcome = outcome

    def outcome(self) -> WorkloadOutcome:
        return self._outcome


class _FutureHandle(WorkloadHandle):
    """A workload pending on a concurrent.futures pool."""

    def __init__(self, future: Future) -> None:
        self._future = future

    def outcome(self) -> WorkloadOutcome:
        try:
            result, usage, wall, worker_trace = self._future.result()
        except Exception as exc:
            return WorkloadOutcome(error=exc)
        return WorkloadOutcome(
            result=result,
            usage=usage,
            wall_seconds=wall,
            worker_trace=worker_trace,
        )


class WorkloadExecutor(ABC):
    """Dispatches unit workloads; see the module docstring for backends."""

    #: Backend name, as accepted by :func:`make_executor`.
    name: str = "?"

    #: Whether ``submit`` returns before the workload runs, so separately
    #: submitted workloads genuinely execute concurrently.  The opt-in
    #: sharded spectrum build
    #: (:func:`repro.assembly.sweep.submit_spectra_build`, asked for
    #: with ``PipelineConfig.spectrum_shards``) is only attempted on
    #: backends where this holds — the serial backend runs workloads
    #: inline at submit time, so "overlap" there would just reorder work.
    supports_overlap: bool = False

    @abstractmethod
    def submit(
        self, work: Workload, context: SpanContext | None = None
    ) -> WorkloadHandle:
        """Dispatch ``work``; never raises for workload errors.

        ``context`` requests worker-side tracing (see module docstring);
        backends that execute inline may ignore it."""

    def inflight_count(self) -> int:
        """Workloads submitted but not yet finished.  Inline backends
        are never in flight between calls; pool backends count live
        futures — what the heartbeat monitor stamps on its beats."""
        return 0

    def shutdown(self) -> None:
        """Release pool resources (idempotent; no-op for serial)."""

    def __enter__(self) -> "WorkloadExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class SerialExecutor(WorkloadExecutor):
    """Runs each workload inline at submit time (historical behaviour)."""

    name = "serial"

    def __init__(self, max_workers: int | None = None) -> None:
        # max_workers accepted (and ignored) for factory uniformity.
        self.max_workers = 1

    def submit(
        self, work: Workload, context: SpanContext | None = None
    ) -> WorkloadHandle:
        # context is ignored deliberately: inline execution records
        # straight into the ambient tracer, already on the right stack.
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("executor.dispatch", category="executor", backend=self.name)
        try:
            # The worker trace is always None for live inline runs (no
            # context, no buffering) but carries the original's buffered
            # records when replaying a checkpointed pool-backend outcome.
            result, usage, wall, worker_trace = run_workload(work)
        except Exception as exc:
            return _ReadyHandle(WorkloadOutcome(error=exc))
        return _ReadyHandle(
            WorkloadOutcome(
                result=result,
                usage=usage,
                wall_seconds=wall,
                worker_trace=worker_trace,
            )
        )


class _PoolExecutor(WorkloadExecutor):
    """Shared plumbing for the concurrent.futures-backed backends.

    The pool is created lazily on first submit so that merely
    constructing a manager with a parallel backend costs nothing.
    """

    supports_overlap = True

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or self._default_workers()
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    @staticmethod
    def _default_workers() -> int:
        return os.cpu_count() or 1

    def _make_pool(self):
        raise NotImplementedError

    def inflight_count(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def _workload_done(self, _future: Future) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def submit(
        self, work: Workload, context: SpanContext | None = None
    ) -> WorkloadHandle:
        if self._pool is None:
            self._pool = self._make_pool()
        try:
            try:
                future = self._pool.submit(run_workload, work, context)
            except BrokenExecutor:
                # A worker died (SIGKILL, the OOM killer): the pool
                # failed its in-flight futures and refuses every later
                # submit, so a restarted unit could never run.  Renew it.
                self.shutdown()
                self._pool = self._make_pool()
                future = self._pool.submit(run_workload, work, context)
        except Exception as exc:  # pool shut down / cannot start
            return _ReadyHandle(WorkloadOutcome(error=exc))
        with self._inflight_lock:
            self._inflight += 1
        future.add_done_callback(self._workload_done)
        return _FutureHandle(future)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadExecutor(_PoolExecutor):
    """ThreadPoolExecutor backend: any callable, GIL-bound for pure CPU."""

    name = "thread"

    @staticmethod
    def _default_workers() -> int:
        # Threads suit GIL-releasing (I/O-shaped) workloads, which can be
        # oversubscribed well past the core count — same default policy
        # as concurrent.futures.ThreadPoolExecutor.
        return min(32, (os.cpu_count() or 1) + 4)

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-exec"
        )


class ProcessExecutor(_PoolExecutor):
    """ProcessPoolExecutor backend: true CPU parallelism, needs pickling.

    Prefers the ``fork`` start method where available so workers inherit
    the parent's hash seed and module state — keeping set/dict-free
    deterministic workloads bit-identical to the serial backend.

    Placement: the CPUs the process is allowed (``os.sched_getaffinity``)
    are dealt into one disjoint mask per worker, for every pool width —
    a single CPU each when the pool is as wide as the allowed set, a
    stripe of several for a narrower pool — so two workers of one pool
    never share a CPU they could have had to themselves.  Workers forked
    back to back wake on their parent's CPU and a fan-out job of tens of
    milliseconds is over before the kernel's balancer moves one: left to
    it, two workers were measured time-slicing one CPU of two while the
    blocked parent left the other idle.  The deal starts at
    ``os.getpid() % n_cpus`` so concurrent pools do not all begin at CPU
    0, which makes overlap between them less likely, not impossible:
    single-CPU masks are hard pins the kernel cannot move, so pipelines
    sharing a host should narrow ``executor_workers`` (and so get
    stripes to be balanced within).  A one-worker pool, the parent and
    the thread backend are left alone.  Measured on a 2-CPU host only.
    """

    name = "process"

    def submit(
        self, work: Workload, context: SpanContext | None = None
    ) -> WorkloadHandle:
        tracer = get_tracer()
        if tracer.enabled:
            # What crosses the process boundary is the pickled workload;
            # encode-once workloads must stay O(1) here regardless of
            # read count (the ReadStore pickles to a shm handle).
            try:
                pickled_bytes = len(
                    pickle.dumps(work, protocol=pickle.HIGHEST_PROTOCOL)
                )
            except Exception:
                pickled_bytes = None
            tracer.event(
                "executor.submit_pickle",
                category="executor",
                backend=self.name,
                nbytes=-1 if pickled_bytes is None else pickled_bytes,
            )
            # A failed pickle has no size: emit only the failure event
            # above, never a sentinel observation that would poison the
            # histogram's percentiles.
            if pickled_bytes is not None:
                tracer.observe("workload_pickle_bytes", float(pickled_bytes))
        return super().submit(work, context)

    def _make_pool(self) -> ProcessPoolExecutor:
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else None)
        masks: tuple[tuple[int, ...], ...] = ()
        if hasattr(os, "sched_setaffinity"):  # Linux
            allowed = tuple(sorted(os.sched_getaffinity(0)))
            if min(self.max_workers, len(allowed)) > 1:
                masks = _worker_masks(allowed, self.max_workers, os.getpid())
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(ctx.Value("i", 0), masks) if masks else (),
        )


#: Registry of backend names -> classes (used by make_executor and docs).
EXECUTOR_BACKENDS: dict[str, type[WorkloadExecutor]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def make_executor(
    spec: "str | WorkloadExecutor", max_workers: int | None = None
) -> WorkloadExecutor:
    """Resolve an executor spec: a backend name or an existing instance.

    Passing an instance returns it unchanged (the caller keeps ownership
    of its lifecycle); passing a name constructs a fresh backend.
    """
    if isinstance(spec, WorkloadExecutor):
        return spec
    try:
        cls = EXECUTOR_BACKENDS[spec]
    except (KeyError, TypeError):
        raise ExecutorError(
            f"unknown executor {spec!r}; expected one of "
            f"{sorted(EXECUTOR_BACKENDS)} or a WorkloadExecutor instance"
        ) from None
    return cls(max_workers=max_workers)
