"""An SGE-like batch scheduler over a fixed set of nodes.

The paper's clusters are StarCluster-built EC2 nodes running Sun Grid
Engine; MPI jobs (Ray/ABySS) and Hadoop jobs (Contrail) are all submitted
to SGE (§IV.C).  This model keeps the parts the experiments exercise:
slot accounting per node, a FIFO queue with parallel-environment
allocation spanning nodes, and event-driven start/finish on the virtual
clock.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.cloud.clock import EventQueue
from repro.obs import get_tracer


class SGEError(RuntimeError):
    pass


class JobState(enum.Enum):
    QUEUED = "qw"
    RUNNING = "r"
    DONE = "done"
    FAILED = "failed"


@dataclass
class SGEJob:
    """One batch job.

    ``duration`` may be a number of virtual seconds or a callable taking
    the slot allocation (``{node: slots}``) and returning seconds — used
    when TTC depends on how many nodes the scheduler actually granted.
    """

    name: str
    slots: int
    duration: float | Callable[[dict[str, int]], float]
    on_complete: Callable[["SGEJob"], None] | None = None
    #: Invoked when the job dies without completing (node loss under
    #: preemption); exactly one of on_complete/on_fail ever fires.
    on_fail: Callable[["SGEJob"], None] | None = None
    job_id: int = -1
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    allocation: dict[str, int] = field(default_factory=dict)
    error: str | None = None

    @property
    def wait_seconds(self) -> float:
        if self.started_at is None:
            return 0.0
        return self.started_at - self.submitted_at


class SGEScheduler:
    """FIFO scheduler with fill-up parallel-environment allocation."""

    def __init__(self, events: EventQueue, nodes: dict[str, int]) -> None:
        """``nodes`` maps node name to slot count."""
        if not nodes:
            raise SGEError("scheduler needs at least one node")
        self.events = events
        self.slots_total = dict(nodes)
        self.slots_free = dict(nodes)
        self.queue: list[SGEJob] = []
        self.jobs: dict[int, SGEJob] = {}
        self._ids = itertools.count(1)

    @property
    def total_slots(self) -> int:
        return sum(self.slots_total.values())

    def qsub(self, job: SGEJob) -> int:
        """Submit a job; returns its id."""
        if job.slots < 1:
            raise SGEError("job needs at least one slot")
        if job.slots > self.total_slots:
            raise SGEError(
                f"job {job.name!r} wants {job.slots} slots; cluster has "
                f"{self.total_slots}"
            )
        job.job_id = next(self._ids)
        job.submitted_at = self.events.clock.now
        self.jobs[job.job_id] = job
        self.queue.append(job)
        self._try_schedule()
        return job.job_id

    def qstat(self) -> dict[str, int]:
        """Counts by state, qstat-style."""
        out = {s.value: 0 for s in JobState}
        for j in self.jobs.values():
            out[j.state.value] += 1
        return out

    def run_to_completion(self) -> None:
        """Drain the event queue until all jobs finish."""
        self.events.run()
        stuck = [j for j in self.jobs.values() if j.state is JobState.QUEUED]
        if stuck:
            raise SGEError(f"jobs never scheduled: {[j.name for j in stuck]}")

    # -- internals ---------------------------------------------------------

    def _try_schedule(self) -> None:
        """FIFO: start head-of-queue jobs while they fit (no skip-ahead,
        like SGE's default seqno policy without backfill)."""
        while self.queue:
            job = self.queue[0]
            alloc = self._allocate(job.slots)
            if alloc is None:
                return
            self.queue.pop(0)
            self._start(job, alloc)

    def _allocate(self, slots: int) -> dict[str, int] | None:
        """Fill-up allocation: pack nodes with the most free slots first."""
        free = sorted(
            ((n, s) for n, s in self.slots_free.items() if s > 0),
            key=lambda kv: (-kv[1], kv[0]),
        )
        alloc: dict[str, int] = {}
        need = slots
        for node, avail in free:
            take = min(avail, need)
            alloc[node] = take
            need -= take
            if need == 0:
                return alloc
        return None

    def _start(self, job: SGEJob, alloc: dict[str, int]) -> None:
        for node, n in alloc.items():
            self.slots_free[node] -= n
        job.allocation = alloc
        job.state = JobState.RUNNING
        job.started_at = self.events.clock.now
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "sge.start",
                category="sge",
                process="sge",
                thread=job.name,
                job_id=job.job_id,
                slots=job.slots,
                nodes=len(alloc),
                wait_seconds=job.wait_seconds,
            )
        duration = (
            job.duration(alloc) if callable(job.duration) else float(job.duration)
        )
        if duration < 0:
            raise SGEError(f"negative duration for job {job.name!r}")
        self.events.schedule_in(
            duration, lambda: self._finish(job), tag=f"sge.finish:{job.name}"
        )

    def remove_node(self, node: str) -> list[SGEJob]:
        """A node died (spot preemption): drop its slots, fail the jobs
        running on it, and fail queued jobs that can no longer ever fit.

        Returns the failed jobs.  Running jobs allocated on the dead
        node are not requeued here — recovery is the *pilot* layer's
        job (restart machinery), not the batch scheduler's.
        """
        if node not in self.slots_total:
            return []
        victims = [
            j
            for j in self.jobs.values()
            if j.state is JobState.RUNNING and node in j.allocation
        ]
        del self.slots_total[node]
        del self.slots_free[node]
        for job in victims:
            self._fail(job, f"node {node} lost")
        # Queued jobs sized for the pre-loss cluster may now exceed total
        # capacity; they would sit in the queue forever.
        for job in list(self.queue):
            if job.slots > self.total_slots:
                self.queue.remove(job)
                self._fail(job, f"insufficient slots after losing {node}")
                victims.append(job)
        self._try_schedule()
        return victims

    def _fail(self, job: SGEJob, error: str) -> None:
        """Mark a job FAILED, release its surviving slots, notify."""
        job.state = JobState.FAILED
        job.error = error
        job.finished_at = self.events.clock.now
        for node, n in job.allocation.items():
            if node in self.slots_free:
                self.slots_free[node] += n
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("sge_jobs_failed")
            tracer.event(
                "sge.fail",
                category="sge",
                process="sge",
                thread=job.name,
                job_id=job.job_id,
                error=error,
            )
        if job.on_fail is not None:
            job.on_fail(job)

    def _finish(self, job: SGEJob) -> None:
        if job.state is not JobState.RUNNING:
            # The finish event of a job that already died (node loss)
            # still sits on the heap — events cannot be cancelled.
            return
        job.state = JobState.DONE
        job.finished_at = self.events.clock.now
        for node, n in job.allocation.items():
            self.slots_free[node] += n
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_span(
                f"sge:{job.name}",
                v_start=job.started_at,
                v_end=job.finished_at,
                category="sge",
                process="sge",
                thread=job.name,
                job_id=job.job_id,
                slots=job.slots,
                nodes=len(job.allocation),
                wait_seconds=job.wait_seconds,
            )
            tracer.count("sge_jobs_done")
            tracer.observe("sge_wait_seconds", job.wait_seconds)
        if job.on_complete is not None:
            job.on_complete(job)
        self._try_schedule()
