"""Unit tests for the workload-execution backends."""

import os
import signal
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.ec2 import EC2Region
from repro.obs import SpanContext, Tracer, get_tracer, use_tracer
from repro.parallel.executor import (
    EXECUTOR_BACKENDS,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkloadExecutor,
    WorkloadOutcome,
    _worker_masks,
    make_executor,
    run_workload,
)
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.manager import PilotManager, UnitManager
from repro.pilot.states import UnitState


def tiny_usage(compute=1e5):
    u = ResourceUsage(n_ranks=1)
    u.add_phase(
        PhaseUsage("w", "generic", critical_compute=compute, total_compute=compute)
    )
    return u


def ok_work():
    return 42, tiny_usage()


def slow_work():
    time.sleep(0.02)
    return "slow", tiny_usage()


def traced_work():
    tracer = get_tracer()
    with tracer.span("inside", category="workload"):
        tracer.event("tick", category="workload")
    return 42, tiny_usage()  # tiny_usage's add_phase records a phase event


def bad_work():
    raise RuntimeError("kaput")


def killed_work():
    os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class KillOnce:
    """``ok_work`` whose worker dies under it (SIGKILL, what the OOM
    killer sends) unless ``marker`` says an earlier attempt already did."""

    marker: str

    def __call__(self):
        if not os.path.exists(self.marker):
            Path(self.marker).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return ok_work()


def affinity_work():
    time.sleep(0.05)  # long enough that every worker of the pool takes one
    return (os.getpid(), sorted(os.sched_getaffinity(0))), tiny_usage()


class TestFactory:
    def test_names_resolve(self):
        for name, cls in EXECUTOR_BACKENDS.items():
            ex = make_executor(name)
            assert isinstance(ex, cls)
            assert ex.name == name
            ex.shutdown()

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert make_executor(ex) is ex

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutorError):
            make_executor("gpu")
        with pytest.raises(ExecutorError):
            make_executor(None)

    def test_max_workers_forwarded(self):
        ex = make_executor("thread", max_workers=3)
        assert ex.max_workers == 3
        ex.shutdown()

    @pytest.mark.parametrize("backend", ("thread", "process"))
    @pytest.mark.parametrize("workers", (0, -1))
    def test_max_workers_below_one_rejected(self, backend, workers):
        with pytest.raises(ValueError, match=f"max_workers .* got {workers}"):
            make_executor(backend, max_workers=workers)


class TestRunWorkload:
    def test_times_the_call(self):
        out = run_workload(slow_work)
        assert out.result == "slow"
        assert out.usage.phases
        assert out.wall_seconds >= 0.02
        assert out.worker_trace is None  # no context, no buffering

    def test_a_stored_outcome_is_handed_back_without_running(self):
        stored = WorkloadOutcome(result="stored", wall_seconds=1.5)
        assert run_workload(stored) is stored


class TestSerial:
    def test_runs_inline(self):
        out = SerialExecutor().submit(ok_work).outcome()
        assert out.ok
        assert out.result == 42
        assert out.usage is not None
        assert out.wall_seconds >= 0

    def test_keeps_its_inline_records_for_a_replay(self):
        """Records go straight into the tracer, once, and the outcome
        keeps them (``pid`` None); with no context, nothing is kept."""
        tracer = Tracer()
        with use_tracer(tracer), tracer.span(
            "dispatch", process="P_B", thread="u1"
        ) as dispatch:
            context = SpanContext.capture(tracer, dispatch.span_id, "P_B", "u1")
            kept = SerialExecutor().submit(traced_work, context).outcome()
            bare = SerialExecutor().submit(traced_work).outcome()
        trace = kept.worker_trace
        assert trace.pid is None
        assert [s.name for s in trace.spans] == ["inside"]
        assert [e.name for e in trace.events] == ["tick", "phase"]  # no dispatch
        assert bare.worker_trace is None
        assert [s.name for s in tracer.spans].count("inside") == 2

    def test_error_captured_not_raised(self):
        out = SerialExecutor().submit(bad_work).outcome()
        assert not out.ok
        assert "kaput" in str(out.error)
        assert out.result is None


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestPoolBackends:
    def test_outcomes_in_submission_order(self, backend):
        with make_executor(backend, max_workers=2) as ex:
            handles = [ex.submit(ok_work) for _ in range(4)]
            outs = [h.outcome() for h in handles]
        assert all(o.ok for o in outs)
        assert [o.result for o in outs] == [42] * 4
        assert all(o.wall_seconds >= 0 for o in outs)

    def test_error_captured_not_raised(self, backend):
        with make_executor(backend, max_workers=2) as ex:
            out = ex.submit(bad_work).outcome()
        assert not out.ok
        assert "kaput" in str(out.error)

    def test_shutdown_idempotent(self, backend):
        ex = make_executor(backend)
        ex.submit(ok_work).outcome()
        ex.shutdown()
        ex.shutdown()

    def test_pool_recreated_after_shutdown(self, backend):
        ex = make_executor(backend)
        ex.submit(ok_work).outcome()
        ex.shutdown()
        out = ex.submit(ok_work).outcome()
        assert out.ok
        ex.shutdown()


class TestProcessSpecifics:
    def test_unpicklable_workload_fails_gracefully(self):
        secret = object()

        def closure():
            return secret, tiny_usage()

        with ProcessExecutor(max_workers=1) as ex:
            out = ex.submit(closure).outcome()
        # A closure cannot be pickled to the worker: the error must come
        # back in the outcome, never as an exception from submit/outcome.
        assert not out.ok

    def test_lazy_pool_creation(self):
        ex = ProcessExecutor()
        assert ex._pool is None
        ex.shutdown()  # shutdown before first submit is a no-op
        assert ex._pool is None

    def test_dead_worker_does_not_poison_the_pool(self):
        with ProcessExecutor(max_workers=2) as ex:
            dead = ex.submit(killed_work)
            bystander = ex.submit(slow_work)
            # The pool fails everything in flight on it, by name ...
            assert isinstance(dead.outcome().error, BrokenExecutor)
            bystander.outcome()  # may have finished first; must not hang
            # ... and the next submit runs on a fresh one.
            out = ex.submit(ok_work).outcome()
            assert out.ok and out.result == 42
            assert ex.inflight_count() == 0

    def test_a_dead_worker_fails_its_unit_transiently_and_the_restart_runs(
        self, tmp_path
    ):
        """The agent reads the dead worker's ``BrokenExecutor`` from
        ``outcome.error`` as a transient failure: with a single pilot, only
        a transient failure may be retried there, and the retry runs on a
        fresh pool."""
        clock = SimClock()
        events = EventQueue(clock)
        pm = PilotManager(EC2Region(clock), events)
        pilot = pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 1)))
        tracer = Tracer(clock)
        with ProcessExecutor(max_workers=1) as ex, use_tracer(tracer):
            um = UnitManager(events, executor=ex)
            um.add_pilot(pilot)
            (unit,) = um.submit_units([
                UnitDescription(
                    name="u", work=KillOnce(str(tmp_path / "killed")), max_restarts=1
                )
            ])
            um.run([unit])
        assert unit.state is UnitState.DONE and unit.result == 42
        outcomes = [e.attrs["ok"] for e in tracer.events if e.name == "workload.outcome"]
        assert outcomes == [False, True]
        assert tracer.metrics.counters["units_restarted"].value == 1


@pytest.mark.parametrize("offset", [0, 3, 13])
@pytest.mark.parametrize("width", [2, 3, 8, 11])
def test_masks_are_disjoint_and_cover_for_every_width(width, offset):
    allowed = (0, 1, 2, 3, 8, 9, 10, 11)  # a wider host's cpuset
    masks = _worker_masks(allowed, width, offset)
    assert len(masks) == min(width, len(allowed))
    assert sorted(c for mask in masks for c in mask) == list(allowed)
    assert max(map(len, masks)) - min(map(len, masks)) <= 1
    assert masks[0][0] == allowed[offset % len(allowed)]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and two allowed CPUs",
)
class TestPlacement:
    """Workers of one pool get disjoint CPU masks, whatever its width."""

    @staticmethod
    def worker_affinities(ex, n_workers):
        handles = [ex.submit(affinity_work) for _ in range(2 * n_workers)]
        return dict(h.outcome().result for h in handles)

    @pytest.mark.parametrize("spare", [0, 1])
    def test_workers_split_the_allowed_cpus(self, spare):
        parent = sorted(os.sched_getaffinity(0))
        width = len(parent) - spare
        with ProcessExecutor(max_workers=width) as ex:
            by_pid = self.worker_affinities(ex, width)
        assert len(by_pid) == width
        # Disjoint and covering; one CPU each when the pool takes them all.
        assert sorted(c for cpus in by_pid.values() for c in cpus) == parent
        assert spare or all(len(cpus) == 1 for cpus in by_pid.values())
        assert sorted(os.sched_getaffinity(0)) == parent  # after shutdown()


class TestOutcome:
    def test_ok_flag(self):
        assert WorkloadOutcome(result=1).ok
        assert not WorkloadOutcome(error=RuntimeError("x")).ok

    def test_abstract_interface(self):
        with pytest.raises(TypeError):
            WorkloadExecutor()
