"""Unit tests for the workload-execution backends."""

import os
import signal
import time
from concurrent.futures import BrokenExecutor

import pytest

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


def bad_work():
    raise RuntimeError("kaput")


def killed_work():
    os.kill(os.getpid(), signal.SIGKILL)


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


class TestRunWorkload:
    def test_times_the_call(self):
        result, usage, wall, worker_trace = run_workload(slow_work)
        assert result == "slow"
        assert usage.phases
        assert wall >= 0.02
        assert worker_trace is None  # no context, no buffering


class TestSerial:
    def test_runs_inline(self):
        out = SerialExecutor().submit(ok_work).outcome()
        assert out.ok
        assert out.result == 42
        assert out.usage is not None
        assert out.wall_seconds >= 0

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
