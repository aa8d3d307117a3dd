"""The pipeline's ReadStore lives until quantification has read it.

Under the process backend the store sits in a shared-memory segment,
and since quantification joins against it the segment outlives the
assembly stage.  Whatever ends the run after that stage — a merge or
quantification unit that raises, a simulated kill — the owner must still
close the store and unlink the segment.
"""

import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.core import multikmer, rnnotator
from repro.core.assembly_cache import use_assembly_cache
from repro.core.rnnotator import (
    FaultPlan,
    PipelineConfig,
    PipelineError,
    PipelineKilled,
    RnnotatorPipeline,
)
from repro.seq.readstore import ReadStore
from tests.core.test_fused_pipeline import _fingerprint as fingerprint

SHM = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not SHM.is_dir(), reason="needs a listable /dev/shm"
)


@contextmanager
def time_limit(seconds):
    """A run that hangs on its pool or its segment fails, not blocks."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"pipeline still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def segments():
    return {p.name for p in SHM.glob("psm_*")}


def boom(*args, **kwargs):
    raise RuntimeError("injected failure")


@pytest.fixture
def stores(monkeypatch):
    """``(encoded, held)``: every ReadStore the run encodes from records,
    and every alias it takes of the filtered store QC returns — the
    holder it shares with the fan-out and must release."""
    encoded, held = [], []
    from_reads = ReadStore.from_reads.__func__
    alias = ReadStore.alias

    def encode_spy(cls, reads):
        encoded.append(from_reads(cls, reads))
        return encoded[-1]

    def alias_spy(store):
        held.append(alias(store))
        return held[-1]

    monkeypatch.setattr(ReadStore, "from_reads", classmethod(encode_spy))
    monkeypatch.setattr(ReadStore, "alias", alias_spy)
    return encoded, held


def run(ds, faults=None):
    config = PipelineConfig(
        assemblers=("velvet",),
        kmer_list=(31,),
        executor="process",
        executor_workers=2,
    )
    with time_limit(120), use_assembly_cache(None):
        return RnnotatorPipeline(faults=faults).run(ds, config)


def assert_released(stores, before):
    encoded, (store,) = stores
    # The raw reads, once: neither the fan-out nor quantification
    # re-encodes anything, and the raw store never needs a segment.
    assert len(encoded) == 1 and not encoded[0].shared
    # Only a store that was shared ever reads as closed, so this also
    # says the fan-out really went through a segment.
    assert store.closed
    assert segments() <= before


class TestStoreLifetime:
    def test_healthy_run_quantifies_from_the_shared_store(
        self, ds_single, stores
    ):
        before = segments()
        result = run(ds_single)
        assert result.quantification.assigned_reads > 0
        assert_released(stores, before)

    @pytest.mark.parametrize(
        "unit, stage",
        [("merge_contigs", "post-processing"), ("quantify", "quantification")],
    )
    def test_failing_unit_after_assembly_leaves_no_segment(
        self, ds_single, stores, monkeypatch, unit, stage
    ):
        # rnnotator resolves both names at call time (the benchmark's
        # layer timers rebind them the same way).
        monkeypatch.setattr(rnnotator, unit, boom)
        before = segments()
        with pytest.raises(PipelineError, match=f"{stage} failed"):
            run(ds_single)
        assert_released(stores, before)

    def test_kill_after_assembly_leaves_no_segment(self, ds_single, stores):
        before = segments()
        with pytest.raises(PipelineKilled):
            run(ds_single, FaultPlan(abort_after_stage="transcript-assembly"))
        assert_released(stores, before)


@dataclass(frozen=True)
class KillOnce:
    """A workload whose worker dies under it on the first attempt: the
    process SIGKILLs itself (what the OOM killer does) unless ``marker``
    says an earlier attempt already did."""

    work: object
    marker: str

    def __call__(self):
        if not os.path.exists(self.marker):
            Path(self.marker).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return self.work()


class TestWorkerKilled:
    """A SIGKILLed pool worker ends in a typed error or a restart —
    never a hang, never a leaked segment."""

    @pytest.fixture
    def first_job_kills_its_worker(self, monkeypatch, tmp_path):
        describe = multikmer.assembly_unit_descriptions

        def describe_with_a_killer(*args, **kwargs):
            first, *rest = describe(*args, **kwargs)
            killer = KillOnce(first.work, str(tmp_path / "killed"))
            return [replace(first, work=killer), *rest]

        monkeypatch.setattr(
            multikmer, "assembly_unit_descriptions", describe_with_a_killer
        )

    @staticmethod
    def run(ds, max_restarts=0):
        config = PipelineConfig(
            assemblers=("velvet",),
            kmer_list=(25, 31),
            executor="process",
            executor_workers=2,
            unit_max_restarts=max_restarts,
        )
        with time_limit(120), use_assembly_cache(None):
            return RnnotatorPipeline().run(ds, config)

    def test_no_restart_budget_names_the_broken_pool(
        self, ds_single, first_job_kills_its_worker
    ):
        before = segments()
        with pytest.raises(PipelineError, match="process pool"):
            self.run(ds_single)
        assert segments() <= before

    def test_a_restart_runs_on_a_fresh_pool(
        self, ds_single, first_job_kills_its_worker, tmp_path
    ):
        before = segments()
        restarted = self.run(ds_single, max_restarts=1)
        assert (tmp_path / "killed").exists()
        # The marker is down, so this run's workers all live.
        healthy = self.run(ds_single)
        assert fingerprint(restarted) == fingerprint(healthy)
        assert segments() <= before
