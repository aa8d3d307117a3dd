"""Durable checkpoint/resume: store semantics and end-to-end parity.

The headline property (ISSUE): a pipeline killed mid-run and re-run
against the same checkpoint directory produces results bit-identical to
an uninterrupted run — same contigs, same usage, same virtual TTCs and
cost — because replayed units travel the identical dispatch/SGE/pricing
path with only the computation substituted.
"""

import pickle

import pytest

from repro.assembly.sweep import use_kmer_table_cache
from repro.core.assembly_cache import use_assembly_cache
from repro.core.checkpoint import (
    FORMAT_VERSION,
    CheckpointStore,
    UnitCheckpoint,
    checkpoint_key_id,
)
from repro.core.rnnotator import (
    STAGE_NAMES,
    FaultPlan,
    PipelineConfig,
    PipelineError,
    PipelineKilled,
    RnnotatorPipeline,
)
from repro.core.schemes import MatchingScheme
from repro.obs import Tracer, use_tracer
from tests.core.test_fused_pipeline import _fingerprint as fingerprint
from tests.core.test_store_lifetime import time_limit

CONFIG = dict(assemblers=("ray",), kmer_list=(35, 41))
#: One spot reclaim a virtual second into the assembly fan-out.
PREEMPT = FaultPlan(preempt_at=(1.0,))


@pytest.fixture(scope="module")
def baseline(ds_single):
    """The uninterrupted, uncheckpointed run resumes must equal."""
    return RnnotatorPipeline().run(ds_single, PipelineConfig(**CONFIG))


class TestCheckpointStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = ("digest", "ray", 35)
        assert store.get_unit(key) is None
        record = UnitCheckpoint(result={"x": 1}, usage="usage", wall_seconds=2.5)
        assert store.put_unit(key, record) is True
        got = store.get_unit(key)
        assert got.result == {"x": 1}
        assert got.usage == "usage"
        assert got.wall_seconds == 2.5
        assert (store.stats.hits, store.stats.misses, store.stats.puts) == (
            1, 1, 1,
        )
        assert store.unit_count() == 1

    def test_first_write_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = ("k",)
        assert store.put_unit(key, UnitCheckpoint(result="first", usage=None))
        assert not store.put_unit(
            key, UnitCheckpoint(result="second", usage=None)
        )
        assert store.get_unit(key).result == "first"

    def test_reopen_persists(self, tmp_path):
        CheckpointStore(tmp_path).put_unit(
            ("k",), UnitCheckpoint(result=42, usage=None)
        )
        assert CheckpointStore(tmp_path).get_unit(("k",)).result == 42

    def test_corrupt_file_is_a_miss_and_removed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = ("k",)
        store.put_unit(key, UnitCheckpoint(result=1, usage=None))
        path = store._path("units", key)
        path.write_bytes(b"\x00garbage")
        assert store.get_unit(key) is None
        assert not path.exists()
        # ... and the slot is free for a fresh record.
        assert store.put_unit(key, UnitCheckpoint(result=2, usage=None))
        assert store.get_unit(key).result == 2

    def test_truncated_file_is_a_miss(self, tmp_path):
        """A torn write (killed mid-write without the atomic rename)
        must read as a miss, not crash the resume."""
        store = CheckpointStore(tmp_path)
        key = ("k",)
        store.put_unit(key, UnitCheckpoint(result=1, usage=None))
        path = store._path("units", key)
        path.write_bytes(path.read_bytes()[:10])
        assert store.get_unit(key) is None

    def test_version_skew_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = ("k",)
        path = store._path("units", key)
        path.write_bytes(
            pickle.dumps(
                {"format": FORMAT_VERSION + 1, "key": repr(key), "record": 1}
            )
        )
        assert store.get_unit(key) is None
        assert not path.exists()

    def test_key_repr_mismatch_is_a_miss(self, tmp_path):
        """A (vanishingly unlikely) digest collision must not replay the
        wrong unit's outcome."""
        store = CheckpointStore(tmp_path)
        key = ("k",)
        path = store._path("units", key)
        path.write_bytes(
            pickle.dumps(
                {"format": FORMAT_VERSION, "key": repr(("other",)),
                 "record": UnitCheckpoint(result=1, usage=None)}
            )
        )
        assert store.get_unit(key) is None

    def test_stage_records(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.get_stage(("run", "stage-in")) is None
        store.put_stage(("run", "stage-in"), {"ttc": 1.0})
        assert store.get_stage(("run", "stage-in")) == {"ttc": 1.0}
        assert store.stage_count() == 1

    def test_key_id_stable_and_distinct(self):
        a = checkpoint_key_id(("digest", "ray", 35))
        assert a == checkpoint_key_id(("digest", "ray", 35))
        assert a != checkpoint_key_id(("digest", "ray", 41))
        assert len(a) == 40


class TestKillAndResume:
    def test_resume_is_bit_identical(self, ds_single, tmp_path):
        baseline = RnnotatorPipeline().run(ds_single, PipelineConfig(**CONFIG))

        ckdir = str(tmp_path / "ck")
        killer = RnnotatorPipeline(
            faults=FaultPlan(abort_after_stage="transcript-assembly")
        )
        with pytest.raises(PipelineKilled):
            killer.run(ds_single, PipelineConfig(checkpoint_dir=ckdir, **CONFIG))

        resumed = RnnotatorPipeline().run(
            ds_single, PipelineConfig(checkpoint_dir=ckdir, **CONFIG)
        )

        # It actually resumed: preprocess + the two fan-out units replay.
        assert resumed.checkpoint_stats["unit_hits"] == 3
        assert resumed.checkpoint_stats["unit_puts"] >= 2  # merge + quant

        # Bit-identical functional output ...
        assert [t.seq for t in resumed.transcripts] == [
            t.seq for t in baseline.transcripts
        ]
        # ... virtual timing and cost ...
        assert resumed.total_ttc == baseline.total_ttc
        assert resumed.total_cost == baseline.total_cost
        assert [
            (s.name, s.started_at, s.finished_at) for s in resumed.stages
        ] == [
            (s.name, s.started_at, s.finished_at) for s in baseline.stages
        ]
        # ... and usage records.
        for key in baseline.assemblies:
            assert (
                resumed.assemblies[key].usage.phases
                == baseline.assemblies[key].usage.phases
            )

    def test_kill_at_earlier_stage_resumes_too(self, ds_single, tmp_path):
        ckdir = str(tmp_path / "ck")
        with pytest.raises(PipelineKilled):
            RnnotatorPipeline(
                faults=FaultPlan(abort_after_stage="pre-processing")
            ).run(ds_single, PipelineConfig(checkpoint_dir=ckdir, **CONFIG))
        resumed = RnnotatorPipeline().run(
            ds_single, PipelineConfig(checkpoint_dir=ckdir, **CONFIG)
        )
        assert resumed.checkpoint_stats["unit_hits"] == 1  # preprocess only
        assert len(resumed.transcripts) > 5

    @pytest.mark.parametrize("stage", STAGE_NAMES)
    def test_kill_after_any_stage_resumes_identically(
        self, ds_single, tmp_path, baseline, stage
    ):
        config = PipelineConfig(checkpoint_dir=str(tmp_path / "ck"), **CONFIG)
        with pytest.raises(PipelineKilled, match=stage):
            RnnotatorPipeline(faults=FaultPlan(abort_after_stage=stage)).run(
                ds_single, config
            )
        resumed = RnnotatorPipeline().run(ds_single, config)
        assert resumed.config.fingerprint() == baseline.config.fingerprint()
        assert [t.seq for t in resumed.transcripts] == [
            t.seq for t in baseline.transcripts
        ]
        assert [(s.name, s.ttc) for s in resumed.stages] == [
            (s.name, s.ttc) for s in baseline.stages
        ]
        assert resumed.checkpoint_stats["stages_recorded"] == len(STAGE_NAMES)

    def test_unknown_abort_stage_is_rejected(self):
        """A misspelt drill must not "pass" by never firing."""
        with pytest.raises(ValueError, match="no-such-stage"):
            FaultPlan(abort_after_stage="no-such-stage")
        for name in STAGE_NAMES:
            assert FaultPlan(abort_after_stage=name).abort_after_stage == name


class TestTornCheckpointDrill:
    def test_torn_assembly_record_recomputes_only_its_unit(
        self, ds_single, tmp_path, baseline
    ):
        """A record cut off mid-file (a copy or disk that failed under it,
        not the store's own atomic write) is a miss: the resume recomputes
        that one unit, rewrites its record and matches the uninterrupted
        run — no hang, no error, no replay of half a pickle.  No in-memory
        cache may stand in for the recompute."""
        config = PipelineConfig(checkpoint_dir=str(tmp_path / "ck"), **CONFIG)
        with use_assembly_cache(None), use_kmer_table_cache(None):
            RnnotatorPipeline().run(ds_single, config)
        units = sorted((tmp_path / "ck" / "units").glob("*.pkl"))
        keys = {path: pickle.loads(path.read_bytes())["key"] for path in units}
        (torn,) = [  # assembly keys are (digest, assembler, params, ranks)
            path
            for path, key in keys.items()
            if not key.startswith("('stage:") and "AssemblyParams(k=41," in key
        ]
        whole = torn.read_bytes()
        torn.write_bytes(whole[: len(whole) // 2])

        with time_limit(120), use_assembly_cache(None), use_kmer_table_cache(None):
            resumed = RnnotatorPipeline().run(ds_single, config)

        assert fingerprint(resumed) == fingerprint(baseline)
        assert resumed.checkpoint_stats == {
            "unit_hits": len(units) - 1,
            "unit_misses": 1,
            "unit_puts": 1,
            "stages_recorded": len(STAGE_NAMES),
        }
        assert pickle.loads(torn.read_bytes())["key"] == keys[torn]


class TestPreemptionEndToEnd:
    def test_s3_recovers_from_preemption_with_identical_output(
        self, ds_single
    ):
        baseline = RnnotatorPipeline().run(ds_single, PipelineConfig(**CONFIG))
        tracer = Tracer()
        chaos = RnnotatorPipeline(tracer=tracer, faults=PREEMPT).run(
            ds_single,
            PipelineConfig(
                scheme=MatchingScheme.S3, unit_max_restarts=2, **CONFIG
            ),
        )
        assert tracer.metrics.counters["vms_preempted"].value == 1
        assert tracer.metrics.counters["units_preempted"].value >= 1
        assert tracer.metrics.counters["units_restarted"].value >= 1
        assert [t.seq for t in chaos.transcripts] == [
            t.seq for t in baseline.transcripts
        ]

    def test_preemption_without_restart_budget_fails_loudly(self, ds_single):
        """The original bug surfaced here as a silently truncated
        assembly set; now the run fails with an explicit error."""
        with pytest.raises(PipelineError, match="assembly jobs failed"):
            RnnotatorPipeline(faults=PREEMPT).run(
                ds_single, PipelineConfig(unit_max_restarts=0, **CONFIG)
            )

    def test_preempt_plus_checkpoint_compose(self, ds_single, tmp_path):
        """A preempted unit's retry replays the checkpoint its first
        completion never wrote — but a previously *completed* unit's
        checkpoint survives preemption chaos on a later resume."""
        ckdir = str(tmp_path / "ck")
        baseline = RnnotatorPipeline().run(ds_single, PipelineConfig(**CONFIG))
        chaos = RnnotatorPipeline(faults=PREEMPT).run(
            ds_single,
            PipelineConfig(
                checkpoint_dir=ckdir,
                scheme=MatchingScheme.S3,
                unit_max_restarts=2,
                **CONFIG,
            ),
        )
        assert [t.seq for t in chaos.transcripts] == [
            t.seq for t in baseline.transcripts
        ]
        assert chaos.checkpoint_stats["unit_puts"] == 5


class TestConfigValidation:
    def test_negative_restarts_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(unit_max_restarts=-1)

    def test_negative_preempt_offset_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(preempt_at=(-1.0,))
