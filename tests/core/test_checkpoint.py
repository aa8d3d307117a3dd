"""Durable checkpoint/resume: store semantics and end-to-end parity.

The headline property (ISSUE): a pipeline killed mid-run and re-run
against the same checkpoint directory produces results bit-identical to
an uninterrupted run — same contigs, same usage, same virtual TTCs and
cost — because replayed units travel the identical dispatch/SGE/pricing
path with only the computation substituted.
"""

import json
import pickle
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any

import pytest

from repro.assembly.sweep import use_kmer_table_cache
from repro.core.assembly_cache import use_assembly_cache
from repro.core import checkpoint
from repro.core.checkpoint import FORMAT_VERSION, CheckpointStore, checkpoint_key_id
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
from repro.obs.__main__ import main as obs_main
from repro.obs.export import write_jsonl
from repro.parallel.executor import WorkloadOutcome
from tests.core.test_fused_pipeline import _fingerprint as fingerprint
from tests.core.test_store_lifetime import time_limit

CONFIG = dict(assemblers=("ray",), kmer_list=(35, 41))
#: One spot reclaim a virtual second into the assembly fan-out.
PREEMPT = FaultPlan(preempt_at=(1.0,))


def format_1_bytes(key: str, outcome: WorkloadOutcome) -> bytes:
    """The record of the key whose repr is ``key`` as format 1 wrote it: a ``UnitCheckpoint`` of the
    outcome's result, usage, wall seconds and worker trace, a class the
    store no longer has."""

    @dataclass
    class UnitCheckpoint:
        result: Any
        usage: Any
        wall_seconds: float = 0.0
        worker_trace: Any = None

    UnitCheckpoint.__module__ = checkpoint.__name__
    UnitCheckpoint.__qualname__ = "UnitCheckpoint"
    record = UnitCheckpoint(
        outcome.result, outcome.usage, outcome.wall_seconds, outcome.worker_trace
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checkpoint, "UnitCheckpoint", UnitCheckpoint, raising=False)
        return pickle.dumps({"format": 1, "key": key, "record": record})


@pytest.fixture(scope="module")
def baseline(ds_single):
    """The uninterrupted, uncheckpointed run resumes must equal."""
    return RnnotatorPipeline().run(ds_single, PipelineConfig(**CONFIG))


class TestCheckpointStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = ("digest", "ray", 35)
        assert store.get_unit(key) is None
        record = WorkloadOutcome(result={"x": 1}, usage="usage", wall_seconds=2.5)
        assert store.put_unit(key, record) is True
        got = store.get_unit(key)
        assert got.result == {"x": 1}
        assert got.usage == "usage"
        assert got.wall_seconds == 2.5
        assert (store.stats.hits, store.stats.misses, store.stats.puts) == (
            1, 1, 1,
        )

    def test_first_write_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = ("k",)
        assert store.put_unit(key, WorkloadOutcome(result="first", usage=None))
        assert not store.put_unit(
            key, WorkloadOutcome(result="second", usage=None)
        )
        assert store.get_unit(key).result == "first"

    def test_reopen_persists(self, tmp_path):
        CheckpointStore(tmp_path).put_unit(
            ("k",), WorkloadOutcome(result=42, usage=None)
        )
        assert CheckpointStore(tmp_path).get_unit(("k",)).result == 42

    def test_corrupt_file_is_a_miss_and_removed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = ("k",)
        store.put_unit(key, WorkloadOutcome(result=1, usage=None))
        path = store._path(key)
        path.write_bytes(b"\x00garbage")
        assert store.get_unit(key) is None
        assert not path.exists()
        # ... and the slot is free for a fresh record.
        assert store.put_unit(key, WorkloadOutcome(result=2, usage=None))
        assert store.get_unit(key).result == 2

    def test_truncated_file_is_a_miss(self, tmp_path):
        """A torn write (killed mid-write without the atomic rename)
        must read as a miss, not crash the resume."""
        store = CheckpointStore(tmp_path)
        key = ("k",)
        store.put_unit(key, WorkloadOutcome(result=1, usage=None))
        path = store._path(key)
        path.write_bytes(path.read_bytes()[:10])
        assert store.get_unit(key) is None

    def test_version_skew_is_a_miss(self, tmp_path):
        """A newer format and format 1, whose ``UnitCheckpoint`` no longer
        unpickles, are both misses, and removed."""
        store = CheckpointStore(tmp_path)
        key = ("k",)
        path = store._path(key)
        for skewed in (
            pickle.dumps({"format": FORMAT_VERSION + 1, "key": repr(key), "record": 1}),
            format_1_bytes(repr(key), WorkloadOutcome(result=1, usage=None)),
        ):
            path.write_bytes(skewed)
            assert store.get_unit(key) is None
            assert not path.exists()
        assert store.stats.misses == 2

    def test_key_repr_mismatch_is_a_miss(self, tmp_path):
        """A (vanishingly unlikely) digest collision must not replay the
        wrong unit's outcome."""
        store = CheckpointStore(tmp_path)
        key = ("k",)
        path = store._path(key)
        path.write_bytes(
            pickle.dumps(
                {"format": FORMAT_VERSION, "key": repr(("other",)),
                 "record": WorkloadOutcome(result=1, usage=None)}
            )
        )
        assert store.get_unit(key) is None

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

    def test_a_resume_merges_the_stored_worker_traces(self, ds_single, tmp_path):
        """A replay is trace-transparent: under a pool backend every
        replayed fan-out unit's stored worker trace is merged again, so the
        resumed run carries the worker spans of an uninterrupted one."""
        config = PipelineConfig(executor="thread", **CONFIG)
        resuming = replace(config, checkpoint_dir=str(tmp_path / "ck"))

        def worker_spans(tracer):
            return Counter(
                (s.name, s.attrs.get("assembler"), s.attrs.get("k"))
                for s in tracer.spans
                if s.process.startswith("worker-")
            )

        whole, resumed = Tracer(), Tracer()
        with use_assembly_cache(None), use_kmer_table_cache(None):
            RnnotatorPipeline(tracer=whole).run(ds_single, config)
            with pytest.raises(PipelineKilled):
                RnnotatorPipeline(
                    tracer=Tracer(),
                    faults=FaultPlan(abort_after_stage="transcript-assembly"),
                ).run(ds_single, resuming)
            result = RnnotatorPipeline(tracer=resumed).run(ds_single, resuming)
        assert result.checkpoint_stats["unit_hits"] == 3
        assert worker_spans(resumed) == worker_spans(whole)
        assert sum(worker_spans(whole).values()) == 2 * len(CONFIG["kmer_list"])

    def test_a_replayed_worker_trace_lands_inside_the_resumed_run(
        self, ds_single, tmp_path, capsys
    ):
        """A stored worker trace was stamped by the killed run's clock; a
        replay re-bases it onto its replay dispatch, keeping each span's
        duration and marking it ``replayed``, so the resumed run's fold
        keeps it: ``obs diff`` against an uninterrupted trace misses no
        worker span, and ``obs report`` counts them."""
        config = PipelineConfig(executor="thread", **CONFIG)
        resuming = replace(config, checkpoint_dir=str(tmp_path / "ck"))
        whole, killed, resumed = Tracer(), Tracer(), Tracer()
        with use_assembly_cache(None), use_kmer_table_cache(None):
            RnnotatorPipeline(tracer=whole).run(ds_single, config)
            with pytest.raises(PipelineKilled):
                RnnotatorPipeline(
                    tracer=killed,
                    faults=FaultPlan(abort_after_stage="transcript-assembly"),
                ).run(ds_single, resuming)
            RnnotatorPipeline(tracer=resumed).run(ds_single, resuming)

        def worker_spans(tracer):
            return sorted(
                (s for s in tracer.spans if s.process.startswith("worker-")),
                key=lambda s: (s.thread, s.name),
            )

        (root,) = [s for s in resumed.spans if s.category == "pipeline"]
        replayed, stored = worker_spans(resumed), worker_spans(killed)
        assert [s.name for s in replayed] == [s.name for s in stored]
        for new, old in zip(replayed, stored):
            assert new.attrs == {**old.attrs, "replayed": True}
            assert new.r_start >= root.r_start
            assert new.r_duration == pytest.approx(old.r_duration, abs=1e-9)

        whole_path = write_jsonl(whole, tmp_path / "whole.jsonl")
        resumed_path = write_jsonl(resumed, tmp_path / "resumed.jsonl")
        capsys.readouterr()
        obs_main(["diff", str(whole_path), str(resumed_path), "--json"])
        missing = json.loads(capsys.readouterr().out)["missing_names"]
        assert not [key for key in missing if key[1] in ("worker", "workload")]
        obs_main(["report", str(resumed_path)])
        report = capsys.readouterr().out
        n_jobs = len(CONFIG["kmer_list"])
        assert re.search(rf"^  worker +{n_jobs}$", report, re.M)
        assert re.search(rf"^  workload +{n_jobs}$", report, re.M)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_a_resume_replays_the_records_of_inline_workloads(
        self, ds_single, tmp_path, capsys, executor
    ):
        """An inline workload (every unit under the serial backend, the
        single-unit stages under every backend) records straight into the
        run's tracer, and its stored outcome keeps those records, so a
        replay re-emits them: ``obs diff`` against an uninterrupted trace
        misses only the spans a resume does not redo (the spectrum build,
        which replayed jobs skip; pilot launches, named by a process-wide
        counter), and every ``phase`` event is there."""
        config = PipelineConfig(executor=executor, **CONFIG)
        resuming = replace(config, checkpoint_dir=str(tmp_path / "ck"))
        whole, resumed = Tracer(), Tracer()
        with use_assembly_cache(None), use_kmer_table_cache(None):
            RnnotatorPipeline(tracer=whole).run(ds_single, config)
            with pytest.raises(PipelineKilled):
                RnnotatorPipeline(
                    tracer=Tracer(),
                    faults=FaultPlan(abort_after_stage="transcript-assembly"),
                ).run(ds_single, resuming)
            result = RnnotatorPipeline(tracer=resumed).run(ds_single, resuming)
        assert result.checkpoint_stats["unit_hits"] == 3

        whole_path = write_jsonl(whole, tmp_path / "whole.jsonl")
        resumed_path = write_jsonl(resumed, tmp_path / "resumed.jsonl")
        capsys.readouterr()
        obs_main(["diff", str(whole_path), str(resumed_path), "--json"])
        missing = json.loads(capsys.readouterr().out)["missing_names"]
        assert [
            key for key in missing
            if not key[2].startswith(("launch:pilot.", "spectrum."))
        ] == []

        def phases(tracer):
            return Counter(e.attrs["phase"] for e in tracer.events if e.name == "phase")

        assert sum(phases(whole).values()) == 14
        assert phases(resumed) == phases(whole)
        (root,) = [s for s in resumed.spans if s.category == "pipeline"]
        replayed = [s for s in resumed.spans if s.attrs.get("replayed")]
        assert replayed
        assert all(s.r_start >= root.r_start for s in replayed)

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

    @pytest.mark.parametrize(
        "faults", [FaultPlan(), FaultPlan(straggle_unit="ray", straggle_seconds=1e-3)]
    )
    def test_a_resume_at_another_scale_prices_like_a_fresh_run(
        self, ds_single, tmp_path, faults
    ):
        """An assembly record holds its raw result, not the old run's
        extrapolation: resumed over the same reads at twice the data set
        scale, every replayed unit is priced at the new scale, also when
        the straggler drill wraps its workload."""
        config = PipelineConfig(assemblers=("ray",), kmer_list=(25,))
        scaled = replace(ds_single, scale=2 * ds_single.scale)
        resuming = replace(config, checkpoint_dir=str(tmp_path / "ck"))
        with use_assembly_cache(None), use_kmer_table_cache(None):
            RnnotatorPipeline().run(ds_single, resuming)
            resumed = RnnotatorPipeline(faults=faults).run(scaled, resuming)
            fresh = RnnotatorPipeline().run(scaled, config)
        assert resumed.checkpoint_stats["unit_hits"] == 4
        assert [(s.name, s.ttc) for s in resumed.stages] == [
            (s.name, s.ttc) for s in fresh.stages
        ]
        assert resumed.total_ttc == fresh.total_ttc == pytest.approx(444.878, abs=1e-3)
        assert resumed.total_cost == fresh.total_cost

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
        }
        assert pickle.loads(torn.read_bytes())["key"] == keys[torn]

    def test_a_format_1_record_recomputes_only_its_unit(
        self, ds_single, tmp_path, baseline
    ):
        """A record in the old ``UnitCheckpoint`` layout is a miss: the
        resume recomputes that one unit bit-identically and rewrites its
        record at the current format."""
        config = PipelineConfig(checkpoint_dir=str(tmp_path / "ck"), **CONFIG)
        with use_assembly_cache(None), use_kmer_table_cache(None):
            RnnotatorPipeline().run(ds_single, config)
        units = sorted((tmp_path / "ck" / "units").glob("*.pkl"))
        envelopes = {path: pickle.loads(path.read_bytes()) for path in units}
        (old,) = [
            path
            for path, envelope in envelopes.items()
            if not envelope["key"].startswith("('stage:")
            and "AssemblyParams(k=41," in envelope["key"]
        ]
        old.write_bytes(format_1_bytes(envelopes[old]["key"], envelopes[old]["record"]))

        with use_assembly_cache(None), use_kmer_table_cache(None):
            resumed = RnnotatorPipeline().run(ds_single, config)

        assert fingerprint(resumed) == fingerprint(baseline)
        assert resumed.checkpoint_stats == {
            "unit_hits": len(units) - 1,
            "unit_misses": 1,
            "unit_puts": 1,
        }
        rewritten = pickle.loads(old.read_bytes())
        assert rewritten["format"] == FORMAT_VERSION
        assert isinstance(rewritten["record"], WorkloadOutcome)


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
