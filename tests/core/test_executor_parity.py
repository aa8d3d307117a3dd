"""Executor-backend parity: serial, thread and process pools must give
bit-identical assembly results and virtual TTCs for the same fan-out.

The executor backend only changes *where and when* the real Python
workloads run on the host; everything priced on the virtual clock is
derived from the deterministic measured usage, so all three backends
must agree exactly — with the jobs at one k sharing one spectrum and the
graph products derived from it before the fan-out (threads read the
parent's objects, forked pool workers the copies they inherited), at any
worker count and under any ``PYTHONHASHSEED``.  Also covers picklability of
:class:`repro.core.multikmer.AssemblyWorkload` (the process backend
round-trips it and its results through pickle).
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.assembly.base import AssemblyParams
from repro.assembly.sweep import KmerTableCache, build_spectra, use_kmer_table_cache
from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.ec2 import EC2Region
from repro.core.assembly_cache import AssemblyCache, use_assembly_cache
from repro.core.multikmer import AssemblyWorkload, make_assembly_workload
from repro.core.preprocess import preprocess
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.pilot.description import PilotDescription, UnitDescription
from repro.pilot.manager import PilotManager, UnitManager
from repro.pilot.states import UnitState
from repro.seq.datasets import tiny_dataset
from repro.seq.readstore import ReadStore

ROOT = Path(__file__).resolve().parents[2]

JOBS = [
    ("ray", 31),
    ("ray", 37),
    ("abyss", 31),
    ("abyss", 37),
    ("velvet", 31),
    ("velvet", 37),
]


@pytest.fixture(scope="module")
def pre_store(ds_single):
    """The pre-processed reads, encoded once for every workload here."""
    store = ReadStore.from_reads(preprocess(ds_single.run.all_reads()).reads)
    yield store
    store.close()


def fanout_descs(pre_store, ds, spectra):
    """One unit per job; as in the pipeline, each k's one spectrum is
    handed to every job at that k, with the partition Ray and ABySS read
    and the table Velvet reads derived ahead and kept."""
    by_k = {sp.k: sp for sp in spectra}
    for sp in spectra:
        min_count = AssemblyParams(k=sp.k).min_count
        with sp.keeping():
            sp.partition(8, min_count)
            sp.table(min_count)
    descs = []
    for name, k in JOBS:
        work = make_assembly_workload(
            name,
            pre_store,
            AssemblyParams(k=k, min_contig_length=100),
            n_ranks=8,
            dataset=ds,
            spectrum=by_k[k],
        )
        descs.append(
            UnitDescription(
                name=f"{name}_k{k}",
                work=work,
                cores=8,
                scale=1.0,
                stage="transcript-assembly",
                tags={"assembler": name, "k": k},
            )
        )
    return descs


def run_fanout(pre_store, ds, executor):
    """Every job computed (no assembly cache); the spectra are closed,
    and their shared products dropped, when the fan-out ends."""
    clock = SimClock()
    events = EventQueue(clock)
    region = EC2Region(clock)
    pm = PilotManager(region, events)
    pilot = pm.launch(pm.submit(PilotDescription("P", "c3.2xlarge", 4)))
    um = UnitManager(events, executor=executor)
    um.add_pilot(pilot)
    spectra = build_spectra(pre_store, {k for _, k in JOBS})
    try:
        with use_assembly_cache(None):
            units = um.submit_units(fanout_descs(pre_store, ds, spectra))
            um.run(units)
            um.close()
    finally:
        for sp in spectra:
            sp.close()
    assert all(u.state is UnitState.DONE for u in units)
    return units, clock.now


class TestWorkloadPicklability:
    def test_assembly_workload_roundtrips(self, pre_store, ds_single):
        work = make_assembly_workload(
            "velvet", pre_store, AssemblyParams(k=31), n_ranks=1,
            dataset=ds_single,
        )
        assert isinstance(work, AssemblyWorkload)
        clone = pickle.loads(pickle.dumps(work))
        assert clone == work

    def test_pickled_workload_gives_identical_output(self, pre_store, ds_single):
        work = make_assembly_workload(
            "velvet", pre_store, AssemblyParams(k=31), n_ranks=1,
            dataset=ds_single,
        )
        clone = pickle.loads(pickle.dumps(work))
        result, usage = work()
        result2, usage2 = clone()
        assert result.contigs == result2.contigs
        assert usage == usage2


class TestBackendParity:
    @pytest.fixture(scope="class")
    def serial_run(self, pre_store, ds_single):
        return run_fanout(pre_store, ds_single, "serial")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_identical_to_serial(self, backend, serial_run, pre_store, ds_single):
        base_units, base_now = serial_run
        units, now = run_fanout(pre_store, ds_single, backend)
        assert now == base_now  # same total virtual time
        for u, b in zip(units, base_units):
            assert u.description.name == b.description.name
            # bit-identical assembly outputs ...
            assert u.result.contigs == b.result.contigs
            assert u.result.stats == b.result.stats
            # ... identical extrapolated usage and virtual timeline.
            assert u.usage == b.usage
            assert u.started_at == b.started_at
            assert u.finished_at == b.finished_at
            assert u.ttc == b.ttc
            # real wall-time was recorded by every backend
            assert u.real_seconds is not None and u.real_seconds > 0

    def test_serial_run_is_deterministic(self, serial_run, pre_store, ds_single):
        base_units, base_now = serial_run
        units, now = run_fanout(pre_store, ds_single, "serial")
        assert now == base_now
        for u, b in zip(units, base_units):
            assert u.result.contigs == b.result.contigs
            assert u.ttc == b.ttc


#: The MAMP fan-out: Ray and ABySS read a spectrum's partition, Velvet its
#: table.
MAMP = ("ray", "abyss", "velvet")
#: Trinity alone: the one assembler that builds its own table and calls
#: ``KmerTable.drop_below`` on it.
TRINITY = ("trinity",)


def mamp_digest(
    executor: str = "serial",
    workers: int | None = None,
    assemblers: tuple[str, ...] = MAMP,
) -> str:
    """sha256 over one cold run of ``assemblers`` at two ks (MAMP by
    default) on ``executor`` with ``workers``: every assembly's contigs,
    stats and usage, every stage's TTC, the run's TTC and cost, and the
    merged transcripts."""
    config = PipelineConfig(
        assemblers=assemblers,
        kmer_list=(25, 31),
        executor=executor,
        executor_workers=workers,
    )
    with use_assembly_cache(AssemblyCache()), use_kmer_table_cache(
        KmerTableCache()
    ):
        res = RnnotatorPipeline().run(tiny_dataset(seed=0), config)
    payload = {
        "assemblies": [
            [
                name,
                k,
                [[c.seq, repr(c.coverage)] for c in r.contigs],
                r.stats,
                [asdict(phase) for phase in r.usage.phases],
                r.usage.peak_rank_memory_bytes,
            ]
            for (name, k), r in sorted(res.assemblies.items())
        ],
        "stages": [[s.name, repr(s.ttc)] for s in res.stages],
        "ttc_cost": [repr(res.total_ttc), repr(res.total_cost)],
        "transcripts": [c.seq for c in res.transcripts],
    }
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def serial_digest():
    return mamp_digest()


@pytest.fixture(scope="module")
def trinity_serial_digest():
    return mamp_digest(assemblers=TRINITY)


POOLS = pytest.mark.parametrize(
    "executor, workers",
    [(e, w) for e in ("thread", "process") for w in (1, 2, 3)],
)


class TestWorkerCount:
    @POOLS
    def test_mamp_fingerprint_equals_serial(self, serial_digest, executor, workers):
        """ROADMAP aim 3: the MAMP pipeline's fingerprint on a pool
        backend at 1, 2 and 3 workers equals the serial one."""
        assert mamp_digest(executor, workers) == serial_digest

    @POOLS
    def test_trinity_fingerprint_equals_serial(
        self, trinity_serial_digest, executor, workers
    ):
        """The same for Trinity alone."""
        assert mamp_digest(executor, workers, TRINITY) == trinity_serial_digest


def hash_seed_digests(assemblers: tuple[str, ...]) -> list[str]:
    """:func:`mamp_digest` of ``assemblers`` in fresh interpreters under
    PYTHONHASHSEED 0 and 1."""
    digests = []
    for seed in ("0", "1"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from tests.core.test_executor_parity import mamp_digest;"
                f"print(mamp_digest(assemblers={assemblers!r}))",
            ],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split()[-1])
    return digests


class TestHashSeed:
    def test_mamp_fingerprint_independent_of_hash_seed(self, serial_digest):
        """ROADMAP aim 3: the MAMP pipeline's fingerprint is the same
        under PYTHONHASHSEED 0 and 1 (fresh interpreters) and in this
        process, whatever its seed."""
        assert hash_seed_digests(MAMP) == [serial_digest] * 2

    def test_trinity_fingerprint_independent_of_hash_seed(
        self, trinity_serial_digest
    ):
        """The same for Trinity alone."""
        assert hash_seed_digests(TRINITY) == [trinity_serial_digest] * 2
