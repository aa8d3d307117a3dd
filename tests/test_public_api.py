"""The public API surface: every documented export imports and resolves."""

import importlib
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro

#: The ``src/`` this process imported ``repro`` from: a fresh interpreter
#: below runs the same tree, a mutated copy included.
_SRC = Path(repro.__file__).resolve().parents[1]

SUBPACKAGES = [
    "repro.seq",
    "repro.parallel",
    "repro.cloud",
    "repro.pilot",
    "repro.assembly",
    "repro.core",
    "repro.evaluation",
    "repro.bench",
    "repro.obs",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} must be documented"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.{symbol} missing"
        obj = getattr(mod, symbol)
        assert obj is not None


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_all_lists_subpackages():
    assert set(repro.__all__) == {s.split(".")[1] for s in SUBPACKAGES}


def test_key_entry_points_importable():
    from repro.core import PipelineConfig, RnnotatorPipeline  # noqa: F401
    from repro.seq import generate_dataset  # noqa: F401
    from repro.evaluation import evaluate  # noqa: F401
    from repro.assembly import get_assembler  # noqa: F401
    from repro.bench import calibrated_cost_model  # noqa: F401


def test_public_classes_have_docstrings():
    from repro.core.rnnotator import PipelineConfig, PipelineResult, RnnotatorPipeline
    from repro.pilot.manager import PilotManager, UnitManager
    from repro.cloud.sge import SGEScheduler
    from repro.parallel.comm import SimWorld

    for cls in (PipelineConfig, PipelineResult, RnnotatorPipeline,
                PilotManager, UnitManager, SGEScheduler, SimWorld):
        assert cls.__doc__ and len(cls.__doc__) > 10


_HYGIENE_SCRIPT = """
import importlib, sys
for name in {subpackages!r}:
    importlib.import_module(name)
from repro.core import PipelineConfig, RnnotatorPipeline
from repro.seq.datasets import tiny_dataset
result = RnnotatorPipeline().run(
    tiny_dataset(seed=1, coverage_boost=0.25),
    PipelineConfig(assemblers=("velvet",), kmer_list=(25,), executor="serial"),
)
assert result.transcripts
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))
assert not heavy, heavy
"""


def test_runtime_imports_neither_scipy_nor_networkx():
    """numpy is the only runtime dependency: importing every subpackage
    and running a pipeline (cleanup included) must not load the two
    packages that survive as test oracles.  A fresh interpreter, because
    this test process has them loaded already.  No wall-clock threshold:
    pipebench's ``setup_s`` owns timing."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _HYGIENE_SCRIPT.format(subpackages=["repro"] + SUBPACKAGES)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


_LAZY_OBS_SCRIPT = """
import sys
import repro.core.rnnotator
lazy = {"repro.obs.alerts", "repro.obs.live", "repro.obs.export"}
assert not lazy & set(sys.modules), sorted(lazy & set(sys.modules))
from repro.obs import Tracer, write_jsonl  # noqa: F401 - first use loads
Tracer(alert_rules=("straggler",))
assert {"repro.obs.alerts", "repro.obs.export"} <= set(sys.modules)
"""


def test_pipeline_import_loads_no_live_telemetry():
    """The alert engine, the live sinks and the exporters are for runs
    that ask for them: importing the pipeline loads none, first use
    does."""
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_OBS_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


#: Loaded only by the runs that use them: pool machinery, checkpoints,
#: spot preemption, elasticity, Trinity, differential expression, FASTA.
_ON_DEMAND = (
    "multiprocessing",
    "multiprocessing.shared_memory",
    "concurrent.futures.process",
    "repro.core.checkpoint",
    "repro.cloud.spot",
    "repro.pilot.elastic",
    "repro.assembly.trinity",
    "repro.core.diffexpr",
    "repro.seq.fasta",
)

_IMPORT_BUDGET_SCRIPT = """
import sys
import repro.core.rnnotator
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.seq.datasets import tiny_dataset
config = PipelineConfig(
    assemblers=("ray", "abyss", "velvet", "contrail"), kmer_list=(25,),
    executor={executor!r},
)
result = RnnotatorPipeline().run(tiny_dataset(seed=1, coverage_boost=0.25), config)
assert result.transcripts
print(sorted(set({modules!r}) & set(sys.modules)))
"""

_ASSEMBLERS = tuple(
    f"repro.assembly.{name}" for name in ("abyss", "contrail", "ray", "velvet")
)


def _loaded_after_a_run(executor, modules):
    """Which of ``modules`` a fresh interpreter holds after one run."""
    script = _IMPORT_BUDGET_SCRIPT.format(executor=executor, modules=modules)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_a_serial_run_imports_only_what_it_executes():
    """Every process start pays for what it imports: a serial run of the
    four pipeline assemblers loads none of the modules only other runs
    use."""
    assert _loaded_after_a_run("serial", _ON_DEMAND) == "[]"


def test_a_process_run_loads_the_pool_and_the_assemblers_in_the_parent():
    """The budget is about placement: the pool backend loads what it runs
    on, and the parent loads every computing job's assembler before the
    fork, so no worker compiles one per run."""
    modules = tuple(sorted(_ON_DEMAND[:3] + _ASSEMBLERS))
    assert _loaded_after_a_run("process", modules) == str(list(modules))


def test_read_records_hold_no_instance_dict():
    """The simulator's records are slots dataclasses: no ``__dict__``,
    and equality, hashing, immutability and ``replace`` as before."""
    import dataclasses

    from repro.seq.datasets import tiny_dataset

    run = tiny_dataset(seed=1).run
    for record in (run.reads[0], run.origins[0]):
        assert not hasattr(record, "__dict__"), type(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)
        copy = dataclasses.replace(record)
        assert copy == record and hash(copy) == hash(record)
    read = dataclasses.replace(run.reads[0], id="x")
    assert (read.id, read.seq) == ("x", run.reads[0].seq)


def test_one_module_owns_the_shared_memory_lifecycle():
    """Segments, their finalizers and the resource-tracker workaround
    live in ``repro.seq.sharedarrays`` and nowhere else under ``src/``
    (docstrings count: other modules point there, they do not restate)."""
    src = Path(__file__).resolve().parents[1] / "src"
    lifecycle = re.compile(
        r"import.*shared_memory|SharedMemory\(|weakref\.finalize|resource_tracker"
    )
    owners = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if lifecycle.search(path.read_text())
    ]
    assert owners == ["repro/seq/sharedarrays.py"]


def test_the_benchmark_patch_points_are_inert():
    """Three names stay only so the end-to-end benchmark can rebind them;
    nothing under ``src/`` mentions them past their definitions, and each
    is ``None``, so a call would fail loudly rather than build anything."""
    from repro.assembly import sweep
    from repro.core import rnnotator

    names = re.compile(
        r"\b(submit_spectra_build|PendingSpectraBuild|_merge_shard_spectra)\b"
    )
    uses = [
        (str(path.relative_to(_SRC)), line.strip())
        for path in sorted(_SRC.rglob("*.py"))
        for line in path.read_text().splitlines()
        if names.search(line)
    ]
    seam = "  # pipebench patch point; ROADMAP 1(a) removes it"
    assert uses == [
        ("repro/assembly/sweep.py", "_merge_shard_spectra = None" + seam),
        ("repro/assembly/sweep.py", "class PendingSpectraBuild:" + seam),
        ("repro/core/rnnotator.py", "submit_spectra_build = None" + seam),
    ]
    assert vars(sweep.PendingSpectraBuild)["collect"] is None
    assert sweep._merge_shard_spectra is None
    assert rnnotator.submit_spectra_build is None


def test_one_site_answers_a_content_key(tmp_path, monkeypatch):
    """A unit's content key is answered by the pilot agent alone: nothing
    else under ``src/`` reads a checkpoint record or asks the run cache
    for a result (the table cache is another store), and in a run the
    agent is the only caller of either."""
    from repro.core.assembly_cache import AssemblyCache, use_assembly_cache
    from repro.core.checkpoint import CheckpointStore
    from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
    from repro.seq.datasets import tiny_dataset

    asks = re.compile(r"\.get_unit\(|\b(?!table_cache\b)\w*cache\b(\(\))?\.get\(")
    sites = [
        str(path.relative_to(_SRC))
        for path in sorted(_SRC.rglob("*.py"))
        for line in path.read_text().splitlines()
        if asks.search(line)
    ]
    assert sites == ["repro/pilot/agent.py", "repro/pilot/agent.py"]

    callers = set()

    def recording(method):
        def wrapper(*args, **kwargs):
            callers.add(Path(sys._getframe(1).f_code.co_filename).resolve())
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(AssemblyCache, "get", recording(AssemblyCache.get))
    monkeypatch.setattr(
        CheckpointStore, "get_unit", recording(CheckpointStore.get_unit)
    )
    dataset = tiny_dataset(seed=0)
    config = PipelineConfig(assemblers=("velvet",), kmer_list=(25,))
    with use_assembly_cache(AssemblyCache()) as cache:
        cold = replace(config, checkpoint_dir=str(tmp_path / "ckpt"))
        RnnotatorPipeline().run(dataset, cold)  # both asked, both miss
        RnnotatorPipeline().run(dataset, config)  # every unit a cache hit
    assert cache.hits == 1
    assert callers == {_SRC / "repro" / "pilot" / "agent.py"}


def _sites(pattern: str) -> list[str]:
    """``src/`` modules naming ``pattern``, one entry per matching line."""
    found = re.compile(pattern)
    return [
        str(path.relative_to(_SRC))
        for path in sorted(_SRC.rglob("*.py"))
        for line in path.read_text().splitlines()
        if found.search(line)
    ]


def test_one_owner_per_cloud_decision():
    """SGE alone edits its node table (others add, test and release nodes
    through its methods), ``EC2Region`` creates VMs at one site and bills
    them at one site, and one placement policy is left."""
    assert set(_sites(r"\b(slots_free|slots_total|_try_schedule)\b")) == {
        "repro/cloud/sge.py"
    }
    ec2 = (_SRC / "repro" / "cloud" / "ec2.py").read_text()
    assert ec2.count("VM(") == 1
    assert ec2.count("charge_vm(") == 1
    assert _sites(r"\b(RoundRobinScheduler|UnitScheduler)\b") == []


def test_no_module_defines_a_name_twice():
    """No module or class body under ``src/`` binds one name in two
    statements (a def, class or assignment): the later copy silently
    replaces the earlier, so an edit to the first does nothing."""
    import ast

    twice = []
    for path in sorted(_SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        bodies = [("<module>", tree.body)] + [
            (node.name, node.body)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        ]
        for owner, body in bodies:
            names = []
            for stmt in body:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    names.append(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    names += [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    names.append(stmt.target.id)
            twice += [
                (str(path.relative_to(_SRC)), owner, name)
                for name in sorted(set(names))
                if names.count(name) > 1
            ]
    assert twice == []


def _call_sites(name: str, keyword: str | None = None) -> list[str]:
    """``src/`` modules calling ``name`` (a function or a method), one
    entry per call, counting only calls that pass ``keyword`` if given."""
    import ast

    return [
        str(path.relative_to(_SRC))
        for path in sorted(_SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
        and (keyword is None or any(kw.arg == keyword for kw in node.keywords))
    ]


def test_each_assembler_fact_has_one_owner():
    """The registry alone decides which assemblers take ``n_ranks`` and
    which refuse reads with N, one helper builds every assembler's result,
    the knobs no caller set are gone from the parameters, and the planner
    keeps no per-name coefficient table."""
    import dataclasses
    import inspect

    from repro.assembly.base import AssemblyParams
    from repro.assembly.cleanup import clean_unitigs
    from repro.assembly.contrail import ContrailAssembler
    from repro.assembly.trinity import TrinityAssembler
    from repro.assembly.velvet import VelvetAssembler
    from repro.core import planner

    assert _sites(r"\bDISTRIBUTED_ASSEMBLERS\b") == []
    ranked = _call_sites("assemble", keyword="n_ranks")
    assert ranked and set(ranked) == {"repro/assembly/registry.py"}
    for name in ("AssemblyResult", "unitigs_to_contigs"):
        assert _call_sites(name) == ["repro/assembly/base.py"], name
    assert [f.name for f in dataclasses.fields(AssemblyParams)] == [
        "k", "min_count", "min_contig_length"
    ]
    assert list(inspect.signature(clean_unitigs).parameters) == ["unitigs", "k"]
    for cls in (VelvetAssembler, TrinityAssembler):
        assert "n_threads" not in inspect.signature(cls.assemble).parameters
    assert list(inspect.signature(TrinityAssembler).parameters) == []
    assert "fail_on_n" not in inspect.signature(ContrailAssembler.assemble).parameters
    assert not hasattr(planner, "ASSEMBLER_COEFFICIENTS")


def test_no_assembler_name_decides_outside_the_registry():
    """No assembler name is spelled as a string under ``core/`` or
    ``bench/``: a per-assembler decision reads its ``AssemblerInfo``.  The
    exceptions name assemblers without deciding anything for them:
    ``PipelineConfig``'s default and the paper's Table III anchors, which
    ``bench/calibration.py`` fits by name."""
    import ast

    from repro.assembly.registry import ASSEMBLERS

    default = 'assemblers: tuple[str, ...] = ("ray",)'
    named = []
    for package in ("core", "bench"):
        for path in sorted((_SRC / "repro" / package).rglob("*.py")):
            rel = str(path.relative_to(_SRC))
            text = path.read_text()
            lines = text.splitlines()
            for node in ast.walk(ast.parse(text)):
                if not (isinstance(node, ast.Constant) and node.value in ASSEMBLERS):
                    continue
                line = lines[node.lineno - 1].strip()
                if rel == "repro/bench/calibration.py" or (
                    rel == "repro/core/rnnotator.py" and line == default
                ):
                    continue
                named.append(f"{rel}:{node.lineno}")
    assert named == []
