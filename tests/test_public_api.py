"""The public API surface: every documented export imports and resolves."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
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
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_OBS_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


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
