"""The trace-analytics CLI, pinned byte-for-byte.

Every case runs one subcommand on ``tests/data/ci_baseline_trace.jsonl``
(or on a ledger built from it, or on a copy with one stage stretched)
in a fresh interpreter and compares its stdout and exit code with the
files under ``tests/data/obs_cli/``: ``<case>.out`` holds the stdout,
``exit_codes.json`` the codes.  The files are generated, never edited;
regenerate them, and ``tests/data/golden_report.txt``, with::

    PYTHONPATH=src python tests/obs/test_cli.py --regen
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs.__main__ import main

ROOT = Path(__file__).parent.parent.parent
DATA = ROOT / "tests" / "data"
BASELINE = DATA / "ci_baseline_trace.jsonl"
GOLDEN = DATA / "obs_cli"
#: The cases run the ``repro`` this test imported, wherever it lives.
SRC = Path(repro.__file__).resolve().parents[1]

#: The stage the "stretched" copy of the baseline runs 10 % longer.
STRETCHED_STAGE = "stage:post-processing"

#: (case, argv) in run order — the ledger cases share one ledger file.
#: ``{trace}``, ``{stretched}`` and ``{ledger}`` are filled in per run.
CASES = (
    ("report", ["report", "{trace}"]),
    ("report_json", ["report", "{trace}", "--json"]),
    ("diff_self", ["diff", "{trace}", "{trace}"]),
    ("diff_stretched", ["diff", "{trace}", "{stretched}"]),
    ("diff_json", ["diff", "{trace}", "{stretched}", "--json"]),
    ("critpath", ["critpath", "{trace}"]),
    ("critpath_json", ["critpath", "{trace}", "--json"]),
    ("attribution", ["attribution", "{trace}"]),
    ("attribution_gate", ["attribution", "{trace}", "--planner-gate"]),
    ("attribution_json", ["attribution", "{trace}", "--json"]),
    ("ledger_append_a", ["ledger", "append", "{trace}", "--ledger", "{ledger}",
                         "--run-id", "a"]),
    ("ledger_append_b", ["ledger", "append", "{trace}", "--ledger", "{ledger}",
                         "--run-id", "b"]),
    ("ledger_list", ["ledger", "list", "--ledger", "{ledger}"]),
    ("ledger_list_json", ["ledger", "list", "--ledger", "{ledger}", "--json"]),
    ("ledger_check", ["ledger", "check", "--ledger", "{ledger}"]),
    ("ledger_check_json",
     ["ledger", "check", "--ledger", "{ledger}", "--json"]),
    ("monitor", ["monitor", "{trace}"]),
)


def stretch(src: Path, dst: Path) -> Path:
    """A copy of ``src`` whose :data:`STRETCHED_STAGE` span ends 10 %
    later on the virtual clock (same records, same structure)."""
    lines = []
    for line in src.read_text().splitlines():
        record = json.loads(line)
        if record.get("name") == STRETCHED_STAGE:
            record["v1"] += 0.1 * (record["v1"] - record["v0"])
        lines.append(json.dumps(record))
    dst.write_text("\n".join(lines) + "\n")
    return dst


def command(argv: list[str]) -> list[str]:
    """How one case is invoked."""
    return [sys.executable, "-m", "repro.obs", *argv]


def run_cases(workdir: Path) -> dict[str, tuple[str, int]]:
    """Every case's (stdout, exit code), in :data:`CASES` order."""
    paths = {
        "trace": str(BASELINE),
        "stretched": str(stretch(BASELINE, workdir / "stretched.jsonl")),
        "ledger": str(workdir / "ledger.jsonl"),
    }
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = {}
    for case, argv in CASES:
        proc = subprocess.run(
            command([a.format(**paths) for a in argv]),
            capture_output=True,
            text=True,
            env=env,
        )
        out[case] = (proc.stdout, proc.returncode)
    return out


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("obs_cli"))


@pytest.mark.parametrize("case", [case for case, _ in CASES])
def test_output_matches_golden(results, case):
    stdout, code = results[case]
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[case]
    assert stdout == (GOLDEN / f"{case}.out").read_text()


#: subcommand -> (an invocation reading ``{trace}``, the golden case an
#: intact ``{trace}`` reproduces).
READERS = {
    "report": (["report", "{trace}"], "report"),
    "diff": (["diff", str(BASELINE), "{trace}"], "diff_self"),
    "critpath": (["critpath", "{trace}"], "critpath"),
    "attribution": (["attribution", "{trace}"], "attribution"),
    "ledger": (
        ["ledger", "append", "{trace}", "--ledger", "{ledger}",
         "--run-id", "a"],
        "ledger_append_a",
    ),
    "monitor": (["monitor", "{trace}"], "monitor"),
}


def damaged(how: str, path: Path) -> Path:
    """The baseline at ``path``: missing, with a corrupt middle line,
    led by a line that decodes but is not a record, or ending in a torn
    line (a stream read mid-write)."""
    lines = BASELINE.read_text().splitlines()
    if how == "corrupt":
        lines[len(lines) // 2] = lines[len(lines) // 2][:40]
    elif how == "not-a-record":
        lines.insert(0, "[1, 2]")
    elif how == "torn":
        lines.append(lines[0][:40])
    if how != "missing":
        path.write_text("\n".join(lines))
    return path


@pytest.mark.parametrize("how", ["missing", "corrupt", "not-a-record", "torn"])
@pytest.mark.parametrize("subcommand", sorted(READERS))
def test_unreadable_input(subcommand, how, tmp_path, capsys):
    """A missing file or a corrupt middle line cannot be gated (one
    stderr line, exit 2, never the "gate failed" 1); a torn last line
    is skipped, so the trace reads as the intact baseline."""
    argv, golden = READERS[subcommand]
    paths = {
        "trace": str(damaged(how, tmp_path / "trace.jsonl")),
        "ledger": str(tmp_path / "ledger.jsonl"),
    }
    code = main([a.format(**paths) for a in argv])
    out, err = capsys.readouterr()
    if how == "torn":
        codes = json.loads((GOLDEN / "exit_codes.json").read_text())
        assert (out, code) == (
            (GOLDEN / f"{golden}.out").read_text(),
            codes[golden],
        )
    else:
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


#: Flags and subcommands the CLI no longer has, each spelled as a caller
#: of an older version would.
REMOVED = {
    "report-chrome": ["report", "{trace}", "--chrome", "{out}"],
    "critpath-what-if": ["critpath", "{trace}", "--what-if", "P=1"],
    "ledger-show": ["ledger", "show", "--ledger", "{ledger}"],
    "ledger-compare": ["ledger", "compare", "--ledger", "{ledger}"],
    "diff-r-rel": ["diff", "{trace}", "{trace}", "--r-rel", "0.1"],
}


@pytest.mark.parametrize("argv", REMOVED.values(), ids=list(REMOVED))
def test_removed_option_is_a_usage_error(argv, tmp_path, capsys):
    """A removed option is an argparse error (exit 2), never a silent
    no-op that exits 0 having done nothing."""
    paths = {
        "trace": str(BASELINE),
        "out": str(tmp_path / "out.json"),
        "ledger": str(tmp_path / "ledger.jsonl"),
    }
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_nothing_invokes_a_module_of_the_package():
    """``python -m repro.obs.critpath trace.jsonl`` runs the module body
    and exits 0 having checked nothing, so no CI step, tool, example or
    document may spell that form: the CLI is ``python -m repro.obs``."""
    retired = re.compile(r"-m\s+repro\.obs\.")
    hits = []
    for top in (".github", ".claude", "tools", "examples", "src",
                "README.md", "DESIGN.md"):
        path = ROOT / top
        for f in [path] if path.is_file() else sorted(path.rglob("*")):
            if f.is_file() and f.suffix != ".pyc":
                if retired.search(f.read_text(errors="ignore")):
                    hits.append(str(f.relative_to(ROOT)))
    assert hits == []


def regenerate() -> None:
    import tempfile

    sys.path.insert(0, str(ROOT))
    from tests.obs.test_report import GOLDEN_PATH, build_report, golden_records

    GOLDEN_PATH.write_text(build_report(golden_records()) + "\n")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        results = run_cases(Path(tmp))
    for case, (stdout, _) in results.items():
        (GOLDEN / f"{case}.out").write_text(stdout)
    codes = {case: code for case, (_, code) in results.items()}
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2) + "\n"
    )


if __name__ == "__main__" and "--regen" in sys.argv:
    regenerate()
