"""The committed mutation rows still apply to the tree.

``tools/mutants.py`` (run in CI) kills each row by running its tests on
a mutated copy of ``src/``; here, without running any mutant, every row's
old text must occur exactly once in its file and every test file it
names must exist, so a refactor that strands a row fails in tier-1.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
sys.modules["mutants"] = mutants  # dataclasses resolve the module by name
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("row", mutants.ROWS, ids=lambda r: r.name)
def test_row_applies(row):
    assert (ROOT / "src" / row.file).read_text().count(row.old) == 1
    assert row.old != row.new
    for test in row.tests:
        assert (ROOT / test.split("::")[0]).is_file(), test
