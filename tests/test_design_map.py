"""DESIGN.md §3's module map names exactly the modules under ``src/repro/``.

The map is the first fenced block of §3.  A line indented two spaces
opens a package (``seq/``); a line indented four spaces names one or more
of its modules, comma-separated (``pilot,unit``); deeper lines continue
a description.  Every ``src/repro/<package>/<module>.py`` but
``__init__`` must be named, and nothing else.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mapped_modules(design: str) -> set[tuple[str, str]]:
    section = design.split("## 3. ", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 2)[1]
    mapped, package = set(), None
    for line in block.splitlines():
        if m := re.match(r"  (\w+)/(\s|$)", line):
            package = m.group(1)
        elif m := re.match(r"    ([\w,]+)(\s|$)", line):
            assert package is not None, line
            mapped.update((package, name) for name in m.group(1).split(","))
        elif not line.startswith("     "):
            package = None  # a column-0 line (tools/, tests/) ends the packages
    return mapped


def test_map_names_every_module_and_no_other():
    mapped = _mapped_modules((ROOT / "DESIGN.md").read_text(encoding="utf-8"))
    present = {
        (path.parent.name, path.stem)
        for path in (ROOT / "src" / "repro").glob("*/*.py")
        if path.stem != "__init__"
    }
    assert sorted(mapped - present) == [], "mapped but not in src/repro"
    assert sorted(present - mapped) == [], "in src/repro but not mapped"

