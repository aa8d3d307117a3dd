"""``src/`` holds no code that only tests reach.

An AST scan: every top-level function or class of a ``src/repro`` module
(package ``__init__`` files aside), and every non-dunder method, must be
named somewhere in the program — ``src/``, ``tools/``, ``pipebench/``,
``benchmarks/`` or ``examples/`` — other than inside its own ``def``.
A name in a package's ``__all__`` counts as a use: it is public API; so
does the last part of a ``"repro.<module>.<Name>"`` string, the
assembler registry's lazy class path.  A helper that only a test calls
belongs test-side, as an oracle beside the test that uses it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ("src", "tools", "pipebench", "benchmarks", "examples")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: A dotted path into the package, as the assembler registry names a
#: class it imports on first use.
CLASS_PATH = re.compile(r"repro(\.\w+)+")

#: ``(module, name)`` pairs allowed to stay test-only.  Keep it empty.
ALLOWED: set[tuple[str, str]] = set()


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and every class's methods."""
    stack = [n for n in tree.body if isinstance(n, DEFS)]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.ClassDef):
            stack.extend(n for n in node.body if isinstance(n, DEFS))


def _exported(value: ast.expr, tree: ast.Module, seen=frozenset()):
    """The strings an ``__all__`` expression lists, through the
    module-level names it splices in (``*_LAZY_EXPORTS``)."""
    assigned = {
        t.id: node.value
        for node in tree.body if isinstance(node, ast.Assign)
        for t in node.targets if isinstance(t, ast.Name)
    }
    for node in ast.walk(value):
        if isinstance(node, ast.Name) and node.id in assigned.keys() - seen:
            yield from _exported(assigned[node.id], tree, seen | {node.id})
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _names(node: ast.AST, tree: ast.Module) -> list[str]:
    """The names one node reads, imports, exports or spells as a path."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.rsplit(".", 1)[-1]]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        path = CLASS_PATH.fullmatch(node.value)
        return [node.value.rsplit(".", 1)[1]] if path else []
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return list(_exported(node.value, tree))
    return []


def _uses(tree: ast.Module, defined: set[ast.AST]):
    """Every name ``tree`` uses outside the definitions of that name."""

    def walk(node, inside: frozenset[str]):
        for child in ast.iter_child_nodes(node):
            here = inside | {child.name} if child in defined else inside
            yield from (n for n in _names(child, tree) if n not in here)
            yield from walk(child, here)

    yield from walk(tree, frozenset())


def test_src_holds_no_test_only_code():
    trees = {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(), str(path))
        for top in PROGRAM
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    defined = {
        (rel, node.name): node
        for rel, tree in trees.items()
        if rel.startswith("src/repro/") and not rel.endswith("/__init__.py")
        for node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
    }
    nodes = set(defined.values())
    used = {name for tree in trees.values() for name in _uses(tree, nodes)}
    unused = sorted(k for k in defined if k[1] not in used and k not in ALLOWED)
    assert not unused, "named only by tests (move them test-side):\n" + "\n".join(
        f"  {rel}: {name}" for rel, name in unused
    )
