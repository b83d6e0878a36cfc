"""The runtime imports nothing outside the Python standard library, and only
`posets` tells antichains of grid points from antichains of pair facets."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "neighborly").glob("*.py"))


def absolute_imports(path):
    """Top-level module names of the absolute imports in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_stdlib():
    assert SOURCES
    seen = {name: path.name for path in SOURCES for name in absolute_imports(path)}
    outside = {name: where for name, where in seen.items() if name not in sys.stdlib_module_names}
    assert not outside, f"non-stdlib imports: {outside}"
    assert {"__future__", "itertools", "typing"} <= seen.keys()


def test_package_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def attribute_reads(path, name):
    """Line numbers of every `x.name` in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == name]


def test_only_posets_reads_the_grid_flag():
    """Grid points only enter and enumerate: every other module takes an
    antichain as pair facets, and `posets` refuses one of grid points."""
    reads = {path.name: attribute_reads(path, "grid") for path in SOURCES}
    assert reads.pop("posets.py")
    assert not any(reads.values()), reads
