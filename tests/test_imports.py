"""Every top-level import of the package and the tests is read somewhere.

Stdlib only: each module is parsed with ``ast``; the names its top-level
``import`` statements bind must each be read at least once in that module.
``__future__`` imports, every import of ``__init__.py`` and names listed in
``__all__`` (re-exports) are exempt.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    list((ROOT / "src" / "ncpart").glob("*.py")) + list((ROOT / "tests").glob("*.py")),
    key=str,
)


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each name a top-level import binds."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exempt = _exported(tree)
    return [
        f"{name} (line {line})"
        for name, line in _bound_names(tree).items()
        if name not in read and name not in exempt
    ]


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Any, List\nprint(sys, Any)\n"
    assert unused_imports(source) == ["os (line 1)", "List (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from m import x\n__all__ = ['x']\n") == []


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
