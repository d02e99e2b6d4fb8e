"""Every top-level import of the package and the tests is read somewhere,
and so is every private top-level name of the package.

Stdlib only: each module is parsed with ``ast``; the names its top-level
``import`` statements bind must each be read at least once in that module.
``__future__`` imports, every import of ``__init__.py`` and names listed in
``__all__`` (re-exports) are exempt.  The private (single-underscore)
functions, classes and constants defined at the top level of
``src/ncpart`` must each be read, as a name or an attribute, somewhere in
the package.  The package's own export list is its modules' lists, each
name written once.
"""

from __future__ import annotations

import ast
import collections
import pathlib

import pytest

import ncpart

#: The modules whose ``__all__`` the package re-exports, in import order.
EXPORTING = (
    "algebra", "bijections", "core", "errors", "cli", "formulas", "recurrence", "stats"
)

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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each private function, class or constant defined at
    the top level."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _reads(tree: ast.Module) -> set[str]:
    """Every name and attribute the module reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
    }


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level names of the given modules that none of them reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a": "_USED = 1\n_unused = 2\ndef _f(): pass\nclass _C: pass\n",
        "b": "from a import _USED, _f\nprint(_USED, a._C)\n",
    }
    assert unread_private_names(sources) == ["a: _unused (line 2)", "a: _f (line 3)"]


def test_every_private_top_level_name_is_read():
    package = ROOT / "src" / "ncpart"
    sources = {p.name: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert unread_private_names(sources) == []


def test_no_name_is_exported_by_two_modules():
    counts = collections.Counter(
        name for module in EXPORTING for name in getattr(ncpart, module).__all__
    )
    assert [name for name, count in counts.items() if count > 1] == []


def test_the_package_exports_its_modules_lists():
    expected = ["__version__"]
    for module in EXPORTING:
        expected += getattr(ncpart, module).__all__
    assert ncpart.__all__ == expected
    assert [name for name in ncpart.__all__ if not hasattr(ncpart, name)] == []
