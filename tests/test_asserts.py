"""No check of the package is a bare ``assert`` statement.

``python -O`` strips ``assert`` statements, so a check written as one
vanishes there; the package raises ``AssertionError`` explicitly instead.
Stdlib only: each module of ``src/ncpart`` is parsed with ``ast``.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ncpart"


def bare_asserts(source: str) -> list[int]:
    """The line of each ``assert`` statement in the source."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_the_scan_finds_a_bare_assert():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    raise AssertionError('kept under -O')\n"
        "assert f\n"
    )
    assert bare_asserts(source) == [3, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_assert(path):
    assert bare_asserts(path.read_text(encoding="utf-8")) == []
