"""The refined recurrence route to the staircase-tail series."""

import subprocess
import sys
from pathlib import Path

import pytest

import ncpart
from ncpart import recurrence
from ncpart.algebra import MultiPoly
from ncpart.cli import run_verify_target
from ncpart.core import StaircaseTail, catalan
from ncpart.errors import IndexOutOfRange
from ncpart.formulas import gf_staircase_tail
from ncpart.recurrence import (
    StaircaseRecurrence,
    recurrence_table,
    staircase_series_by_recurrence,
)
from ncpart.stats import distribution_rows

Q = MultiPoly.marker("q")


def test_recurrence_equals_closed_form():
    for m, a in ((2, 2), (3, 2), (2, 3), (3, 3)):
        assert staircase_series_by_recurrence(m, a, 10) == gf_staircase_tail(
            m, a, 10
        ), (m, a)


def test_recurrence_equals_brute_force():
    for m, a in ((2, 2), (3, 2)):
        series = staircase_series_by_recurrence(m, a, 10)
        rows = distribution_rows(9, StaircaseTail(m, a).pattern())
        for n in range(10):
            assert series.coefficient(n) == rows[n], (m, a, n)


class _UncappedRecurrence(StaircaseRecurrence):
    """The recurrence with ``shift`` left uncapped in its memo keys."""

    def _norm_shift(self, shift: int) -> int:
        super()._norm_shift(shift)  # validates shift >= 0
        return shift


def test_clamped_and_unclamped_tables_agree():
    for m, a in ((2, 2), (3, 2)):
        uncapped = _UncappedRecurrence(m, a)
        assert StaircaseRecurrence(m, a).series(9) == uncapped.series(9)
        assert any(key[-1] > m for key in uncapped._cells), (m, a)


def test_cell_anchors():
    table = StaircaseRecurrence(2, 2)
    assert table.cell(2, 1) == MultiPoly.one()
    assert str(table.total(3)) == "4 + q"
    assert table.total(0) == MultiPoly.one()
    assert table.total(1) == MultiPoly.one()


def test_totals_sum_to_catalan_at_q_one():
    table = recurrence_table(2, 2)
    for n in range(10):
        assert table.total(n).substitute(q=1) == MultiPoly.const(catalan(n))


def test_cell_split_agrees_with_cell():
    # cell_split expands the same cell by a different recursion split,
    # so the two routes must agree everywhere, including shifted tables.
    table = recurrence_table(3, 2)
    for n in range(3, 9):
        for r in range(1, n - 2 + 1):
            assert table.cell_split(n, r) == table.cell(n, r), (n, r)
            assert table.cell_split(n, r, 1) == table.cell(n, r, 1), (n, r)


def test_lemma_suite_names_a_wrong_refined_cell(monkeypatch):
    # A fresh table registry keeps the wrong values out of the shared tables.
    monkeypatch.setattr(recurrence, "_TABLES", {})
    right_cell = StaircaseRecurrence.cell

    def wrong_cell(self, n, r, shift=0):
        value = right_cell(self, n, r, shift)
        if (self.m, self.a, n, r, shift) == (3, 2, 7, 4, 0):
            return value + Q
        return value

    monkeypatch.setattr(StaircaseRecurrence, "cell", wrong_cell)
    report = run_verify_target("lemma3.1", 10)
    assert report["status"] == "fail"
    failed = [c for c in report["cells"] if c["status"] == "fail"]
    assert failed[0]["params"] == {"m": 3, "a": 2, "check": "refined-cells"}
    assert failed[0]["n"] == 7
    assert [e["rep"] for e in failed[0]["actual"]] == [4]
    assert all((c["params"]["m"], c["params"]["a"]) == (3, 2) for c in failed)


def test_refined_cells_require_enough_letters():
    with pytest.raises(IndexOutOfRange):
        recurrence_table(2, 3).cell(2, 1)


def test_closed_forms_and_recurrence_do_not_load_stats():
    # Load the two modules under a bare package, so the package's own
    # imports do not hide what they pull in.
    src = str(Path(ncpart.__file__).parent)
    code = (
        "import importlib, sys, types\n"
        "pkg = types.ModuleType('ncpart')\n"
        f"pkg.__path__ = [{src!r}]\n"
        "sys.modules['ncpart'] = pkg\n"
        "importlib.import_module('ncpart.formulas')\n"
        "importlib.import_module('ncpart.recurrence')\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('ncpart'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert "ncpart.formulas" in out and "ncpart.recurrence" in out
    assert "ncpart.stats" not in out


def test_recurrence_table_is_shared():
    assert recurrence_table(2, 2) is recurrence_table(2, 2)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda t: t.total(3, -1), IndexOutOfRange, "shift must be >= 0, got -1"),
        (lambda t: t.cell(4, 0), IndexOutOfRange, "must lie in 1..3 for n = 4, got 0"),
        (lambda t: t.cell(4, 4), IndexOutOfRange, "must lie in 1..3 for n = 4, got 4"),
        (lambda t: t.total(-1), IndexOutOfRange, "n must be >= 0, got -1"),
        (lambda t: t.series(0), ValueError, "order must be >= 1"),
    ],
    ids=["negative-shift", "r-below-1", "r-above-range", "negative-n", "series-order-0"],
)
def test_recurrence_rejects_bad_indices(call, error, message):
    with pytest.raises(error, match=message):
        call(StaircaseRecurrence(2, 2))


def test_parameter_validation():
    with pytest.raises(Exception):
        StaircaseRecurrence(1, 2)
    with pytest.raises(Exception):
        StaircaseRecurrence(2, 1)
