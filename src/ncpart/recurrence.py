"""Recurrence system for the occurrence distribution of staircase-tail
patterns, refined by the smallest repeated letter.

For the pattern 1 2 ... (m-1) m^a (a >= 2 equal letters after an
increasing prefix), the distribution over size-n non-crossing partitions
satisfies a two-parameter recurrence whose states are:

* ``total(n, shift)`` — the sum of q^(occurrences) over all size-n
  partitions, where occurrences are counted in the word obtained by
  prepending a strictly increasing run of ``shift`` letters lying below
  every letter of the partition (``shift = 0`` is the plain
  distribution);
* ``cell(n, r, shift)`` — the same sum restricted to partitions whose
  smallest repeated letter equals ``r``.

Partitions with no repeated letter, or whose smallest repeated letter
exceeds n - a + 1, can contain no occurrence and contribute the constant
C_(a-1) to every total.

Two expansions of ``cell`` are implemented — ``cell`` folds the
smallest split of the recursion into the sum, ``cell_split`` keeps that
boundary term explicit — and they must agree term by term.

The recurrence is an independent route to the distribution: this module
never calls the distribution engines in ``stats``.  The ``lemma3.1``
verify suite in ``cli`` compares every refined cell against the transfer
engine's rows.
"""

from __future__ import annotations

from .algebra import MultiPoly, TruncatedSeries
from .core import StaircaseTail, catalan
from .errors import IndexOutOfRange

__all__ = [
    "StaircaseRecurrence",
    "recurrence_table",
    "staircase_series_by_recurrence",
]


class StaircaseRecurrence:
    """Memoized evaluator of the refined recurrence for the pattern
    1 2 ... (m-1) m^a."""

    __slots__ = ("m", "a", "_totals", "_cells")

    def __init__(self, m: int, a: int) -> None:
        StaircaseTail(m, a)  # validates m >= 2, a >= 2
        self.m = m
        self.a = a
        self._totals: dict[tuple[int, int], MultiPoly] = {}
        self._cells: dict[tuple[int, int, int], MultiPoly] = {}

    # -- state validation ----------------------------------------------------

    def _norm_shift(self, shift: int) -> int:
        """The memo-key form of ``shift``, capped at m.

        Only the last m - 1 prepended letters can ever take part in an
        occurrence (the equal tail must come from the partition itself),
        so all states with shift >= m - 1 coincide and the cap is sound.
        """
        if shift < 0:
            raise IndexOutOfRange(f"shift must be >= 0, got {shift}")
        return min(shift, self.m)

    def _check_cell_index(self, n: int, r: int) -> None:
        if n < self.a:
            raise IndexOutOfRange(
                f"refined cells exist only for n >= {self.a}, got n = {n}"
            )
        if not 1 <= r <= n - self.a + 1:
            raise IndexOutOfRange(
                f"smallest repeated letter must lie in 1..{n - self.a + 1} "
                f"for n = {n}, got {r}"
            )

    # -- the recurrence --------------------------------------------------------

    def total(self, n: int, shift: int = 0) -> MultiPoly:
        """Sum of q^(occurrences) over all size-n partitions, with a
        strictly increasing run of ``shift`` lower letters prepended."""
        if n < 0:
            raise IndexOutOfRange(f"n must be >= 0, got {n}")
        shift = self._norm_shift(shift)
        if n < self.a:
            return MultiPoly.const(catalan(n))
        key = (n, shift)
        cached = self._totals.get(key)
        if cached is None:
            cached = MultiPoly.const(catalan(self.a - 1))
            for r in range(1, n - self.a + 2):
                cached = cached + self.cell(n, r, shift)
            self._totals[key] = cached
        return cached

    def cell(self, n: int, r: int, shift: int = 0) -> MultiPoly:
        """Sum of q^(occurrences) over size-n partitions whose smallest
        repeated letter is r, with ``shift`` lower letters prepended."""
        self._check_cell_index(n, r)
        shift = self._norm_shift(shift)
        key = (n, r, shift)
        cached = self._cells.get(key)
        if cached is None:
            acc = MultiPoly.zero()
            for j in range(r + 1, n + 1):
                acc = acc + self.total(j - r - 1, shift + r) * self.total(
                    n - j + 1, 0
                )
            if r + shift >= self.m:
                weight = MultiPoly.marker("q") - MultiPoly.one()
                acc = acc + weight * self.total(n - r - self.a + 2, 0)
            self._cells[key] = acc
            cached = acc
        return cached

    def cell_split(self, n: int, r: int, shift: int = 0) -> MultiPoly:
        """Alternative expansion of :meth:`cell` with the smallest split
        of the recursion kept as an explicit boundary term."""
        self._check_cell_index(n, r)
        shift = self._norm_shift(shift)
        acc = self.total(n - r, 0)
        for j in range(r + 2, n + 1):
            acc = acc + self.total(j - r - 1, shift + r) * self.total(
                n - j + 1, 0
            )
        if r + shift >= self.m:
            weight = MultiPoly.marker("q") - MultiPoly.one()
            acc = acc + weight * self.total(n - r - self.a + 2, 0)
        return acc

    # -- derived objects -------------------------------------------------------

    def series(self, order: int) -> TruncatedSeries:
        """The distribution series sum_n total(n) x^n mod x^order."""
        if order < 1:
            raise ValueError("order must be >= 1")
        return TruncatedSeries([self.total(n) for n in range(order)])


_TABLES: dict[tuple[int, int], StaircaseRecurrence] = {}


def recurrence_table(m: int, a: int) -> StaircaseRecurrence:
    """Shared memoized recurrence table for the pattern 1 2 ... (m-1) m^a."""
    table = _TABLES.get((m, a))
    if table is None:
        table = _TABLES[(m, a)] = StaircaseRecurrence(m, a)
    return table


def staircase_series_by_recurrence(m: int, a: int, order: int) -> TruncatedSeries:
    """Distribution series of the pattern 1 2 ... (m-1) m^a computed from
    the recurrence (independent of the closed form)."""
    return recurrence_table(m, a).series(order)
