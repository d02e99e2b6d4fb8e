"""Statistics of non-crossing partitions: subword-pattern occurrence counts
and their exact distributions as marker polynomials.

The distribution builders never materialize the partitions.  One depth-first
walk over the prefix tree carries the nonzero occurrence counts down each
branch and records them at every node, so a single pass produces the rows
for every size up to the requested bound — and a joint distribution needs
exactly one pass, never one per pattern.  Each node looks its trailing
window up once in a memo of the words it matches, so the cost per node
does not grow with the number of patterns in a batch.
"""

from __future__ import annotations

import functools
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Sequence, Union

from .algebra import MultiPoly
from .core import (
    DEFAULT_ENUM_LIMIT,
    NCPartition,
    SubwordPattern,
    _param_key,
    _standardise,
    as_ncpartition,
    as_pattern,
    catalan,
)
from .errors import EmptyPartition, LimitExceeded

__all__ = [
    "count_subword",
    "rep",
    "block_count",
    "ascent_count",
    "descent_count",
    "DistributionTable",
    "distribution",
    "joint_distribution",
    "rep_joint_distribution",
    "distribution_rows",
    "batch_distribution_rows",
    "joint_rows",
    "rep_joint_rows",
]

Letters = tuple[int, ...]
PatternLike = Union[SubwordPattern, Sequence[int], str]
PartitionLike = Union[NCPartition, Sequence[int], str]
Constraints = tuple[tuple[int, int, int], ...]


def _pair_constraints(word: Letters) -> Constraints:
    """All (i, j, sign) order constraints of a pattern word, i < j."""
    out = []
    for j in range(1, len(word)):
        for i in range(j):
            d = word[i] - word[j]
            out.append((i, j, (d > 0) - (d < 0)))
    return tuple(out)


def _window_matches(letters: Sequence[int], start: int, pairs: Constraints) -> bool:
    for i, j, sign in pairs:
        d = letters[start + i] - letters[start + j]
        if ((d > 0) - (d < 0)) != sign:
            return False
    return True


#: Distinct patterns whose constraints :func:`count_subword` keeps.
_PATTERN_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _pattern_constraints(tau: Hashable) -> tuple[int, Constraints]:
    """The length and pair constraints of a pattern, resolved once per
    distinct pattern (keyed by ``core._param_key``); an invalid pattern
    raises and is not cached."""
    word = as_pattern(tau).word
    return len(word), _pair_constraints(word)


def count_subword(pi: PartitionLike, tau: PatternLike) -> int:
    """Number of windows of pi order-isomorphic to the pattern tau."""
    letters = as_ncpartition(pi).letters
    length, pairs = _pattern_constraints(_param_key(tau))
    if length > len(letters):
        return 0
    return sum(
        1
        for start in range(len(letters) - length + 1)
        if _window_matches(letters, start, pairs)
    )


def rep(pi: PartitionLike) -> int:
    """The smallest letter that occurs more than once; 0 if none does.

    Undefined (raises) on the empty partition.
    """
    partition = as_ncpartition(pi)
    if len(partition) == 0:
        raise EmptyPartition("rep is undefined on the empty partition")
    seen: set[int] = set()
    best = 0
    for v in partition.letters:
        if v in seen and (best == 0 or v < best):
            best = v
        seen.add(v)
    return best


def block_count(pi: PartitionLike) -> int:
    """Number of blocks (the largest letter; 0 for the empty partition)."""
    return as_ncpartition(pi).block_count


def ascent_count(pi: PartitionLike) -> int:
    """Number of positions where the next letter is strictly larger."""
    letters = as_ncpartition(pi).letters
    return sum(1 for i in range(len(letters) - 1) if letters[i] < letters[i + 1])


def descent_count(pi: PartitionLike) -> int:
    """Number of positions where the next letter is strictly smaller."""
    letters = as_ncpartition(pi).letters
    return sum(1 for i in range(len(letters) - 1) if letters[i] > letters[i + 1])


# ---------------------------------------------------------------------------
# Distribution engine
# ---------------------------------------------------------------------------


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_ENUM_LIMIT:
        raise LimitExceeded(
            f"n = {n} exceeds the enumeration limit {DEFAULT_ENUM_LIMIT}"
        )


def _walk(mode: str, n_max: int, words: tuple[Letters, ...]) -> list:
    """Histogram tables of every size k <= n_max, from one walk.

    "separate": tables[k][p][c] = number of size-k prefixes with c
    occurrences of words[p].  "joint" and "rep": tables[k][(c0, c1, r)] =
    number of size-k prefixes with c0 occurrences of words[0], c1 of
    words[1] (0 if absent) and smallest repeated letter r ("rep" only; 0
    when nothing repeats).

    A node carries only its nonzero counts, {word index: count}.  A window
    is order-isomorphic to at most one word of each length, so each node
    costs one lookup of its trailing window in a memo, however many words
    there are.  Except in "rep" mode a node records only nonzero counts,
    and each count-0 cell is the walk's own node count at that size minus
    the cells recorded there.
    """
    separate = mode == "separate"
    track_rep = mode == "rep"
    longest = max((len(w) for w in words), default=0)
    by_length: dict[int, dict[Letters, list[int]]] = {}
    for p, word in enumerate(words):
        by_length.setdefault(len(word), {}).setdefault(word, []).append(p)
    matches: dict[Letters, tuple[int, ...]] = {}

    def match(window: Letters) -> tuple[int, ...]:
        found: list[int] = []
        for length, table in by_length.items():
            if length <= len(window):
                found += table.get(_standardise(window[len(window) - length :]), ())
        matches[window] = hits = tuple(found)
        return hits

    tables: list = [[{} for _ in words] if separate else {} for _ in range(n_max + 1)]
    nodes = [1] + [0] * n_max
    if track_rep:
        tables[0][0, 0, 0] = 1
    # Nodes still to expand, depth-first: (depth, largest letter, letters
    # that may repeat, trailing window, nonzero counts, r).
    todo: list = [(0, 0, (), (), {}, 0)] if n_max else []
    while todo:
        depth, maximum, stack, window, active, r = todo.pop()
        depth += 1
        h = tables[depth]
        deeper = depth < n_max
        full = len(window) == longest
        fresh = maximum + 1
        nodes[depth] += len(stack) + 1
        for idx, v in enumerate(stack + (fresh,)):
            w = window[1:] + (v,) if full else window + (v,)
            hits = matches.get(w)
            if hits is None:
                hits = match(w)
            a = active
            if hits:
                a = active.copy()
                for p in hits:
                    a[p] = a.get(p, 0) + 1
            r2 = v if track_rep and v != fresh and (r == 0 or v < r) else r
            if separate:
                for p, c in a.items():
                    cells = h[p]
                    cells[c] = cells.get(c, 0) + 1
            elif a or track_rep:
                key = (a.get(0, 0), a.get(1, 0), r2)
                h[key] = h.get(key, 0) + 1
            if deeper:
                if v == fresh:
                    todo.append((depth, v, stack + (v,), w, a, r2))
                else:
                    todo.append((depth, maximum, stack[: idx + 1], w, a, r2))
    for level, count in zip(tables, nodes):
        if separate:
            for cells in level:
                cells[0] = count - sum(cells.values())
        elif not track_rep:
            level[0, 0, 0] = count - sum(level.values())
    return tables


# Tables keyed by (mode, words); values are (n_max, tables[k] for k <= n_max).
_CACHE: dict[tuple[str, tuple[Letters, ...]], tuple[int, list]] = {}


def _tables(mode: str, n_max: int, words: tuple[Letters, ...]) -> list:
    cached = _CACHE.get((mode, words))
    if cached is not None and cached[0] >= n_max:
        return cached[1][: n_max + 1]
    tables = _walk(mode, n_max, words)
    _CACHE[mode, words] = (n_max, tables)
    return tables


# ---------------------------------------------------------------------------
# Distribution tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionTable:
    """Exact distribution rows for one or two statistics.

    ``rows[n]`` is the generating polynomial over all size-n non-crossing
    partitions, with each statistic recorded in its marker.  Construction
    re-checks the two structural invariants: every coefficient is a
    nonnegative integer, and setting every marker to 1 gives the Catalan
    number.
    """

    patterns: tuple[SubwordPattern, ...]
    markers: tuple[str, ...]
    rows: tuple[MultiPoly, ...]

    def __post_init__(self) -> None:
        ones = {name: 1 for name in ("q", "p", "v")}
        for n, row in enumerate(self.rows):
            if not (row.has_integer_coeffs() and row.has_nonnegative_coeffs()):
                raise AssertionError(
                    f"distribution row {n} has a bad coefficient: {row}"
                )
            total = row.substitute(**ones).as_constant()
            if total != catalan(n):
                raise AssertionError(
                    f"distribution row {n} sums to {total}, expected {catalan(n)}"
                )

    def row(self, n: int) -> MultiPoly:
        return self.rows[n]

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1


def distribution_rows(n_max: int, tau: PatternLike) -> list[MultiPoly]:
    """Occurrence distributions (marker q) for every size 0..n_max."""
    return batch_distribution_rows(n_max, [tau])[0]


def batch_distribution_rows(
    n_max: int, taus: Sequence[PatternLike]
) -> list[list[MultiPoly]]:
    """Occurrence distributions for many patterns from one shared walk."""
    _check_size(n_max)
    words = tuple(as_pattern(t).word for t in taus)
    levels = _tables("separate", n_max, words)
    return [
        [MultiPoly({(c, 0, 0): m for c, m in level[p].items()}) for level in levels]
        for p in range(len(words))
    ]


def joint_rows(n_max: int, tau1: PatternLike, tau2: PatternLike) -> list[MultiPoly]:
    """Joint distributions: tau1 marked by p, tau2 marked by q."""
    _check_size(n_max)
    words = (as_pattern(tau1).word, as_pattern(tau2).word)
    return [
        MultiPoly({(c2, c1, 0): mult for (c1, c2, _), mult in table.items()})
        for table in _tables("joint", n_max, words)
    ]


def rep_joint_rows(n_max: int, tau: PatternLike) -> list[MultiPoly]:
    """Joint distributions: occurrences marked by q, smallest repeated
    letter marked by v (exponent 0 when nothing repeats)."""
    _check_size(n_max)
    words = (as_pattern(tau).word,)
    return [MultiPoly(table) for table in _tables("rep", n_max, words)]


def distribution(n: int, tau: PatternLike) -> MultiPoly:
    """The polynomial sum of q^(occurrences of tau) over all size-n
    non-crossing partitions."""
    pattern = as_pattern(tau)
    rows = distribution_rows(n, pattern)
    table = DistributionTable(
        patterns=(pattern,), markers=("q",), rows=tuple(rows)
    )
    return table.row(n)


def joint_distribution(n: int, tau1: PatternLike, tau2: PatternLike) -> MultiPoly:
    """The polynomial sum of p^(occurrences of tau1) q^(occurrences of tau2)
    over all size-n non-crossing partitions, from a single pass."""
    p1 = as_pattern(tau1)
    p2 = as_pattern(tau2)
    rows = joint_rows(n, p1, p2)
    table = DistributionTable(
        patterns=(p1, p2), markers=("p", "q"), rows=tuple(rows)
    )
    return table.row(n)


def rep_joint_distribution(n: int, tau: PatternLike) -> MultiPoly:
    """The polynomial sum of q^(occurrences) v^(smallest repeated letter)
    over all size-n non-crossing partitions (v-exponent 0 when no letter
    repeats), from a single pass."""
    pattern = as_pattern(tau)
    rows = rep_joint_rows(n, pattern)
    table = DistributionTable(
        patterns=(pattern,), markers=("q", "v"), rows=tuple(rows)
    )
    return table.row(n)
