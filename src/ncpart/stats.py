"""Statistics of non-crossing partitions: subword-pattern occurrence counts
and their exact distributions as marker polynomials.

The row functions never materialize the partitions, and one pass
produces the rows for every size up to the requested bound.

- ``_transfer`` (``engine="transfer"``, the default) is a transfer matrix;
  a batch of patterns or a joint distribution takes one pass.  A prefix's
  state keeps only its open letters, the closed letters still in its
  trailing window, that window and its smallest repeated letter.  The
  window is only the longest suffix that could still start an occurrence,
  which keeps long patterns cheap, and it holds the top letters, so a state
  is a window shape plus k open letters below it: the states grow linearly
  in the size (quadratically in "rep" mode).  Each call builds this
  (shape, k) automaton, deriving each shape's moves once, and drops it
  when it returns.
- ``_walk`` (``engine="brute"``, the CLI's ``--method brute``) walks the
  prefix tree depth-first for one word, at O(C_n) per size; a batch walks
  once per word.  It is the exhaustive reference for the transfer engine's
  separate rows, and like ``count_subword`` it tests windows against the
  word's chain links: it shares nothing with the engine that standardises.
"""

from __future__ import annotations

import functools
from collections.abc import Hashable
from typing import Sequence, Union

from .algebra import MultiPoly
from .core import (
    ChainLinks,
    NCPartition,
    SubwordPattern,
    _chain_links,
    _check_size,
    _occurs_at,
    _param_key,
    _standardise,
    as_ncpartition,
    as_pattern,
    catalan,
)
from .errors import EmptyPartition

__all__ = [
    "count_subword",
    "rep",
    "block_count",
    "ascent_count",
    "descent_count",
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

#: Distinct patterns whose chain links :func:`count_subword` keeps.
_PATTERN_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _pattern_constraints(tau: Hashable) -> tuple[int, ChainLinks]:
    """The length and the chain links (``core._chain_links``) of a pattern,
    resolved once per distinct pattern (keyed by ``core._param_key``); an
    invalid pattern raises and is not cached."""
    word = as_pattern(tau).word
    return len(word), _chain_links(word)


def count_subword(pi: PartitionLike, tau: PatternLike) -> int:
    """Number of windows of pi order-isomorphic to the pattern tau."""
    letters = as_ncpartition(pi).letters
    length, links = _pattern_constraints(_param_key(tau))
    count = 0
    for start in range(len(letters) - length + 1):
        # core._occurs_at, inlined: a call per window costs about a third more.
        for i, j, equal in links:
            x = letters[start + i]
            y = letters[start + j]
            if (x != y) if equal else (x >= y):
                break
        else:
            count += 1
    return count


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


def _walk(n_max: int, word: Letters) -> list[dict[int, int]]:
    """tables[k][c] = number of size-k prefixes (k <= n_max) with c
    occurrences of word, from one depth-first walk of the prefix tree.

    A node carries its count and hits the word when its trailing window
    satisfies the word's chain links (``core._occurs_at``); the walk keeps
    nothing but its depth-first stack.  A node records only a nonzero
    count, and each count-0 cell is the walk's own node count at that size
    minus the cells recorded there.
    """
    length = len(word)
    links = _chain_links(word)
    tables: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    nodes = [1] + [0] * n_max
    # Nodes still to expand, depth-first: (depth, largest letter, letters
    # that may repeat, trailing window, count).
    todo: list = [(0, 0, (), (), 0)] if n_max else []
    while todo:
        depth, maximum, stack, window, count = todo.pop()
        depth += 1
        cells = tables[depth]
        deeper = depth < n_max
        fresh = maximum + 1
        nodes[depth] += len(stack) + 1
        for idx, v in enumerate(stack + (fresh,)):
            w = (window + (v,))[-length:]
            c = count + 1 if len(w) == length and _occurs_at(w, 0, links) else count
            if c:
                cells[c] = cells.get(c, 0) + 1
            if deeper:
                if v == fresh:
                    todo.append((depth, v, stack + (v,), w, c))
                else:
                    todo.append((depth, maximum, stack[: idx + 1], w, c))
    for cells, total in zip(tables, nodes):
        cells[0] = total - sum(cells.values())
    return tables


def _walk_each(n_max: int, words: tuple[Letters, ...]) -> list:
    """``_transfer``'s separate tables, tables[k][p][c], one walk per word."""
    walks = [_walk(n_max, word) for word in words]
    return [[walk[k] for walk in walks] for k in range(n_max + 1)]


# A state of the transfer engine: (shape, k, r).  The letters that still
# matter are tokens in value order, "o" for an open letter and "c" for a
# closed one inside the window, which is the longest suffix (at most L - 1
# letters, L the longest word) that standardises to a proper prefix of a
# word; earlier letters can take part in no later occurrence.  The window
# holds the top tokens, so ``shape`` numbers, in this call's shape table,
# (the tokens from the window's lowest up, the window's token indices
# relative to that lowest), and ``k`` counts the open letters below it.
# ``r`` is the token index of the smallest repeated letter (-1 if none).
State = tuple[int, int, int]


def _transfer(mode: str, n_max: int, words: tuple[Letters, ...]) -> list:
    """Histogram tables of every size k <= n_max, from a transfer matrix.

    "separate": tables[k][p][c] = number of size-k prefixes with c
    occurrences of words[p].  "joint" and "rep": tables[k][(c0, c1, r)] =
    number of size-k prefixes with c0 occurrences of words[0], c1 of
    words[1] (0 if absent) and smallest repeated letter r ("rep" only; 0
    when nothing repeats), nonzero cells only.

    Prefixes in the same state have the same futures, so the engine steps
    every state of one size to the next and carries, per state, how many
    prefixes reach it with each count.  The next letter is fresh or an open
    token j; choosing j closes every open letter above it.  A closed letter
    ranks the same against every later letter, so the occurrence test needs
    only the token indices of the window, and a closed letter is dropped
    once it leaves the window.  Every letter below the smallest repeated
    letter is open (closing one would repeat a smaller letter), so r's
    letter is r + 1.

    The window sits at the top of the token order: every token from its
    lowest up is in it.  A closed token outside the window is dropped.  An
    open letter x above the window's lowest letter but outside the window
    was last written before the window began; that lowest letter is below
    x and written after it, so it closed x.  A state is therefore a window
    shape with k open letters below it, asserted on every shape built and
    so on every state.  Each shape's moves are derived once, with the
    window's bottom taken as 0: the fresh letter, each open window token,
    and one move shared by every letter j below the window.  That letter
    ranks below the whole window, so the hits and the next shape do not
    depend on j; the letters between j and the window close and, being
    outside it, are dropped, so j open letters stay below the next window
    (j + 1 if it is empty).  A state's successors are these moves shifted
    by k, built once per state.

    "separate" states carry [prefix count, {p: {c > 0: mult}}], and each
    count-0 cell is the engine's own prefix total minus the recorded cells.
    "joint" and "rep" states carry {(c0, c1): mult}; "rep" records r + 1.
    The shapes, their moves and every memo live only in this call.
    """
    separate = mode == "separate"
    track_rep = mode == "rep"
    # length -> {word: its indices}: a word listed twice is hit twice.
    by_length: dict[int, dict[Letters, list[int]]] = {}
    for p, word in enumerate(words):
        by_length.setdefault(len(word), {}).setdefault(word, []).append(p)
    # The standardised proper prefixes of the words; ``kept`` tries their
    # lengths longest first.
    starts = {_standardise(word[:m]) for word in words for m in range(1, len(word))}
    lengths = sorted({len(start) for start in starts}, reverse=True)
    shapes: dict[tuple[str, Letters], int] = {("", ()): 0}
    shape_list = [("", ())]  # shape id -> (tokens, window)
    moves: dict[int, tuple] = {}  # shape -> (moves at or above, move below)
    fanout: dict[State, list] = {}  # state -> [(next state, hits)]

    def kept(w: Letters) -> Letters:
        """The longest suffix of w that standardises to a proper prefix of
        a word: no letter before it can be part of a later occurrence."""
        for m in lengths:
            if m <= len(w) and _standardise(w[len(w) - m :]) in starts:
                return w[len(w) - m :]
        return ()

    def move(stepped: str, w: Letters) -> tuple:
        """(hits, next shape, open letters below its window) of the letter
        ending w, a window of token indices into ``stepped``, the tokens
        after the step.  The hits are the indices of the words a suffix of
        w standardises to; in "joint" and "rep" mode, (hits on word 0, on
        word 1)."""
        hits = []
        for length, table in by_length.items():
            if length <= len(w):
                hits += table.get(_standardise(w[len(w) - length :]), ())
        window = kept(w)
        tokens = ""
        index = []
        for i, kind in enumerate(stepped):
            index.append(len(tokens))
            if kind == "o" or i in window:
                tokens += kind
        bottom = index[min(window)] if window else len(tokens)
        shape = (tokens[bottom:], tuple(index[i] - bottom for i in window))
        assert set(shape[1]) == set(range(len(shape[0]))), "window not at the top"
        sid = shapes.get(shape)
        if sid is None:
            sid = shapes[shape] = len(shape_list)
            shape_list.append(shape)
        return hits if separate else (hits.count(0), hits.count(1)), sid, bottom

    def shape_moves(sid: int) -> tuple:
        """A shape's moves, its window's bottom at 0: (i, *move) for the
        fresh letter and each open window token i, and the one move of
        every letter below the window."""
        tokens, window = shape_list[sid]
        top = len(tokens)
        up = [
            (i, *move(tokens[:i] + "o" + "c" * (top - i - 1), window + (i,)))
            for i, kind in enumerate(tokens + "o")  # index top is the fresh letter
            if kind == "o"
        ]
        below = move("o" + "c" * top, tuple(i + 1 for i in window) + (0,))
        moves[sid] = up, below
        return up, below

    def fan(state: State) -> list:
        """(next state, hits) for each letter that may follow the state,
        lowest letter first."""
        sid, k, r = state
        up, (hits, sid2, bottom) = moves.get(sid) or shape_moves(sid)
        top = k + up[-1][0]  # the fresh letter's token index
        out = []
        for j in range(k):
            r2 = j if track_rep and (r < 0 or j < r) else r
            out.append(((sid2, j + bottom, r2), hits))
        for i, hits, sid2, bottom in up:
            j = k + i
            r2 = j if track_rep and j < top and (r < 0 or j < r) else r
            out.append(((sid2, k + bottom, r2), hits))
        fanout[state] = out
        return out

    level: dict = {(0, 0, -1): [1, {}] if separate else {(0, 0): 1}}
    tables = [_record(level, len(words), mode)]
    for _ in range(n_max):
        nxt: dict = {}
        for state, weight in level.items():
            out = fanout.get(state) or fan(state)
            if separate:
                _step_separate(weight, out, nxt)
            else:
                _step_joint(weight, out, nxt)
        level = nxt
        tables.append(_record(level, len(words), mode))
    return tables


def _step_separate(weight: list, out: list, nxt: dict) -> None:
    """Add one state's [count, {p: {c > 0: mult}}] to each successor in
    nxt, one count higher for each word the step hits."""
    count, counts = weight
    for state, hits in out:
        target = nxt.get(state)
        if target is None:
            nxt[state] = target = [0, {}]
        target[0] += count
        into = target[1]
        for p, cells in counts.items():
            if p in hits:
                continue
            have = into.get(p)
            if have is None:
                into[p] = dict(cells)
            else:
                for c, m in cells.items():
                    have[c] = have.get(c, 0) + m
        for p in hits:
            cells = counts.get(p, {})
            have = into.setdefault(p, {})
            zero = count - sum(cells.values())
            if zero:
                have[1] = have.get(1, 0) + zero
            for c, m in cells.items():
                have[c + 1] = have.get(c + 1, 0) + m


def _step_joint(weight: dict, out: list, nxt: dict) -> None:
    """Add one state's {(c0, c1): mult} to each successor in nxt, shifted
    by the step's hits on the two words."""
    for state, (d0, d1) in out:
        target = nxt.get(state)
        if target is None:
            nxt[state] = {(c0 + d0, c1 + d1): m for (c0, c1), m in weight.items()}
            continue
        for (c0, c1), m in weight.items():
            key = (c0 + d0, c1 + d1)
            target[key] = target.get(key, 0) + m


def _record(level: dict, n_words: int, mode: str):
    """One size's table, in ``_transfer``'s layout, from the states' weights."""
    if mode == "separate":
        table: list[dict[int, int]] = [{} for _ in range(n_words)]
        total = 0
        for count, counts in level.values():
            total += count
            for p, cells in counts.items():
                row = table[p]
                for c, m in cells.items():
                    row[c] = row.get(c, 0) + m
        for row in table:
            row[0] = total - sum(row.values())
        return table
    out: dict[tuple[int, int, int], int] = {}
    for (_, _, r), weight in level.items():
        v = r + 1 if mode == "rep" else 0
        for (c0, c1), m in weight.items():
            out[c0, c1, v] = out.get((c0, c1, v), 0) + m
    return out


#: The separate-row engines, by name, each (n_max, words) -> tables[k][p][c]:
#: the transfer matrix serves every row by default; "brute" walks the prefix
#: tree once per word.
_ENGINES = {"transfer": functools.partial(_transfer, "separate"), "brute": _walk_each}

# Tables keyed by (engine, mode, words); values are (n_max, tables[k] for
# k <= n_max).
_CACHE: dict[tuple[str, str, tuple[Letters, ...]], tuple[int, list]] = {}


def _tables(mode: str, n_max: int, words: tuple[Letters, ...], engine: str) -> list:
    """``_transfer``'s tables, or ``_ENGINES[engine]``'s for "separate"."""
    key = (engine, mode, words)
    cached = _CACHE.get(key)
    if cached is not None and cached[0] >= n_max:
        return cached[1][: n_max + 1]
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; engines: {', '.join(_ENGINES)}")
    build = _ENGINES[engine] if mode == "separate" else functools.partial(_transfer, mode)
    tables = build(n_max, words)
    _CACHE[key] = (n_max, tables)
    return tables


# ---------------------------------------------------------------------------
# Distribution tables
# ---------------------------------------------------------------------------


def _checked_last_row(rows: Sequence[MultiPoly]) -> MultiPoly:
    """The last of ``rows`` (``rows[n]`` is over all size-n non-crossing
    partitions), after re-checking the two structural invariants of every
    row: every coefficient is a nonnegative integer, and setting every
    marker to 1 gives the Catalan number."""
    ones = {name: 1 for name in ("q", "p", "v")}
    for n, row in enumerate(rows):
        if not (row.has_integer_coeffs() and row.has_nonnegative_coeffs()):
            raise AssertionError(f"distribution row {n} has a bad coefficient: {row}")
        total = row.substitute(**ones).as_constant()
        if total != catalan(n):
            raise AssertionError(
                f"distribution row {n} sums to {total}, expected {catalan(n)}"
            )
    return rows[-1]


def distribution_rows(
    n_max: int, tau: PatternLike, *, engine: str = "transfer"
) -> list[MultiPoly]:
    """Occurrence distributions (marker q) for every size 0..n_max.

    ``engine`` is "transfer" (the default) or "brute", the exhaustive
    prefix walk; the joint rows always come from the transfer engine."""
    return batch_distribution_rows(n_max, [tau], engine=engine)[0]


def batch_distribution_rows(
    n_max: int, taus: Sequence[PatternLike], *, engine: str = "transfer"
) -> list[list[MultiPoly]]:
    """Occurrence distributions for many patterns: the transfer engine
    serves the batch from one shared pass, "brute" walks once per word."""
    _check_size(n_max)
    words = tuple(as_pattern(t).word for t in taus)
    levels = _tables("separate", n_max, words, engine)
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
        for table in _tables("joint", n_max, words, "transfer")
    ]


def rep_joint_rows(n_max: int, tau: PatternLike) -> list[MultiPoly]:
    """Joint distributions: occurrences marked by q, smallest repeated
    letter marked by v (exponent 0 when nothing repeats)."""
    _check_size(n_max)
    words = (as_pattern(tau).word,)
    return [MultiPoly(table) for table in _tables("rep", n_max, words, "transfer")]


def distribution(n: int, tau: PatternLike) -> MultiPoly:
    """The polynomial sum of q^(occurrences of tau) over all size-n
    non-crossing partitions."""
    return _checked_last_row(distribution_rows(n, tau))


def joint_distribution(n: int, tau1: PatternLike, tau2: PatternLike) -> MultiPoly:
    """The polynomial sum of p^(occurrences of tau1) q^(occurrences of tau2)
    over all size-n non-crossing partitions, from a single pass."""
    return _checked_last_row(joint_rows(n, tau1, tau2))


def rep_joint_distribution(n: int, tau: PatternLike) -> MultiPoly:
    """The polynomial sum of q^(occurrences) v^(smallest repeated letter)
    over all size-n non-crossing partitions (v-exponent 0 when no letter
    repeats), from a single pass."""
    return _checked_last_row(rep_joint_rows(n, tau))
