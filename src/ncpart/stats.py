"""Statistics of non-crossing partitions: subword-pattern occurrence counts
and their exact distributions as marker polynomials.

The row functions never materialize the partitions, and one pass
produces the rows for every size up to the requested bound.  The engines
return those rows, one ``MultiPoly`` per size, built once from their
nonzero cells and cached; the row functions hand out slices of them.
Every row passes one check as it enters the cache (``_rows``): positive
int coefficients that sum to C_k at size k, at q = p = v = 1.

- ``_transfer`` (``engine="transfer"``, the default) is a transfer matrix;
  a batch of patterns or a joint distribution takes one pass.  A prefix's
  state keeps only its open letters, the closed letters still in its
  trailing window, that window and its smallest repeated letter.  The
  window is only the longest suffix that could still start an occurrence,
  which keeps long patterns cheap, and it holds the top letters, so a state
  is a window shape plus k open letters below it: the states grow linearly
  in the size (quadratically in "rep" mode).  Each call first builds this
  (shape, k) automaton from the words alone (``_automaton``), deriving
  every reachable shape's moves once, then packs the moves for its mode
  into one table and steps each shape's weights over all k at once, k
  being a catalytic variable: the move shared by every letter below the
  window is one running sum over k.
  A weight packs its prefix counts, by occurrence count, into the cells
  of one int; no cell counts the prefixes themselves.
- ``_walk`` (``engine="brute"``, the CLI's ``--method brute``) walks the
  prefix tree depth-first for one word, at O(C_n) per size; a batch walks
  once per word.  It is the exhaustive reference for the transfer engine's
  separate rows, and like ``count_subword`` it tests windows against the
  word's chain links: it shares nothing with the engine that standardises.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Hashable
from itertools import accumulate, compress
from operator import add
from typing import Sequence, Union

from .algebra import MultiPoly, _poly_from_clean
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
    length, links = _pattern_constraints(_param_key(tau))
    return _occurrences(as_ncpartition(pi).letters, length, links)


def _occurrences(letters: Sequence[int], length: int, links: ChainLinks) -> int:
    """Number of windows of letters that satisfy the chain links of a word
    of the given length; a sweep over one pattern resolves them once."""
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


# ---------------------------------------------------------------------------
# Distribution engine
# ---------------------------------------------------------------------------


def _walk(n_max: int, word: Letters) -> list[MultiPoly]:
    """rows[k] (k <= n_max): the occurrences of word (marker q) over the
    size-k prefixes, from one depth-first walk of the prefix tree.

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
    return [_poly_from_clean({(c, 0, 0): m for c, m in t.items() if m}) for t in tables]


# A level keys each (shape id, r) group to its weights at k = 0, 1, ...
# (0: no prefix); ``_automaton`` says what a shape and r are.
Group = tuple[int, int]

_CELL_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}  # ``struct`` codes by width

#: Distinct windows whose standard form and next shape the transfer engine
#: keeps across calls; windows are token indices, so patterns share them.
_WINDOW_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _standard_form(window: Letters) -> Letters:
    """``core._standardise`` of a window of token indices, memoised."""
    return _standardise(window)


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _shape_after(stepped: str, window: Letters) -> tuple[tuple[str, Letters], int]:
    """The shape after a step and the open letters below its window, from
    the tokens after the step and the indices of those the window keeps."""
    tokens = ""
    index = []
    for i, kind in enumerate(stepped):
        index.append(len(tokens))
        if kind == "o" or i in window:
            tokens += kind
    bottom = index[min(window)] if window else len(tokens)
    shape = (tokens[bottom:], tuple(index[i] - bottom for i in window))
    if set(shape[1]) != set(range(len(shape[0]))):
        raise AssertionError("window not at the top")
    return shape, bottom


def _automaton(words: tuple[Letters, ...]) -> list[list[tuple]]:
    """The transfer engine's automaton for a tuple of words: by shape id,
    the shape's moves, each (below, repeat, hits, next shape id, bottom).

    A state of the transfer engine is (shape, k, r).  The letters that
    still matter are tokens in value order, "o" for an open letter and "c"
    for a closed one inside the window, which is the longest suffix (at
    most L - 1 letters, L the longest word) that standardises to a proper
    prefix of a word; earlier letters can take part in no later
    occurrence.  The window holds the top tokens, so a shape is (the
    tokens from the window's lowest up, the window's token indices
    relative to that lowest), and ``k`` counts the open letters below it.
    ``r`` is the token index of the smallest repeated letter (-1 if none).

    The window sits at the top of the token order: every token from its
    lowest up is in it.  A closed token outside the window is dropped.  An
    open letter x above the window's lowest letter but outside the window
    was last written before the window began; that lowest letter is below
    x and written after it, so it closed x.  A state is therefore a window
    shape with k open letters below it, asserted on every shape built and
    so on every state.  Each shape's moves are derived once, with the
    window's bottom taken as 0: the fresh letter, each open window token
    i, then one move shared by every letter j below the window (below =
    True).  That letter ranks below the whole window, so the hits and the
    next shape do not depend on j; the letters between j and the window
    close and, being outside it, are dropped, so j open letters stay below
    the next window (j + 1 if it is empty).

    The letter chosen repeats when it is open token k + i, or j:
    ``repeat`` is i, 0 below the window and None for the fresh letter.
    ``hits`` lists the index of each word a suffix of the new window
    standardises to, so a word listed twice is hit twice, and ``bottom``
    counts the open letters below the next window.  Shape 0 is the empty
    prefix's, and the shapes are built outwards from it, so the table
    holds every shape reachable from it; it depends on the words alone.
    """
    # length -> {word: its indices}: a word listed twice is hit twice.
    by_length: dict[int, dict[Letters, list[int]]] = {}
    for p, word in enumerate(words):
        by_length.setdefault(len(word), {}).setdefault(word, []).append(p)
    # The standardised proper prefixes of the words, tried longest first.
    starts = {_standard_form(word[:m]) for word in words for m in range(1, len(word))}
    lengths = sorted({len(start) for start in starts}, reverse=True)
    # shape (tokens, window) -> its id, numbered in the order moves reach them
    shapes: dict[tuple[str, Letters], int] = {("", ()): 0}

    def move(stepped: str, w: Letters) -> tuple[list[int], int, int]:
        """(hits, next shape, open letters below its window) of the letter
        ending w, a window of token indices into ``stepped``, the tokens
        after the step."""
        hits = [
            p
            for length, table in by_length.items()
            if length <= len(w)
            for p in table.get(_standard_form(w[-length:]), ())
        ]
        # The longest suffix of w that standardises to a proper prefix of a
        # word: no letter before it can be part of a later occurrence.
        kept = (w[-m:] for m in lengths if m <= len(w))
        window = next((suffix for suffix in kept if _standard_form(suffix) in starts), ())
        shape, bottom = _shape_after(stepped, window)
        return hits, shapes.setdefault(shape, len(shapes)), bottom

    automaton: list[list[tuple]] = []
    # Each round derives the moves of the shapes the last round reached.
    while len(automaton) < len(shapes):
        for tokens, window in list(shapes)[len(automaton) :]:
            top = len(tokens)
            out = [
                (False, i if i < top else None)
                + move(tokens[:i] + "o" + "c" * (top - i - 1), window + (i,))
                for i, kind in enumerate(tokens + "o")  # index top is the fresh letter
                if kind == "o"
            ]
            below = move("o" + "c" * top, tuple(i + 1 for i in window) + (0,))
            automaton.append(out + [(True, 0) + below])
    return automaton


def _transfer(mode: str, n_max: int, words: tuple[Letters, ...]) -> list:
    """The rows of every size k <= n_max, from a transfer matrix: one list
    of rows (rows[k] over the size-k prefixes) per marginal.

    "separate": one list per word, words[p]'s occurrences marked by q.
    "joint": one list, words[0]'s occurrences marked by p and words[1]'s by
    q.  "rep": one list, words[0]'s occurrences marked by q and the
    smallest repeated letter by v (exponent 0 when nothing repeats).

    Prefixes in the same state have the same futures, so the engine steps
    every state of one size to the next and carries, per state, how many
    prefixes reach it with each count.  The next letter is fresh or an open
    token j; choosing j closes every open letter above it.  A closed letter
    ranks the same against every later letter, so the occurrence test needs
    only the token indices of the window, and a closed letter is dropped
    once it leaves the window.  Every letter below the smallest repeated
    letter is open (closing one would repeat a smaller letter), so r's
    letter is r + 1.  ``_automaton`` builds the states' shapes and each
    shape's moves, once per call and before the first step.

    So the engine steps each (shape, r) vector of weights over k once per
    move of the shape.  A move up to window token or fresh letter i sends
    the weight at k to k + bottom; the move below the window sends, for
    each j, the prefixes of every k > j to j + bottom: one running sum from
    the top k down, O(K) additions, not O(K^2) edges.  In "rep" mode the
    open token k + i, or j, chosen below r is the new r.

    A weight is one int with a ``width``-bit cell per count, wide enough for
    C(n_max), the most a cell holds, so adding ints adds cells.  A word takes
    ``span`` cells, up to its most possible occurrences: "separate" puts
    (p, c) at p * span + c, with no prefix-count cell, "joint" and "rep"
    put (c0, c1) at c0 * span + c1.  A hit moves cells up by a mask and a
    shift.  ``_rows`` checks the rows, as it checks every engine's.  The
    call packs its automaton's moves for its mode into one table by shape
    id, which lives only in this call; the standard forms and next shapes
    of windows are memoised across calls.
    """
    separate = mode == "separate"
    track_rep = mode == "rep"
    width = max(8, 1 << (catalan(n_max).bit_length() - 1).bit_length())
    # A word of length L occurs at most n_max - L + 1 times.  "rep" mode has
    # one word, so its c1 is always 0 and a stride of one cell holds c0.
    shortest = min(map(len, words), default=n_max + 1)
    span = 1 if track_rep else max(1, n_max + 2 - shortest)
    block = width * span

    def pack(below: bool, repeat: int | None, hits: list[int], sid: int, bottom: int) -> tuple:
        """An automaton move as ``_step`` reads it: (below, repeat, keep,
        mask, shift, next shape, bottom), where a weight w hit by the step
        becomes (w & keep) | (w & mask) << shift.  Only "rep" mode keeps
        ``repeat``; the others have None."""
        if not separate:
            shift = width * (hits.count(0) * span + hits.count(1))
            return below, repeat if track_rep else None, 0, -1, shift, sid, bottom
        mask = 0
        for p in hits:
            mask |= (1 << block) - 1 << block * p
        return below, None, ~mask, mask, width if hits else 0, sid, bottom

    # Shape id -> its moves, packed for this mode before the first step.
    moves = [[pack(*move) for move in shape_moves] for shape_moves in _automaton(words)]
    # The empty prefix: one prefix, every word at count 0.
    first = ((1 << block * len(words)) - 1) // ((1 << block) - 1) if separate else 1
    level: dict[Group, list[int]] = {(0, -1): [first]}
    by_size = []
    for size in range(n_max + 1):
        if size:
            level = _step(level, moves)
        by_size.append(_record(level, len(words), mode, width, span))
    return [list(rows) for rows in zip(*by_size)]


def _step(level: dict, moves: list) -> dict:
    """The next level: every (shape, r) vector of ``level`` stepped by each
    of its shape's moves, ``moves[shape]`` as ``_transfer`` packs them."""
    nxt: dict[Group, list[int]] = {}
    for (sid, r), weights in level.items():
        # Below the window, letter j takes the prefixes of every k > j,
        # summed from the top down.
        above = list(accumulate(weights[:0:-1]))[::-1]
        for below, repeat, keep, mask, shift, sid2, at in moves[sid]:
            moved = above if below else weights
            if shift:
                moved = [(w & keep) | (w & mask) << shift for w in moved]
            if repeat is not None and (r < 0 or repeat < r):
                # Open token j = k + repeat repeats; below r, it is the new r.
                cut = len(moved) if r < 0 else min(len(moved), r - repeat)
                for k in compress(range(cut), moved):
                    vec = nxt.setdefault((sid2, k + repeat), [])
                    if len(vec) <= k + at:
                        vec += [0] * (k + at + 1 - len(vec))
                    vec[k + at] += moved[k]
                moved, at = moved[cut:], at + cut
            if any(moved):
                vec = nxt.get((sid2, r))
                if vec is None:
                    nxt[sid2, r] = [0] * at + moved
                    continue
                end = at + len(moved)
                if len(vec) < end:
                    vec += [0] * (end - len(vec))
                vec[at:end] = map(add, vec[at:end], moved)
    return nxt


def _cells(weight: int, width: int) -> Sequence[int]:
    """The ``width``-bit cells of a weight, lowest first."""
    count = -(-weight.bit_length() // width)
    data = weight.to_bytes(count * width // 8, "little")
    if width <= 64:
        return struct.unpack(f"<{count}{_CELL_CODES[width]}", data)
    cells = [data[i : i + width // 8] for i in range(0, len(data), width // 8)]
    return [int.from_bytes(cell, "little") for cell in cells]


def _record(level: dict, n_words: int, mode: str, width: int, span: int) -> list:
    """A level's row of each of ``_transfer``'s marginals, built from the
    nonzero cells."""
    if mode == "separate":
        cells = _cells(sum(map(sum, level.values())), width)
        exps = [(c, 0, 0) for c in range(span)]
        rows = []
        for start in range(0, n_words * span, span):
            counts = cells[start : start + span]
            # A word no prefix has yet, as most are in a batch's early sizes:
            # only its count-0 cell is nonzero.
            alone = counts.count(0) == len(counts) - 1 and counts[0]
            terms = {exps[0]: counts[0]} if alone else dict(compress(zip(exps, counts), counts))
            rows.append(_poly_from_clean(terms))
        return rows
    by_r: dict[int, int] = {}  # "joint" mode has r = -1 throughout
    for (_, r), vec in level.items():
        by_r[r] = by_r.get(r, 0) + sum(vec)
    terms: dict[tuple[int, int, int], int] = {}
    for r, weight in by_r.items():
        cells = _cells(weight, width)
        for cell, m in compress(enumerate(cells), cells):
            c0, c1 = divmod(cell, span)
            terms[(c1, c0, 0) if mode == "joint" else (c0, 0, r + 1)] = m
    return [_poly_from_clean(terms)]


#: The separate-row engines, by name, each (n_max, words) -> one list of
#: rows per word: the transfer matrix serves every row by default; "brute"
#: walks the prefix tree once per word.
_ENGINES = {
    "transfer": functools.partial(_transfer, "separate"),
    "brute": lambda n_max, words: [_walk(n_max, word) for word in words],
}

# Rows keyed by (engine, mode, words); values are (n_max, one list of rows
# per marginal, each holding rows[k] for k <= n_max).
_CACHE: dict[tuple[str, str, tuple[Letters, ...]], tuple[int, list]] = {}


def _rows(mode: str, n_max: int, words: tuple[Letters, ...], engine: str) -> list:
    """``_transfer``'s rows, or ``_ENGINES[engine]``'s for "separate", cut
    to sizes 0..n_max: fresh lists on every call, so a caller may change
    them without changing the cache.  Every engine row enters ``_CACHE``
    here only, after one check: each marginal holds n_max + 1 rows, and
    rows[k] has positive ``int`` coefficients summing to C_k."""
    _check_size(n_max)
    key = (engine, mode, words)
    cached = _CACHE.get(key)
    if cached is None or cached[0] < n_max:
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; engines: {', '.join(_ENGINES)}")
        build = _ENGINES[engine] if mode == "separate" else functools.partial(_transfer, mode)
        marginals = build(n_max, words)
        totals = [catalan(k) for k in range(n_max + 1)]
        for rows in marginals:
            if len(rows) != len(totals):
                raise AssertionError(f"{len(rows)} engine rows for sizes 0..{n_max}")
            for k, (row, total) in enumerate(zip(rows, totals)):
                coeffs = row._terms.values()
                positive = all(type(c) is int and c > 0 for c in coeffs)
                if not positive or sum(coeffs) != total:
                    raise AssertionError(f"engine row {k} does not count C_{k} = {total}: {row}")
        cached = _CACHE[key] = (n_max, marginals)
    return [rows[: n_max + 1] for rows in cached[1]]


# ---------------------------------------------------------------------------
# Distribution rows
# ---------------------------------------------------------------------------


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
    words = tuple(as_pattern(t).word for t in taus)
    return _rows("separate", n_max, words, engine)


def joint_rows(n_max: int, tau1: PatternLike, tau2: PatternLike) -> list[MultiPoly]:
    """Joint distributions: tau1 marked by p, tau2 marked by q."""
    words = (as_pattern(tau1).word, as_pattern(tau2).word)
    return _rows("joint", n_max, words, "transfer")[0]


def rep_joint_rows(n_max: int, tau: PatternLike) -> list[MultiPoly]:
    """Joint distributions: occurrences marked by q, smallest repeated
    letter marked by v (exponent 0 when nothing repeats)."""
    words = (as_pattern(tau).word,)
    return _rows("rep", n_max, words, "transfer")[0]


def distribution(n: int, tau: PatternLike) -> MultiPoly:
    """The polynomial sum of q^(occurrences of tau) over all size-n
    non-crossing partitions."""
    return distribution_rows(n, tau)[-1]


def joint_distribution(n: int, tau1: PatternLike, tau2: PatternLike) -> MultiPoly:
    """The polynomial sum of p^(occurrences of tau1) q^(occurrences of tau2)
    over all size-n non-crossing partitions, from a single pass."""
    return joint_rows(n, tau1, tau2)[-1]


def rep_joint_distribution(n: int, tau: PatternLike) -> MultiPoly:
    """The polynomial sum of q^(occurrences) v^(smallest repeated letter)
    over all size-n non-crossing partitions (v-exponent 0 when no letter
    repeats), from a single pass."""
    return rep_joint_rows(n, tau)[-1]
