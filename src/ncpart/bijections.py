"""Constructive bijections on non-crossing partitions that exchange
subword-pattern statistics.

Five maps are provided, each validated aggressively at runtime (every
structural claim the constructions rely on is asserted, and every
produced word is re-validated as a canonical non-crossing sequence, in
one linear pass).  A map resolves its parameters (parsing, family
classification, validation) once per distinct parameter set and keeps
the result in a bounded cache, so a sweep over many partitions pays for
that work once; a bad parameter set is never cached and raises on every
call.

* :func:`map_f` — exchanges occurrences of two patterns of the shape
  (rho+1)1 (trailing-run length 1) of equal length, by rewriting each
  occurrence window in place, left to right.
* :func:`map_g` — an involution exchanging occurrences of 2·sigma·1^b
  and 2^b·sigma·1 by reversing run multiplicities inside maximal
  descending chains; it preserves the number of blocks.
* :func:`map_equiv` — the composition g, then f, then g, exchanging any
  two equal-length patterns of the shape (rho+1)1^b.
* :func:`map_runrev` — an involution exchanging occurrences of
  1^a(rho+1)1^b and 1^b(rho+1)1^a by reversing the bottom-letter run
  lengths inside maximal strings.
* :func:`map_descent_code` — an involution that reverses each section's
  ascent/plateau code between descents, exchanging occurrences of
  1^a 2 3 ... m and 1 2 ... (m-1) m^a for all a, m >= 2 at once.

:func:`map_g` and :func:`map_runrev` share one kernel, :func:`_reverse_runs`,
which reverses the run lengths inside the strings each map parses.  Each
occurrence test checks a pattern's chain links (``core._occurs_at``).
"""

from __future__ import annotations

import functools
from collections.abc import Hashable
from typing import Callable, NamedTuple, Sequence, Union

from .core import (
    _CANONICAL_NC,
    ChainLinks,
    Letters,
    NCPartition,
    RhoTail,
    Sandwich,
    SubwordPattern,
    _chain_links,
    _occurs_at,
    _param_key,
    _scan_canonical_nc,
    as_ncpartition,
    as_pattern,
    classify_pattern,
    is_canonical_nc,
    parse_sequence,
)
from .errors import EmptyPartition, FamilyViolation, PatternLengthMismatch

__all__ = [
    "TauString",
    "map_f",
    "map_g",
    "map_equiv",
    "map_runrev",
    "descent_code",
    "decode_descent_code",
    "map_descent_code",
]

PartitionLike = Union[NCPartition, Sequence[int], str]
PatternLike = Union[SubwordPattern, Sequence[int], str]


#: Distinct parameter sets whose resolution each map keeps.
_PARAM_CACHE_SIZE = 256


# ---------------------------------------------------------------------------
# Window exchange for trailing-run-1 patterns
# ---------------------------------------------------------------------------


class TauString(NamedTuple):
    """An occurrence window found by the exchange scan: the half-open
    span [start, end) and which of the two patterns it realizes
    (kind 0 = first pattern, kind 1 = second)."""

    start: int
    end: int
    kind: int


def _coerce_rho_tail(value: Union[RhoTail, PatternLike]) -> RhoTail:
    if isinstance(value, RhoTail):
        return value
    family = classify_pattern(as_pattern(value))
    if not isinstance(family, RhoTail):
        raise FamilyViolation(
            f"pattern {as_pattern(value).text!r} is not of the shape "
            "(rho+1) followed by a run of 1s"
        )
    return family


#: What :func:`map_f` exchanges: the two pattern words of the shape
#: (rho+1)1, then their chain links.
ExchangeWords = tuple[Letters, Letters, ChainLinks, ChainLinks]


def _scan_strings(
    w: Sequence[int], length: int, links1: ChainLinks, links2: ChainLinks
) -> list[TauString]:
    """All windows satisfying links1 (kind 0) or links2 (kind 1), left to right.

    Adjacent windows must be disjoint or share exactly one position —
    a structural fact for trailing-run-1 patterns that the sequential
    rewrite relies on, so it is asserted."""
    found: list[TauString] = []
    for start in range(len(w) - length + 1):
        if _occurs_at(w, start, links1):
            found.append(TauString(start, start + length, 0))
        elif _occurs_at(w, start, links2):
            found.append(TauString(start, start + length, 1))
    for prev, nxt in zip(found, found[1:]):
        if nxt.start < prev.end - 1:
            raise AssertionError(
                f"occurrence windows at {prev.start} and {nxt.start} "
                "share more than one position"
            )
    return found


def _convert_window(
    w: list[int], start: int, length: int, target_word: Letters
) -> list[int]:
    """Rewrite the window [start, start+length) to realize target_word.

    The window's distinct letters are v < u_1 < ... < u_s (v is both the
    minimum and the final letter).  The target pattern needs t+1 distinct
    letters.  Extra letters are dropped (values above the window's top
    shift down) or new letters are created just above M = max(prefix
    maximum, u_s) (values above M shift up).  Every structural claim this
    relies on is asserted, or follows from an earlier check or from M."""
    end = start + length
    window = w[start:end]
    v = window[-1]
    distinct = sorted(set(window))
    if distinct[0] != v:
        raise AssertionError("window does not end with its minimum")
    us = distinct[1:]
    s = len(us)
    t = max(target_word) - 1
    for i in range(1, s - 1):
        if us[i + 1] != us[i] + 1:
            raise AssertionError(
                "the window's fresh letters are not consecutive values"
            )
    before, after = w[:start], w[end:]
    if t <= s:
        vals = [v] + us[:t]
        removed = set(us[t:])
        threshold = us[-1]
        for letter in before:
            if letter in removed:
                raise AssertionError(
                    "letters slated for removal occur outside the window"
                )
            if letter > threshold:
                raise AssertionError(
                    "letters above the window's top occur before it"
                )
        if not removed.isdisjoint(after):
            raise AssertionError(
                "letters slated for removal occur outside the window"
            )
    else:
        threshold = max(max(before, default=0), us[-1])
        vals = [v] + us + list(range(threshold + 1, threshold + 1 + (t - s)))
    delta = t - s
    if delta:
        after = [letter + delta if letter > threshold else letter for letter in after]
    return before + [vals[r - 1] for r in target_word] + after


def map_f(
    pi: PartitionLike,
    tau: Union[RhoTail, PatternLike],
    tau2: Union[RhoTail, PatternLike],
) -> NCPartition:
    """Exchange occurrences of two equal-length patterns of the shape
    (rho+1)1, rewriting each occurrence window left to right.

    The number of tau-occurrences of the input equals the number of
    tau2-occurrences of the output and vice versa; the first and last
    positions of every occurrence window are preserved.
    """
    _, lift1, exchange, lift2 = _equiv_plan(_param_key(tau), _param_key(tau2))
    if lift1 is not None or lift2 is not None:
        raise FamilyViolation(
            "the window exchange needs trailing-run length 1 on both patterns"
        )
    return _exchange(as_ncpartition(pi), exchange)


def _exchange(partition: NCPartition, exchange: ExchangeWords) -> NCPartition:
    """The kernel of :func:`map_f`, on resolved parameters.

    Each window is rewritten in turn; after each rewrite the word must be
    canonical non-crossing and the window set must be the base set with
    the windows rewritten so far exchanged (after the last rewrite, every
    window: the final check)."""
    word1, word2, links1, links2 = exchange
    if word1 == word2:
        return partition
    length = len(word1)
    base = _scan_strings(partition.letters, length, links1, links2)
    if not base:
        return partition
    words = (word1, word2)
    w = list(partition.letters)
    expected = list(base)
    last = len(base) - 1
    for i, (start, end, kind) in enumerate(base):
        w = _convert_window(w, start, length, words[kind ^ 1])
        if _scan_canonical_nc(w) != _CANONICAL_NC:
            raise AssertionError(
                "intermediate word is not a canonical non-crossing sequence"
            )
        expected[i] = TauString(start, end, kind ^ 1)
        if i < last and _scan_strings(w, length, links1, links2) != expected:
            raise AssertionError(
                "the occurrence-window set failed to persist across rewrites"
            )
    if _scan_strings(w, length, links1, links2) != expected:
        raise AssertionError("final occurrence-window set is not fully exchanged")
    return NCPartition._checked(tuple(w))


# ---------------------------------------------------------------------------
# Run reversal inside maximal strings: the kernel of map_g and map_runrev
# ---------------------------------------------------------------------------

#: One link of a string: its letter, that letter's run length, and the
#: block that follows the run (empty for a trailing run).
Link = tuple[int, int, Letters]

#: A string parser: ``parse(w, p)`` is None or (end, links).  The maps
#: bind their resolved parameters first with ``functools.partial``.
Parser = Callable[[Letters, int], Union[tuple[int, list[Link]], None]]


def _reverse_runs(w: Letters, parse: Parser) -> NCPartition:
    """Reverse the run lengths inside every string ``parse`` finds.

    ``parse(w, p)`` returns None when no string starts at p,
    else ``(end, links)`` for the string on [p, end).  Scanning left to
    right, each string is rewritten with its letters and blocks in place
    and its run lengths reversed; the output is written as the scan goes,
    and a one-link string, which reversal leaves as it is, is copied.
    Asserted: a string that does not start where the previous one ended
    starts run-maximally on the left, and its links span it exactly; the
    result is re-validated in full."""
    out: Letters = ()
    copied = 0  # out holds the rewritten w[:copied]
    p = prev_end = 0
    n = len(w)
    while p < n:
        found = parse(w, p)
        if found is None:
            p += 1
            continue
        end, links = found
        if p > prev_end and w[p - 1] == w[p]:
            raise AssertionError("string start is not run-maximal on the left")
        if len(links) == 1:
            _, run, block = links[0]
            if run + len(block) != end - p:
                raise AssertionError("run reversal changed the string length")
        else:
            seq: Letters = ()
            for (letter, _, block), (_, run, _) in zip(links, reversed(links)):
                seq += (letter,) * run + block
            if len(seq) != end - p:
                raise AssertionError("run reversal changed the string length")
            out += w[copied:p] + seq
            copied = end
        p = prev_end = end
    return NCPartition._checked(out + w[copied:])


# ---------------------------------------------------------------------------
# Run-multiplicity reversal inside descending chains
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=_PARAM_CACHE_SIZE)
def _chain_params(sigma: Hashable) -> Parser:
    """Validate the chain-block suffix sigma; return :func:`_parse_chain`
    bound to the chain links every (u,)+block of a chain must satisfy,
    those of 2·sigma shifted down by 1.

    2·sigma must be a non-crossing word on {2, 3, ...} (that is, sigma
    shifted down by 1 and prefixed by 1 must be canonical), and sigma
    must start with 3 when nonempty."""
    if isinstance(sigma, str):
        parsed = parse_sequence(sigma)
    elif isinstance(sigma, SubwordPattern):
        parsed = tuple(v + 1 for v in sigma.word)
    else:
        parsed = tuple(int(v) for v in sigma)
    if parsed and parsed[0] != 3:
        raise FamilyViolation("sigma must start with 3 when nonempty")
    shifted = tuple(v - 1 for v in (2,) + parsed)
    if min(shifted, default=1) < 1 or not is_canonical_nc(shifted):
        raise FamilyViolation(
            f"2+sigma does not shift down to a canonical non-crossing word: "
            f"{(2,) + parsed}"
        )
    return functools.partial(_parse_chain, _chain_links(shifted))


def _parse_chain(
    target: ChainLinks, w: Letters, p: int
) -> tuple[int, list[Link]] | None:
    """Parse the maximal descending chain starting at position p.

    A chain is u_1^{r_1} B_1 u_2^{r_2} B_2 ... u_t^{r_t} B_t u^{r} with
    strictly descending u_i, every (u_i,)+B_i order-isomorphic to
    (2,)+sigma (whose chain links are target), all run lengths >= 1, and
    a final run of a letter below u_t (absent when the word ends inside a
    link); that run is the last link, with an empty block.  A matched
    block that would close the chain — the letter after it is not below
    u — is left outside and the u-run ends the chain instead: no
    occurrence of either exchanged pattern can use such a block,
    rebuilding places the block identically either way, and keeping it
    out of the span lets a chain that genuinely starts inside it be found
    by a later scan.  Returns (end, links), or None when no link starts
    at p.  A lone link is harmless: reversing it is the identity, and
    consuming it skips nothing a later scan would find.  With nonempty
    sigma it ends the word, and a link starting inside its block would
    need more letters than remain; with empty sigma it is a maximal run
    whose next letter is not below it.
    """
    n = len(w)
    msig = len(target)  # one link per letter of sigma
    links: list[Link] = []
    pos = p
    above = w[p] + 1  # every link's letter is below the previous one
    while pos < n:
        u = w[pos]
        if u >= above:
            break
        above = u
        after = pos + 1
        while after < n and w[after] == u:
            after += 1
        run = after - pos
        if msig == 0:
            links.append((u, run, ()))
            pos = after
            continue
        # w[after - 1] is u, so this tests the window (u,) + block.
        if after + msig <= n and _occurs_at(w, after - 1, target):
            nxt = after + msig
            if nxt == n or w[nxt] < u:
                links.append((u, run, w[after:nxt]))
                pos = nxt
                continue
        if links:
            links.append((u, run, ()))
            pos = after
        break
    if not links:
        return None
    return pos, links


def map_g(pi: PartitionLike, sigma: PatternLike, b: int) -> NCPartition:
    """Involution exchanging occurrences of 2·sigma·1^b and 2^b·sigma·1.

    Maximal descending chains are located and their run-multiplicity
    vectors reversed in place; the chain letters and sigma-blocks are
    untouched, so the number of blocks of the partition is preserved.
    The transformation itself does not depend on b; b >= 2 names the
    statistic pair being exchanged and is required.
    """
    if int(b) < 2:
        raise FamilyViolation("the trailing-run length b must be at least 2")
    parse = _chain_params(_param_key(sigma))
    return _reverse_runs(as_ncpartition(pi).letters, parse)


def map_equiv(
    pi: PartitionLike,
    tau: Union[RhoTail, PatternLike],
    tau2: Union[RhoTail, PatternLike],
) -> NCPartition:
    """Exchange occurrences of two equal-length patterns of the shape
    (rho+1)1^b, by reducing each to its trailing-run-1 form with
    :func:`map_g`, exchanging with :func:`map_f`, and lifting back."""
    same, lift1, exchange, lift2 = _equiv_plan(_param_key(tau), _param_key(tau2))
    partition = as_ncpartition(pi)
    if same:
        return partition
    if lift1 is not None:
        partition = _reverse_runs(partition.letters, lift1)
    partition = _exchange(partition, exchange)
    if lift2 is not None:
        partition = _reverse_runs(partition.letters, lift2)
    return partition


@functools.lru_cache(maxsize=_PARAM_CACHE_SIZE)
def _equiv_plan(
    tau: Hashable, tau2: Hashable
) -> tuple[bool, Parser | None, ExchangeWords, Parser | None]:
    """The steps of :func:`map_equiv` for one pattern pair, resolved for
    the kernels: whether the families are equal, the chain parser of the
    map_g reducing the first pattern (None when b = 1), what map_f
    exchanges between the two trailing-run-1 forms, and the chain parser
    of the map_g lifting back.  A reduction's sigma is rho[1:] lifted;
    its b (the pattern's, >= 2) only names the exchanged pair."""
    fam1 = _coerce_rho_tail(tau)
    fam2 = _coerce_rho_tail(tau2)
    len1 = len(fam1.rho) + fam1.b
    len2 = len(fam2.rho) + fam2.b
    if len1 != len2:
        raise PatternLengthMismatch(
            f"patterns have different lengths: {len1} != {len2}"
        )

    def reduced(fam: RhoTail) -> RhoTail:
        if fam.b == 1:
            return fam
        return RhoTail((1,) * fam.b + fam.rho[1:], 1)

    def lift(fam: RhoTail) -> Parser | None:
        if fam.b == 1:
            return None
        return _chain_params(tuple(v + 1 for v in fam.rho[1:]))

    word1, word2 = reduced(fam1).pattern().word, reduced(fam2).pattern().word
    exchange = (word1, word2, _chain_links(word1), _chain_links(word2))
    return fam1 == fam2, lift(fam1), exchange, lift(fam2)


# ---------------------------------------------------------------------------
# Bottom-run reversal for sandwiched patterns
# ---------------------------------------------------------------------------


def _parse_runstring(
    rho_links: ChainLinks, w: Letters, p: int
) -> tuple[int, list[Link]] | None:
    """Parse the maximal string x^{i_1} A_1 x^{i_2} ... A_r x^{i_{r+1}}
    starting at p: every A_j order-isomorphic to rho (whose chain links
    are rho_links) with all its letters above x, every run length >= 1
    including the trailing one, and at least one block.  Returns (end,
    links), the links being (x, i_j, A_j) and finally (x, i_{r+1}, ())."""
    n = len(w)
    m = len(rho_links) + 1  # rho is nonempty
    x = w[p]
    links: list[Link] = []
    pos = p
    while True:
        run_start = pos
        pos += 1
        while pos < n and w[pos] == x:
            pos += 1
        close = pos + m
        if close >= n or w[close] != x:
            break
        block = w[pos:close]
        if not _occurs_at(w, pos, rho_links) or min(block) <= x:
            break
        links.append((x, pos - run_start, block))
        pos = close
    if not links:
        return None
    links.append((x, pos - run_start, ()))
    return pos, links


def _maximal_runstring(
    rho_links: ChainLinks, w: Letters, p: int
) -> tuple[int, list[Link]] | None:
    """:func:`_parse_runstring`, asserting that no string starting inside
    the one found reaches past its end."""
    found = _parse_runstring(rho_links, w, p)
    if found is not None:
        for q in range(p + 1, found[0]):
            probe = _parse_runstring(rho_links, w, q)
            if probe is not None and probe[0] > found[0]:
                raise AssertionError("maximal run strings are not disjoint")
    return found


@functools.lru_cache(maxsize=_PARAM_CACHE_SIZE)
def _runrev_rho(rho: Hashable, a: int, b: int) -> Parser:
    """:func:`_maximal_runstring` bound to the chain links of rho, once a,
    rho and b pass Sandwich validation."""
    rho_word = as_pattern(rho).word
    Sandwich(int(a), rho_word, int(b))
    return functools.partial(_maximal_runstring, _chain_links(rho_word))


def map_runrev(
    pi: PartitionLike, a: int, rho: PatternLike, b: int
) -> NCPartition:
    """Involution exchanging occurrences of 1^a(rho+1)1^b and
    1^b(rho+1)1^a: inside every maximal bottom-letter/block string the
    run-length vector is reversed while the blocks stay fixed.

    The transformation depends only on rho; a and b name the exchanged
    statistic pair (any a, b >= 1).  A string's trailing run is maximal,
    so one starting where the previous one ended cannot continue a run:
    the kernel's left-maximality check covers every string start."""
    parse = _runrev_rho(_param_key(rho), a, b)
    return _reverse_runs(as_ncpartition(pi).letters, parse)


# ---------------------------------------------------------------------------
# Descent-section code reversal
# ---------------------------------------------------------------------------


#: A descent code: the section bottoms, then each section's code.
DescentCode = tuple[Letters, tuple[Letters, ...]]


def descent_code(pi: PartitionLike) -> DescentCode:
    """Encode a nonempty partition as (section bottoms, section codes).

    The word splits at descents into maximal weakly increasing sections;
    ``bottoms[i]`` is the first letter of section i (always 1 for the
    first), and ``codes[i]`` records each within-section step as
    1 (ascent) or 0 (plateau)."""
    partition = as_ncpartition(pi)
    if len(partition) == 0:
        raise EmptyPartition("the empty partition has no descent code")
    return _descent_code(partition.letters)


def _descent_code(letters: Letters) -> DescentCode:
    """:func:`descent_code` of the letters of a nonempty partition."""
    bottoms = [letters[0]]
    codes: list[Letters] = []
    code: Letters = ()
    for prev, nxt in zip(letters, letters[1:]):
        if nxt > prev:
            code += (1,)
        elif nxt == prev:
            code += (0,)
        else:
            codes.append(code)
            code = ()
            bottoms.append(nxt)
    codes.append(code)
    return tuple(bottoms), tuple(codes)


def decode_descent_code(
    bottoms: Sequence[int], codes: Sequence[Sequence[int]]
) -> NCPartition:
    """Rebuild the unique canonical non-crossing word with the given
    section bottoms and ascent/plateau codes.

    Within a section the steps are forced: an ascent always goes to
    (running maximum) + 1 — in a canonical non-crossing word no other
    letter can exceed the current one — and a plateau repeats.  The
    result is validated in full; inconsistent inputs raise ValueError.
    """
    if not bottoms or len(bottoms) != len(codes):
        raise ValueError("need exactly one code per section bottom")
    if bottoms[0] != 1:
        raise ValueError("the first section must start at 1")
    out: list[int] = []
    maximum = last = 0
    for start, code in zip(bottoms, codes):
        start = int(start)
        if out and start >= last:
            raise ValueError("every section bottom must descend")
        out.append(start)
        last = start
        if start > maximum:
            maximum = start
        for bit in code:
            if bit == 1:
                maximum += 1
                last = maximum
            elif bit != 0:
                raise ValueError("code bits must be 0 or 1")
            out.append(last)
    return NCPartition._checked(tuple(out))


def map_descent_code(pi: PartitionLike) -> NCPartition:
    """Involution that reverses every section's ascent/plateau code while
    keeping the descent bottoms.

    Exchanges occurrences of 1^a 2 3 ... m and 1 2 ... (m-1) m^a for all
    a, m >= 2 simultaneously; sections keep their sets of distinct
    letters, so ascent tops and block count are preserved."""
    partition = as_ncpartition(pi)
    if not partition.letters:
        raise EmptyPartition("the empty partition has no descent code")
    bottoms, codes = _descent_code(partition.letters)
    flipped = tuple(code[::-1] for code in codes)
    result = decode_descent_code(bottoms, flipped)
    if _descent_code(result.letters) != (bottoms, flipped):
        raise AssertionError("descent-code round trip failed")
    return result
