"""Canonical sequences of non-crossing set partitions, their enumeration,
and the classification of subword patterns into structural families.

A set partition of {1, ..., n} is encoded by its canonical sequence: letter
i is the block index of element i, blocks numbered by first appearance.
Such sequences are exactly the restricted growth strings.  The partition is
non-crossing when no four positions i < j < k < l carry letters a, b, a, b
with a != b.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import FamilyViolation, InvalidPattern, LimitExceeded

__all__ = [
    "DEFAULT_ENUM_LIMIT",
    "NCPartition",
    "SubwordPattern",
    "Run",
    "RunAscent",
    "StaircaseTail",
    "RunStaircase",
    "Sandwich",
    "RhoTail",
    "Generic",
    "PatternFamily",
    "parse_sequence",
    "format_sequence",
    "is_restricted_growth",
    "is_noncrossing_pairwise",
    "is_canonical_nc",
    "iter_rgs",
    "iter_nc",
    "enumerate_nc",
    "catalan",
    "classify_pattern",
    "classify_all",
    "as_ncpartition",
    "as_pattern",
]

#: Largest n accepted by the enumerators and the distribution engines.
DEFAULT_ENUM_LIMIT = 16

Letters = tuple[int, ...]
SequenceLike = Union["NCPartition", Sequence[int], str]


def parse_sequence(text: str) -> Letters:
    """Parse the text form of a sequence.

    A digit string such as ``'1231'`` when every letter fits one digit;
    a comma-separated list such as ``'1,2,3,10'`` otherwise.  The empty
    string denotes the empty sequence.  Letters are ASCII digits; spaces
    may surround a comma-separated letter.
    """
    text = text.strip()
    if not text:
        return ()
    parts = [part.strip() for part in text.split(",")] if "," in text else text
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"cannot parse sequence text {text!r}")
    return tuple(map(int, parts))


def format_sequence(letters: Sequence[int]) -> str:
    """Inverse of :func:`parse_sequence`."""
    if not letters:
        return ""
    if max(letters) <= 9:
        return "".join(str(v) for v in letters)
    return ",".join(str(v) for v in letters)


def _letters_of(value: SequenceLike) -> Letters:
    if isinstance(value, NCPartition):
        return value.letters
    if isinstance(value, str):
        return parse_sequence(value)
    return tuple(map(int, value))


def is_restricted_growth(word: SequenceLike) -> bool:
    """True when the word starts at 1 and never jumps past (max so far) + 1."""
    letters = _letters_of(word)
    maximum = 0
    for v in letters:
        if v < 1 or v > maximum + 1:
            return False
        if v > maximum:
            maximum = v
    return True


#: Outcomes of :func:`_scan_canonical_nc`.
_CANONICAL_NC, _NOT_RGS, _CROSSING = 0, 1, 2


def _scan_canonical_nc(letters: Letters) -> int:
    """One linear pass that checks restricted growth and non-crossing.

    Maintains the set of letters that may still recur (kept on a stack in
    increasing order).  A letter repeats legally only if it is still open;
    repeating it closes every letter above it forever.  A crossing does not
    end the pass: a later restricted-growth violation still takes precedence.
    """
    stack: list[int] = []
    maximum = 0
    crossing = False
    for v in letters:
        if v > maximum:
            if v != maximum + 1:
                return _NOT_RGS
            stack.append(v)
            maximum = v
        elif v < 1:
            return _NOT_RGS
        elif not crossing:
            # v recurs; it must still be open.  The stack holds 1 here.
            top = stack[-1]
            while top > v:
                stack.pop()
                top = stack[-1]
            crossing = top != v
    return _CROSSING if crossing else _CANONICAL_NC


def is_canonical_nc(word: SequenceLike) -> bool:
    """True when the word is restricted growth and non-crossing (one pass)."""
    return _scan_canonical_nc(_letters_of(word)) == _CANONICAL_NC


def is_noncrossing_pairwise(word: SequenceLike) -> bool:
    """Quadratic-time check that a restricted growth string is non-crossing,
    written independently of :func:`is_canonical_nc`.

    A crossing a-b-a-b (a < b) exists if and only if some position pair
    j < k has word[j] > word[k] while word[j] still occurs after k: the
    first occurrences of the two letters then complete the pattern.

    Raises ValueError when the word is not restricted growth at all.
    """
    letters = _letters_of(word)
    if not is_restricted_growth(letters):
        raise ValueError(f"not a restricted growth string: {letters!r}")
    n = len(letters)
    last: dict[int, int] = {}
    for idx, v in enumerate(letters):
        last[v] = idx
    for j in range(n):
        vj = letters[j]
        for k in range(j + 1, n):
            if letters[k] < vj and last[vj] > k:
                return False
    return True


def _check_canonical_nc(letters: Letters) -> None:
    """Raise the ValueError of a word that is not a canonical non-crossing
    sequence: the check of :class:`NCPartition`."""
    status = _scan_canonical_nc(letters)
    if status == _NOT_RGS:
        raise ValueError(f"not a restricted growth string: {letters!r}")
    if status == _CROSSING:
        raise ValueError(f"sequence has a crossing: {letters!r}")


class NCPartition:
    """The canonical sequence of a non-crossing set partition."""

    __slots__ = ("letters",)

    def __init__(self, letters: SequenceLike) -> None:
        values = _letters_of(letters)
        _check_canonical_nc(values)
        _set_letters(self, values)

    @classmethod
    def _checked(cls, letters: Letters) -> "NCPartition":
        """Validate and wrap an int tuple the package built itself: one
        scan, no coercion, the errors of ``NCPartition(letters)``."""
        _check_canonical_nc(letters)
        obj = _new(cls)
        _set_letters(obj, letters)
        return obj

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def text(self) -> str:
        return format_sequence(self.letters)

    @property
    def block_count(self) -> int:
        return max(self.letters) if self.letters else 0

    def blocks(self) -> list[tuple[int, ...]]:
        """The blocks as tuples of 1-based element indices."""
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for idx, v in enumerate(self.letters, start=1):
            out[v - 1].append(idx)
        return [tuple(block) for block in out]

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, idx):
        return self.letters[idx]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NCPartition):
            return self.letters == other.letters
        return NotImplemented

    def __lt__(self, other: "NCPartition") -> bool:
        return self.letters < other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text!r})"


#: Store the one slot directly through its member descriptor (the class
#: forbids attribute assignment).
_set_letters = NCPartition.letters.__set__
_new = object.__new__


def as_ncpartition(value: SequenceLike) -> NCPartition:
    """Coerce text, raw letters, or an existing partition to NCPartition."""
    if isinstance(value, NCPartition):
        return value
    return NCPartition(value)


def catalan(n: int) -> int:
    """The n-th Catalan number, exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def iter_rgs(n: int) -> Iterator[Letters]:
    """All restricted growth strings of length n, in lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    letters = [1] * n
    maxima = [1] * n  # running maximum up to each position
    while True:
        yield tuple(letters)
        # advance like an odometer where position i may hold 1..maxima[i-1]+1
        i = n - 1
        while i > 0 and letters[i] == maxima[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        letters[i] += 1
        maxima[i] = max(maxima[i - 1], letters[i])
        for j in range(i + 1, n):
            letters[j] = 1
            maxima[j] = maxima[i]


def _check_size(n: int) -> None:
    """The one size check of every enumeration and distribution route."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_ENUM_LIMIT:
        raise LimitExceeded(
            f"n = {n} exceeds the enumeration limit {DEFAULT_ENUM_LIMIT}"
        )


def iter_nc(n: int) -> Iterator[NCPartition]:
    """Yield all non-crossing partitions of size n in lexicographic order.

    The walk extends a prefix letter by letter; the letters that may follow
    a prefix are exactly the still-open letters plus (max so far) + 1, so no
    dead branches are ever visited and nothing is generated-then-filtered.
    """
    _check_size(n)
    if n == 0:
        yield NCPartition._checked(())
        return
    new, set_letters, cls = _new, _set_letters, NCPartition
    last = n - 1
    # Prefixes still to extend, depth-first: (letters, letters that may
    # repeat, largest letter).  Children are pushed largest first so that
    # they pop in lexicographic order.  The last letter is yielded directly,
    # each leaf wrapped without a check: it is valid by construction.
    todo: list[tuple[Letters, Letters, int]] = [((), (), 0)]
    while todo:
        letters, stack, maximum = todo.pop()
        fresh = maximum + 1
        if len(letters) == last:
            for v in stack + (fresh,):
                leaf = new(cls)
                set_letters(leaf, letters + (v,))
                yield leaf
            continue
        todo.append((letters + (fresh,), stack + (fresh,), fresh))
        for idx in range(len(stack) - 1, -1, -1):
            todo.append((letters + (stack[idx],), stack[: idx + 1], maximum))


def enumerate_nc(n: int) -> list[NCPartition]:
    """All non-crossing partitions of size n, lexicographically sorted."""
    return list(iter_nc(n))


# ---------------------------------------------------------------------------
# Subword patterns and their families
# ---------------------------------------------------------------------------


def _standardise(window: Letters) -> Letters:
    """The pattern word order-isomorphic to window: the i-th smallest
    distinct value becomes i."""
    ranks = {v: r for r, v in enumerate(sorted(set(window)), 1)}
    return tuple(ranks[v] for v in window)


#: A pattern's chain links: its positions sorted by (letter, position), as
#: (position, next position, equal) for each consecutive pair.
ChainLinks = tuple[tuple[int, int, bool], ...]


def _chain_links(word: Letters) -> ChainLinks:
    """The L - 1 chain links of a word of length L.  A window is
    order-isomorphic to the word when the letters at each link's two
    positions are equal (``equal``) or strictly increasing (otherwise): the
    links order the whole window as the word is ordered, unstandardised."""
    order = sorted(range(len(word)), key=lambda i: (word[i], i))
    return tuple((i, j, word[i] == word[j]) for i, j in zip(order, order[1:]))


def _occurs_at(letters: Sequence[int], start: int, links: ChainLinks) -> bool:
    """Whether the window of letters at start, as long as the word whose
    links are given (the caller checks that it fits), is an occurrence."""
    for i, j, equal in links:
        x = letters[start + i]
        y = letters[start + j]
        if (x != y) if equal else (x >= y):
            return False
    return True


class SubwordPattern:
    """A pattern matched against consecutive windows up to order-isomorphism.

    The word must use every letter of {1, ..., max} at least once.
    """

    __slots__ = ("word",)

    def __init__(self, word: Union["SubwordPattern", Sequence[int], str]) -> None:
        if isinstance(word, SubwordPattern):
            letters = word.word
        elif isinstance(word, str):
            letters = parse_sequence(word)
        else:
            letters = tuple(int(v) for v in word)
        if not letters:
            raise InvalidPattern("a pattern must have at least one letter")
        top = max(letters)
        if min(letters) < 1 or set(letters) != set(range(1, top + 1)):
            raise InvalidPattern(
                f"pattern letters must cover 1..{top} exactly: {letters!r}"
            )
        object.__setattr__(self, "word", letters)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SubwordPattern is immutable")

    @property
    def text(self) -> str:
        return format_sequence(self.word)

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[int]:
        return iter(self.word)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SubwordPattern):
            return self.word == other.word
        return NotImplemented

    def __lt__(self, other: "SubwordPattern") -> bool:
        return self.word < other.word

    def __hash__(self) -> int:
        return hash(("SubwordPattern", self.word))

    def __repr__(self) -> str:
        return f"SubwordPattern({self.text!r})"


def as_pattern(value: Union[SubwordPattern, Sequence[int], str]) -> SubwordPattern:
    if isinstance(value, SubwordPattern):
        return value
    return SubwordPattern(value)


def _param_key(value: object) -> Hashable:
    """A hashable normal form of a pattern-like parameter, for the caches
    that resolve each distinct pattern once.

    Families, patterns and text stay as they are; any other sequence
    becomes a tuple of ints, as :class:`SubwordPattern` would read it."""
    if isinstance(value, (str, SubwordPattern, RhoTail)):
        return value
    return tuple(map(int, value))


def _validate_rho(rho: Letters, *, single_start: bool) -> None:
    if not rho:
        raise FamilyViolation("rho must be nonempty")
    if not is_canonical_nc(rho):
        raise FamilyViolation(
            f"rho must be a canonical non-crossing sequence: {rho!r}"
        )
    if single_start and len(rho) > 1 and rho[1] == 1:
        raise FamilyViolation(
            "when the trailing run has length >= 2, rho must begin with "
            f"exactly one 1: {rho!r}"
        )


@dataclass(frozen=True, slots=True)
class Run:
    """Constant patterns 1^a: a repeated letter."""

    a: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise FamilyViolation("run length must be >= 1")

    def pattern(self) -> SubwordPattern:
        return SubwordPattern((1,) * self.a)


@dataclass(frozen=True, slots=True)
class RunAscent:
    """Patterns 1^a 2: a run followed by one strictly larger letter."""

    a: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise FamilyViolation("run length must be >= 1")

    def pattern(self) -> SubwordPattern:
        return SubwordPattern((1,) * self.a + (2,))


@dataclass(frozen=True, slots=True)
class StaircaseTail:
    """Patterns 1 2 ... (m-1) m^a: an ascent staircase ending in a run."""

    m: int
    a: int

    def __post_init__(self) -> None:
        if self.m < 2 or self.a < 2:
            raise FamilyViolation("staircase-tail needs m >= 2 and a >= 2")

    def pattern(self) -> SubwordPattern:
        return SubwordPattern(tuple(range(1, self.m)) + (self.m,) * self.a)


@dataclass(frozen=True, slots=True)
class RunStaircase:
    """Patterns 1^a 2 3 ... m: a run followed by an ascent staircase."""

    a: int
    m: int

    def __post_init__(self) -> None:
        if self.a < 2 or self.m < 2:
            raise FamilyViolation("run-staircase needs a >= 2 and m >= 2")

    def pattern(self) -> SubwordPattern:
        return SubwordPattern((1,) * self.a + tuple(range(2, self.m + 1)))


@dataclass(frozen=True, slots=True)
class Sandwich:
    """Patterns 1^a (rho+1) 1^b: a lifted core between two runs of 1s."""

    a: int
    rho: Letters
    b: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", tuple(int(v) for v in self.rho))
        if self.a < 1 or self.b < 1:
            raise FamilyViolation("surrounding runs need a >= 1 and b >= 1")
        _validate_rho(self.rho, single_start=False)

    def pattern(self) -> SubwordPattern:
        lifted = tuple(v + 1 for v in self.rho)
        return SubwordPattern((1,) * self.a + lifted + (1,) * self.b)


@dataclass(frozen=True, slots=True)
class RhoTail:
    """Patterns (rho+1) 1^b: a lifted core followed by a run of 1s."""

    rho: Letters
    b: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", tuple(int(v) for v in self.rho))
        if self.b < 1:
            raise FamilyViolation("trailing run needs b >= 1")
        _validate_rho(self.rho, single_start=self.b >= 2)

    def pattern(self) -> SubwordPattern:
        lifted = tuple(v + 1 for v in self.rho)
        return SubwordPattern(lifted + (1,) * self.b)


@dataclass(frozen=True, slots=True)
class Generic:
    """Any valid pattern not covered by a structured family."""

    word: Letters

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", SubwordPattern(self.word).word)

    def pattern(self) -> SubwordPattern:
        return SubwordPattern(self.word)


PatternFamily = Union[Run, RunAscent, StaircaseTail, RunStaircase, Sandwich, RhoTail, Generic]


def _runs_of_ones(word: Letters) -> tuple[int, int]:
    lead = 0
    while lead < len(word) and word[lead] == 1:
        lead += 1
    trail = 0
    while trail < len(word) and word[-1 - trail] == 1:
        trail += 1
    return lead, trail


def _family_candidates(word: Letters) -> tuple[tuple[type, tuple], ...]:
    """Each structured family with the parameters read off the word, most
    specific first: the length, the top letter, the leading and trailing
    runs of 1s, and the core between them lowered by one.

    A reading need not be valid; the family constructor and ``pattern()``
    decide whether the word belongs to the family."""
    n, top = len(word), max(word)
    lead, trail = _runs_of_ones(word)
    return (
        (Run, (n,)),
        (RunAscent, (n - 1,)),
        (StaircaseTail, (top, n - top + 1)),
        (RunStaircase, (n - top + 1, top)),
        (Sandwich, (lead, tuple(v - 1 for v in word[lead : n - trail]), trail)),
        (RhoTail, (tuple(v - 1 for v in word[: n - trail]), trail)),
    )


def classify_all(pattern: Union[SubwordPattern, Sequence[int], str]) -> tuple[PatternFamily, ...]:
    """Every family the pattern belongs to, most specific first.

    A family holds the pattern when its constructor accepts the parameters
    read off the word and its ``pattern()`` rebuilds the word.  Falls back
    to a single Generic tag when no structured family does.
    """
    word = as_pattern(pattern).word
    matches: list[PatternFamily] = []
    for family, params in _family_candidates(word):
        try:
            candidate = family(*params)
        except FamilyViolation:
            continue
        if candidate.pattern().word == word:
            matches.append(candidate)
    return tuple(matches) or (Generic(word),)


def classify_pattern(pattern: Union[SubwordPattern, Sequence[int], str]) -> PatternFamily:
    """The principal (most specific) family tag for a pattern."""
    return classify_all(pattern)[0]
