"""Canonical sequences, enumeration, patterns, and family classification."""

import hashlib
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpart.core import (
    DEFAULT_ENUM_LIMIT,
    Generic,
    NCPartition,
    RhoTail,
    Run,
    RunAscent,
    RunStaircase,
    Sandwich,
    StaircaseTail,
    SubwordPattern,
    as_ncpartition,
    as_pattern,
    catalan,
    classify_all,
    classify_pattern,
    enumerate_nc,
    format_sequence,
    is_canonical_nc,
    is_noncrossing_pairwise,
    is_restricted_growth,
    iter_nc,
    iter_rgs,
    parse_sequence,
)
from ncpart.errors import FamilyViolation, InvalidPattern, LimitExceeded

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
BELL = [1, 1, 2, 5, 15, 52, 203, 877]


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------


def test_parse_sequence():
    assert parse_sequence("") == ()
    assert parse_sequence("1231") == (1, 2, 3, 1)
    assert parse_sequence("1,2,3,10") == (1, 2, 3, 10)
    assert parse_sequence(" 1, 2 ,10 ") == (1, 2, 10)


@pytest.mark.parametrize(
    "text",
    ["1a2", "1,,2", "1,2,", ",1", "1 2,3", "1²", "١١٢", "1,٢", "+1,2", "1_0,2"],
)
def test_parse_sequence_takes_only_ascii_digits(text):
    with pytest.raises(ValueError) as caught:
        parse_sequence(text)
    assert str(caught.value) == f"cannot parse sequence text {text!r}"


def test_format_sequence():
    assert format_sequence(()) == ""
    assert format_sequence((1, 2, 3, 1)) == "1231"
    assert format_sequence((1, 2, 10)) == "1,2,10"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=8))
def test_parse_format_round_trip(letters):
    word = tuple(letters)
    if len(word) == 1 and word[0] > 9:
        return  # a lone two-digit letter has no unambiguous text form
    assert parse_sequence(format_sequence(word)) == word


# ---------------------------------------------------------------------------
# Validity predicates
# ---------------------------------------------------------------------------


def test_is_restricted_growth():
    assert is_restricted_growth(())
    assert is_restricted_growth((1,))
    assert is_restricted_growth((1, 2, 1, 3))
    assert not is_restricted_growth((2,))
    assert not is_restricted_growth((1, 3))
    assert not is_restricted_growth((1, 2, 4))


def test_is_canonical_nc():
    assert is_canonical_nc((1, 2, 1))
    assert is_canonical_nc((1, 2, 2, 1, 1, 3))
    assert not is_canonical_nc((1, 2, 1, 2))
    assert not is_canonical_nc((1, 2, 3, 1, 3, 2))
    assert not is_canonical_nc((2, 1))


def test_ncpartition_validation():
    assert NCPartition("121").letters == (1, 2, 1)
    with pytest.raises(ValueError):
        NCPartition((1, 2, 1, 2))
    with pytest.raises(ValueError):
        NCPartition((1, 3, 2))
    with pytest.raises(ValueError):
        NCPartition((2, 1))


@st.composite
def _growth_words(draw):
    """Restricted growth words of length <= 12, crossing or not, with
    letters up to 6, sometimes with one letter overwritten by 0..6."""
    letters: list[int] = []
    for _ in range(draw(st.integers(0, 12))):
        letters.append(draw(st.integers(1, min(max(letters, default=0) + 1, 6))))
    if letters and draw(st.booleans()):
        letters[draw(st.integers(0, len(letters) - 1))] = draw(st.integers(0, 6))
    return letters


def _parent_error(word):
    """The ValueError message NCPartition gives: the restricted-growth
    failure first, then a crossing, as told by the quadratic check."""
    if not is_restricted_growth(word):
        return f"not a restricted growth string: {word!r}"
    if not is_noncrossing_pairwise(word):
        return f"sequence has a crossing: {word!r}"
    return None


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.integers(0, 6), max_size=12), _growth_words()))
@example([1, 2, 1, 2, 5])  # a crossing before a growth violation
@example([1, 2, 1, 2, 0])
@example([1, 2, 3, 1, 3, 2])
def test_one_pass_check_agrees_with_the_pairwise_oracle(letters):
    word = tuple(letters)
    expected = _parent_error(word)
    assert is_canonical_nc(word) == (expected is None)
    assert is_canonical_nc(list(word)) == is_canonical_nc(format_sequence(word))
    if is_restricted_growth(word):
        assert is_canonical_nc(word) == is_noncrossing_pairwise(word)
    else:
        with pytest.raises(ValueError, match="not a restricted growth string"):
            is_noncrossing_pairwise(word)
    if expected is None:
        assert NCPartition(list(word)).letters == word
    else:
        with pytest.raises(ValueError) as caught:
            NCPartition(list(word))
        assert str(caught.value) == expected


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.integers(0, 6), max_size=12), _growth_words()))
@example([1, 2, 1, 2, 5])
@example([1, 2, 1, 2, 0])
@example([1, 3])
def test_internal_constructor_raises_what_the_public_one_raises(letters):
    # NCPartition._checked takes the int tuples the package builds itself:
    # the same scan and the same ValueError text, without the coercion.
    word = tuple(letters)
    expected = _parent_error(word)
    if expected is None:
        assert NCPartition._checked(word) == NCPartition(word)
        return
    for construct in (NCPartition, NCPartition._checked):
        with pytest.raises(ValueError) as caught:
            construct(word)
        assert str(caught.value) == expected


def test_blocks_and_block_count():
    pi = NCPartition("1213311")
    assert pi.block_count == 3
    assert pi.blocks() == [(1, 3, 6, 7), (2,), (4, 5)]


def test_ncpartition_ordering_and_hash():
    a, b = NCPartition("112"), NCPartition("121")
    assert a < b
    assert len({NCPartition("112"), NCPartition("112"), b}) == 2


def test_ncpartition_is_a_read_only_sequence():
    seq = NCPartition("1213")
    assert len(seq) == 4
    assert list(seq) == [1, 2, 1, 3]
    assert (seq[1], seq[-1], seq[1:3]) == (2, 3, (2, 1))
    assert repr(seq) == "NCPartition('1213')"
    with pytest.raises(ValueError, match="not a restricted growth string"):
        NCPartition("21")


@pytest.mark.parametrize(
    "value, attr",
    [
        (NCPartition("1213"), "letters"),
        (NCPartition("1213"), "extra"),
        (SubwordPattern("112"), "word"),
        (SubwordPattern("112"), "extra"),
    ],
    ids=["partition", "partition-new", "pattern", "pattern-new"],
)
def test_value_types_refuse_assignment(value, attr):
    before = repr(value)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, attr, (1,))
    assert repr(value) == before


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_nc_counts_are_catalan():
    for n in range(11):
        assert len(enumerate_nc(n)) == CATALAN[n]


def test_enumerate_nc_small_anchors():
    assert [p.text for p in enumerate_nc(0)] == [""]
    assert [p.text for p in enumerate_nc(3)] == ["111", "112", "121", "122", "123"]


def test_enumerate_nc_is_sorted_and_valid():
    parts = enumerate_nc(6)
    assert parts == sorted(parts)
    assert len(set(parts)) == len(parts)
    for p in parts:
        assert is_canonical_nc(p.letters)


def test_iter_nc_is_the_noncrossing_growth_words_in_order():
    for n in range(9):
        expected = [w for w in iter_rgs(n) if is_noncrossing_pairwise(w)]
        assert [p.letters for p in iter_nc(n)] == expected


def test_enumeration_limit():
    with pytest.raises(LimitExceeded):
        enumerate_nc(DEFAULT_ENUM_LIMIT + 1)
    with pytest.raises(ValueError):
        enumerate_nc(-1)


def test_iter_rgs_counts_are_bell():
    for n in range(8):
        assert sum(1 for _ in iter_rgs(n)) == BELL[n]


def test_iter_nc_agrees_with_filtered_rgs():
    for n in range(8):
        filtered = sorted(w for w in iter_rgs(n) if is_canonical_nc(w))
        assert [p.letters for p in iter_nc(n)] == filtered


def test_catalan_function():
    for n, value in enumerate(CATALAN):
        assert catalan(n) == value


@pytest.mark.parametrize(
    "call", [lambda: catalan(-1), lambda: next(iter_rgs(-1))], ids=["catalan", "iter_rgs"]
)
def test_counts_reject_a_negative_size(call):
    with pytest.raises(ValueError, match="n must be >= 0"):
        call()


# ---------------------------------------------------------------------------
# Patterns and families
# ---------------------------------------------------------------------------


def test_subword_pattern_validation():
    assert SubwordPattern((2, 1, 2)).word == (2, 1, 2)
    assert as_pattern("212").word == (2, 1, 2)
    with pytest.raises(InvalidPattern):
        SubwordPattern((1, 3))  # letter 2 missing
    with pytest.raises(InvalidPattern):
        SubwordPattern(())
    with pytest.raises(InvalidPattern):
        SubwordPattern((0, 1))


def test_subword_pattern_is_an_ordered_value():
    pat = SubwordPattern("2132")
    assert SubwordPattern(pat) == pat == SubwordPattern([2, 1, 3, 2])
    assert SubwordPattern(pat).word == pat.word == (2, 1, 3, 2)
    assert pat != SubwordPattern("1232") and pat != (2, 1, 3, 2)
    assert SubwordPattern("1232") < pat < SubwordPattern("3121")
    assert sorted([pat, SubwordPattern("11"), SubwordPattern("1")]) == [
        SubwordPattern("1"),
        SubwordPattern("11"),
        pat,
    ]
    assert len(pat) == 4 and list(pat) == [2, 1, 3, 2]
    assert repr(pat) == "SubwordPattern('2132')"
    assert repr(SubwordPattern(range(1, 11))) == "SubwordPattern('1,2,3,4,5,6,7,8,9,10')"
    assert len({pat, SubwordPattern(pat), SubwordPattern("1232")}) == 2


def test_classification_anchors():
    assert classify_pattern("1") == Run(1)
    assert classify_pattern("11") == Run(2)
    assert classify_pattern("12") == RunAscent(1)
    assert classify_pattern("112") == RunAscent(2)
    assert classify_pattern("122") == StaircaseTail(2, 2)
    assert classify_pattern("1233") == StaircaseTail(3, 2)
    assert classify_pattern("1123") == RunStaircase(2, 3)
    assert classify_pattern("121") == Sandwich(1, (1,), 1)
    assert classify_pattern("1121") == Sandwich(2, (1,), 1)
    assert classify_pattern("211") == RhoTail((1,), 2)
    assert classify_pattern("221") == RhoTail((1, 1), 1)
    assert classify_pattern("231") == RhoTail((1, 2), 1)
    assert classify_pattern("2311") == RhoTail((1, 2), 2)
    assert classify_pattern("212") == Generic((2, 1, 2))
    assert classify_pattern("321") == Generic((3, 2, 1))
    assert classify_pattern("123") == Generic((1, 2, 3))
    assert classify_pattern("1122") == Generic((1, 1, 2, 2))


def test_classification_priority_is_most_specific_first():
    # 1111 is a run, not a staircase tail or anything later.
    assert classify_pattern("1111") == Run(4)
    # every family's own pattern classifies back to itself
    for fam in [
        Run(3),
        RunAscent(2),
        StaircaseTail(3, 2),
        RunStaircase(2, 3),
        Sandwich(1, (1, 2), 2),
        RhoTail((1, 2, 2), 1),
    ]:
        assert classify_pattern(fam.pattern()) == fam


def test_classify_all_lists_every_match():
    kinds = [type(f).__name__ for f in classify_all("122")]
    assert kinds[0] == "StaircaseTail"
    assert "Generic" not in kinds or len(kinds) == 1


def test_classification_of_every_short_pattern_is_pinned():
    """repr(classify_all(w)) + newline for every pattern word of length
    1-7 (47293 words at length 7), in lexicographic order."""
    h = hashlib.sha256()
    for n in range(1, 8):
        for w in itertools.product(range(1, n + 1), repeat=n):
            if set(w) == set(range(1, max(w) + 1)):
                h.update((repr(classify_all(w)) + "\n").encode())
    assert h.hexdigest() == (
        "28cdaecaf8e86aaabf672a6ce233710af930f62510e0d140742f1d508fdb9ce8"
    )


def test_family_parameter_validation():
    with pytest.raises(FamilyViolation):
        Run(0)
    with pytest.raises(FamilyViolation):
        StaircaseTail(1, 2)
    with pytest.raises(FamilyViolation):
        StaircaseTail(3, 1)
    with pytest.raises(FamilyViolation):
        RunStaircase(1, 3)
    with pytest.raises(FamilyViolation):
        RhoTail((), 1)
    with pytest.raises(FamilyViolation):
        RhoTail((2, 1), 1)  # not restricted growth
    with pytest.raises(FamilyViolation):
        RhoTail((1, 2, 1, 2), 1)  # crossing
    with pytest.raises(FamilyViolation):
        RhoTail((1, 1), 2)  # b >= 2 needs a single leading 1
    with pytest.raises(FamilyViolation):
        Sandwich(0, (1,), 1)
    # a second 1 in rho is fine for b = 1 and for sandwiches
    assert RhoTail((1, 2, 1), 1).pattern().word == (2, 3, 2, 1)
    assert Sandwich(1, (1, 1), 1).pattern().word == (1, 2, 2, 1)


def test_family_pattern_words():
    assert Run(3).pattern().word == (1, 1, 1)
    assert RunAscent(2).pattern().word == (1, 1, 2)
    assert StaircaseTail(3, 2).pattern().word == (1, 2, 3, 3)
    assert RunStaircase(2, 3).pattern().word == (1, 1, 2, 3)
    assert Sandwich(2, (1,), 1).pattern().word == (1, 1, 2, 1)
    assert RhoTail((1, 2), 2).pattern().word == (2, 3, 1, 1)


def test_coercions():
    assert as_ncpartition("121").letters == (1, 2, 1)
    assert as_ncpartition((1, 2, 1)).letters == (1, 2, 1)
    pi = NCPartition("121")
    assert as_ncpartition(pi) is pi
    pat = SubwordPattern((2, 1))
    assert as_pattern(pat) is pat
