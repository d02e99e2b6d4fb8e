"""Statistics: occurrence counts and distribution tables, by the transfer
engine and by the exhaustive prefix walk."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpart.algebra import MultiPoly, TruncatedSeries, _poly_from_clean
from ncpart import core, formulas
from ncpart.core import (
    NCPartition,
    SubwordPattern,
    catalan,
    enumerate_nc,
    is_canonical_nc,
    parse_sequence,
)
from ncpart.errors import EmptyPartition, InvalidPattern, LimitExceeded
from ncpart import stats
from ncpart.stats import (
    batch_distribution_rows,
    count_subword,
    distribution,
    distribution_rows,
    joint_distribution,
    joint_rows,
    rep,
    rep_joint_distribution,
    rep_joint_rows,
)

Q = MultiPoly.marker("q")
P = MultiPoly.marker("p")
V = MultiPoly.marker("v")


# ---------------------------------------------------------------------------
# Pointwise statistics
# ---------------------------------------------------------------------------


def test_count_subword_counts_contiguous_windows():
    assert count_subword("111", "11") == 2  # windows overlap
    assert count_subword("1221", "122") == 1
    assert count_subword("1221", "121") == 0  # not contiguous in 1221
    assert count_subword("1221", "11") == 1  # the window 2,2
    assert count_subword("1231", "231") == 1
    assert count_subword("11", "111") == 0  # pattern longer than the word
    assert count_subword("", "1") == 0


def test_count_subword_uses_order_type_with_equalities():
    # the window must match equalities and strict orders exactly
    assert count_subword("122", "12") == 1  # only at positions 1-2
    assert count_subword("122", "11") == 1  # only at positions 2-3
    assert count_subword("1221", "231") == 0  # 2,2 is not an ascent
    assert count_subword("12331", "231") == 0  # window 3,3,1 is 221-shaped
    assert count_subword("12341", "231") == 1  # window 3,4,1
    assert count_subword("121", "121") == 1


def test_count_subword_pattern_forms_agree_and_errors_repeat():
    # Each distinct pattern is resolved once, keyed by its normal form:
    # every spelling of one pattern must give the same count, and a bad
    # pattern must raise every time rather than be remembered.
    pi = "1213311"
    for word in ((1, 2, 1), (1, 1), (2, 1, 1), (1, 2, 2, 1)):
        text = "".join(map(str, word))
        forms = (text, ",".join(text), list(word), tuple(word), SubwordPattern(word))
        counts = {count_subword(pi, form) for form in forms}
        assert counts == {naive_count(parse_sequence(pi), word)}, word
    for bad in ("13", [1, 3], (2, 2), "", ()):
        for _ in range(2):
            with pytest.raises(InvalidPattern):
                count_subword(pi, bad)


def naive_count(letters, word):
    k = len(word)
    hits = 0
    for i in range(len(letters) - k + 1):
        window = letters[i : i + k]
        ranks = {v: r + 1 for r, v in enumerate(sorted(set(window)))}
        if tuple(ranks[v] for v in window) == tuple(word):
            hits += 1
    return hits


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.sampled_from(["11", "12", "121", "122", "212", "221"]))
def test_count_subword_matches_naive_window_scan(n, tau):
    word = tuple(int(c) for c in tau)
    for pi in enumerate_nc(n):
        assert count_subword(pi, tau) == naive_count(pi.letters, word)


# The pairwise-sign definition of order-isomorphism, the oracle's reference:
# a window matches when every pair of its positions compares as in the word.


def _pair_constraints(word):
    """All (i, j, sign) order constraints of a pattern word, i < j."""
    out = []
    for j in range(1, len(word)):
        for i in range(j):
            d = word[i] - word[j]
            out.append((i, j, (d > 0) - (d < 0)))
    return tuple(out)


def _window_matches(letters, start, pairs):
    for i, j, sign in pairs:
        d = letters[start + i] - letters[start + j]
        if ((d > 0) - (d < 0)) != sign:
            return False
    return True


def pairwise_count(letters, word):
    pairs = _pair_constraints(word)
    return sum(
        1
        for start in range(len(letters) - len(word) + 1)
        if _window_matches(letters, start, pairs)
    )


@st.composite
def _nc_words(draw):
    """Canonical non-crossing words of length <= 12, grown like the prefix
    walk: each letter is a fresh one or an open one, and an open letter
    closes every open letter above it."""
    letters: list[int] = []
    stack: list[int] = []
    for _ in range(draw(st.integers(0, 12))):
        idx = draw(st.integers(0, len(stack)))
        if idx == len(stack):
            stack.append(max(letters, default=0) + 1)
        else:
            del stack[idx + 1 :]
        letters.append(stack[idx])
    return tuple(letters)


def _as_pattern_word(values):
    ranks = {v: r for r, v in enumerate(sorted(set(values)), 1)}
    return tuple(ranks[v] for v in values)


#: Patterns of length 1-6 over at most four letters, so most repeat one.
_pattern_words = st.lists(st.integers(1, 4), min_size=1, max_size=6).map(
    _as_pattern_word
)


@settings(max_examples=300, deadline=None)
@given(_nc_words(), _pattern_words)
@example((1, 2), (1, 2, 2))  # a pattern longer than the word
@example((1, 2, 1, 3, 3, 1, 1), (1, 2, 1))
def test_count_subword_matches_the_pairwise_sign_definition(letters, word):
    assert is_canonical_nc(letters)
    assert count_subword(letters, word) == pairwise_count(letters, word)
    pairs, links = _pair_constraints(word), core._chain_links(word)
    for start in range(len(letters) - len(word) + 1):
        assert core._occurs_at(letters, start, links) == _window_matches(
            letters, start, pairs
        )


def _forbid_standardising(monkeypatch):
    def forbidden(window):
        raise AssertionError(f"standardised {window!r}")

    monkeypatch.setattr(core, "_standardise", forbidden)
    monkeypatch.setattr(stats, "_standardise", forbidden)


def test_count_subword_never_standardises(monkeypatch):
    # The oracle checks the engines, which standardise windows; it must
    # reach its counts another way.
    _forbid_standardising(monkeypatch)
    stats._pattern_constraints.cache_clear()
    assert count_subword("1213311", "121") == 1
    assert count_subword("1213311", "11") == 2
    assert count_subword("12341", "231") == 1
    assert count_subword("12331", "231") == 0
    assert count_subword("123321", "1221") == 1
    assert count_subword("11", "111") == 0
    assert count_subword("1234", "1") == 4


def test_the_brute_walk_never_standardises(monkeypatch):
    # Only the transfer engine standardises: the walk that checks it tests
    # the chain links count_subword tests.
    words = ("1213", "2211", "12321", "1232145665")
    monkeypatch.setattr(stats, "_CACHE", {})
    before = [distribution_rows(8, w, engine="brute") for w in words]
    _forbid_standardising(monkeypatch)
    stats._CACHE.clear()
    assert [distribution_rows(8, w, engine="brute") for w in words] == before


def test_rep_smallest_repeated_letter():
    assert rep("112") == 1
    assert rep("123") == 0
    assert rep("1221") == 1
    assert rep("1223") == 2
    assert rep("1") == 0
    with pytest.raises(EmptyPartition):
        rep("")


def test_blocks_ascents_and_descents_are_the_partition_and_subword_counts():
    assert NCPartition("1213311").block_count == 3
    assert NCPartition("").block_count == 0
    assert count_subword("1213311", "12") == 2
    assert count_subword("1213311", "21") == 2


# ---------------------------------------------------------------------------
# Distribution tables
# ---------------------------------------------------------------------------


def test_distribution_anchors():
    assert distribution(3, "112") == MultiPoly.const(4) + Q
    assert distribution(4, "11") == (
        MultiPoly.const(4) + Q.scale(6) + (Q**2).scale(3) + Q**3
    )
    assert distribution(5, "122") == MultiPoly.const(22) + Q.scale(19) + Q**2
    # 212 never occurs in a non-crossing canonical sequence
    assert distribution(8, "212") == MultiPoly.const(catalan(8))


def test_distribution_at_q_one_is_catalan():
    for n in range(9):
        row = distribution(n, "121")
        assert row.substitute(q=1) == MultiPoly.const(catalan(n))


def test_distribution_rows_and_batch_agree():
    rows = distribution_rows(7, "221")
    assert len(rows) == 8
    batch = batch_distribution_rows(7, ["221", "112"])
    assert batch[0] == rows
    assert batch[1] == distribution_rows(7, "112")
    for n in range(8):
        assert rows[n] == distribution(n, "221")


def test_distribution_matches_direct_enumeration():
    for tau in ("11", "122", "1121"):
        for n in range(8):
            expected = MultiPoly.zero()
            for pi in enumerate_nc(n):
                expected = expected + Q ** count_subword(pi, tau)
            assert distribution(n, tau) == expected


def test_joint_distribution_markers():
    # tau1 is marked by p, tau2 by q
    assert joint_distribution(2, "1", "12") == P**2 + P**2 * Q
    assert joint_distribution(3, "11", "112") == (
        MultiPoly.const(2) + P + P**2 + Q * P
    )
    rows = joint_rows(6, "11", "112")
    for n in range(7):
        expected = MultiPoly.zero()
        for pi in enumerate_nc(n):
            expected = expected + P ** count_subword(pi, "11") * Q ** count_subword(
                pi, "112"
            )
        assert rows[n] == expected


def test_rep_joint_distribution_markers():
    # occurrences in q, smallest repeated letter in v
    assert rep_joint_distribution(3, "122") == (
        MultiPoly.one() + V.scale(3) + Q * V**2
    )
    rows = rep_joint_rows(6, "122")
    for n in range(1, 7):
        expected = MultiPoly.zero()
        for pi in enumerate_nc(n):
            expected = expected + Q ** count_subword(pi, "122") * V ** rep(pi)
        assert rows[n] == expected


# ---------------------------------------------------------------------------
# The default (transfer) rows against a per-partition oracle
# ---------------------------------------------------------------------------


def _standard(letters):
    ranks = {v: r for r, v in enumerate(sorted(set(letters)), 1)}
    return "".join(str(ranks[v]) for v in letters)


words_1_to_5 = st.lists(st.integers(1, 5), min_size=1, max_size=5).map(_standard)
# 1-6 words drawn with replacement into batches up to 3 longer: lengths mix
# (and exceed small n) and words repeat.
word_batches = st.lists(words_1_to_5, min_size=1, max_size=6).flatmap(
    lambda ws: st.lists(st.sampled_from(ws), min_size=len(ws), max_size=len(ws) + 3)
)


def oracle_rows(n, exponents):
    """Rows summed partition by partition over enumerate_nc."""
    return [
        MultiPoly(Counter(exponents(pi) for pi in enumerate_nc(k)))
        for k in range(n + 1)
    ]


def separate(tau):
    return lambda pi: (count_subword(pi, tau), 0, 0)


def joint(tau1, tau2):
    return lambda pi: (count_subword(pi, tau2), count_subword(pi, tau1), 0)


def with_rep(tau):
    return lambda pi: (count_subword(pi, tau), 0, rep(pi) if len(pi) else 0)


@pytest.mark.parametrize("engine", ["transfer", "brute"])
@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 8), words=word_batches)
@example(n=5, words=[])
def test_batch_rows_match_the_oracle(engine, n, words):
    rows = batch_distribution_rows(n, words, engine=engine)
    assert rows == [oracle_rows(n, separate(word)) for word in words]


# Words up to length 8, so some come close to n and the engine's window
# (the longest suffix that may still start an occurrence) grows long.
words_1_to_8 = st.lists(st.integers(1, 5), min_size=1, max_size=8).map(_standard)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10), words_1_to_8, words_1_to_8, st.booleans())
def test_joint_rows_match_the_oracle(n, tau1, tau2, same):
    tau2 = tau1 if same else tau2
    assert joint_rows(n, tau1, tau2) == oracle_rows(n, joint(tau1, tau2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10), words_1_to_8)
def test_rep_joint_rows_match_the_oracle(n, tau):
    assert rep_joint_rows(n, tau) == oracle_rows(n, with_rep(tau))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.lists(words_1_to_5, min_size=1, max_size=4),
)
def test_cached_rows_equal_fresh_rows(n, up, words):
    stats._CACHE.clear()
    first, last = words[0], words[-1]
    for size in (n, n - 1, min(8, n + up)):  # a call, a smaller one, a larger one
        assert batch_distribution_rows(size, words) == [
            oracle_rows(size, separate(word)) for word in words
        ]
        assert joint_rows(size, first, last) == oracle_rows(size, joint(first, last))
        assert rep_joint_rows(size, first) == oracle_rows(size, with_rep(first))


@pytest.mark.parametrize(
    "rows_of",
    [
        lambda: distribution_rows(6, "1213"),
        lambda: distribution_rows(6, "1213", engine="brute"),
        lambda: batch_distribution_rows(6, ["11", "121", "11"]),
        lambda: batch_distribution_rows(6, ["11", "121"], engine="brute"),
        lambda: joint_rows(6, "11", "121"),
        lambda: rep_joint_rows(6, "122"),
    ],
    ids=["rows", "brute-rows", "batch", "brute-batch", "joint", "rep"],
)
def test_callers_may_change_the_lists_they_are_served(rows_of):
    # The cache hands out slices of its rows; popping a served list, from a
    # cold call or a warm one, must leave every later answer whole.
    def pop_every_list(rows):
        for inner in rows:
            if isinstance(inner, list):
                inner.pop()
        rows.pop()

    stats._CACHE.clear()
    cold = rows_of()
    expected = [list(r) if isinstance(r, list) else r for r in cold]
    pop_every_list(cold)
    warm = rows_of()
    assert warm == expected
    pop_every_list(warm)
    assert rows_of() == expected


# ---------------------------------------------------------------------------
# The transfer engine against the exhaustive walk
# ---------------------------------------------------------------------------


def _letters(text):
    return tuple(int(c) for c in text)


long_batches = st.lists(words_1_to_8, min_size=1, max_size=6).flatmap(
    lambda ws: st.lists(st.sampled_from(ws), min_size=len(ws), max_size=len(ws) + 3)
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), long_batches)
def test_transfer_separate_rows_equal_the_walk(n, words):
    words = tuple(map(_letters, words))
    assert stats._transfer("separate", n, words) == [stats._walk(n, w) for w in words]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10),
    words_1_to_8,
    words_1_to_8,
    st.sampled_from(["separate", "joint", "rep", "brute"]),
)
def test_engine_rows_hold_positive_int_cells_summing_to_catalan(n, tau1, tau2, mode):
    # Rows skip MultiPoly's normalisation, so a stored zero or a non-int
    # count would make equal polynomials compare unequal.
    words = (_letters(tau1),) if mode == "rep" else (_letters(tau1), _letters(tau2))
    if mode == "brute":
        marginals = [stats._walk(n, word) for word in words]
    else:
        marginals = stats._transfer(mode, n, words)
    assert len(marginals) == (2 if mode in ("separate", "brute") else 1)
    for rows in marginals:
        assert len(rows) == n + 1
        for k, row in enumerate(rows):
            coeffs = [m for _, m in row.items()]
            assert all(type(m) is int and m > 0 for m in coeffs)
            assert sum(coeffs) == catalan(k)
            assert MultiPoly(dict(row.items())) == row


def test_transfer_equals_the_walk_and_the_oracle_on_long_words_that_occur():
    # Factors of 122134435665 and 1232145665: each occurs in size-11
    # partitions, so long windows stay viable for many steps.
    long8, long10 = "12213443", "1232145665"
    words = tuple(map(_letters, (long8, long10, "121", long8)))
    assert stats._transfer("separate", 11, words) == [stats._walk(11, w) for w in words]
    assert joint_rows(11, long8, long10) == oracle_rows(11, joint(long8, long10))
    assert rep_joint_rows(11, long10) == oracle_rows(11, with_rep(long10))


# Separate-mode states (occupied (shape, k, r) cells) after 10 and 20
# steps: the (shape, k) automaton reaches exactly the states of a token
# string with a window.
STATES_AT_10_AND_20 = {
    "11": (10, 20),
    "112": (19, 39),
    "123": (18, 38),
    "213": (18, 38),
    "321": (18, 38),
    "1122": (27, 57),
    "12321": (32, 72),
    "1232145665": (52, 142),
}


@pytest.mark.parametrize("word", sorted(STATES_AT_10_AND_20))
def test_transfer_states_per_size(monkeypatch, word):
    sizes = []
    record = stats._record

    def counting(level, *layout):
        sizes.append(sum(w > 0 for vec in level.values() for w in vec))
        return record(level, *layout)

    monkeypatch.setattr(stats, "_record", counting)
    stats._transfer("separate", 20, (_letters(word),))
    assert (sizes[10], sizes[20]) == STATES_AT_10_AND_20[word]


@pytest.mark.parametrize("word", ["12321", "1232145665"])
def test_transfer_derives_moves_per_shape_not_per_state(monkeypatch, word):
    # Once every shape is reached, a longer run standardises nothing more.
    # The window memo outlives a call, so each run starts with it empty and
    # counts every standardisation it misses.
    calls = []
    standardise = stats._standardise

    def counting(window):
        calls.append(window)
        return standardise(window)

    monkeypatch.setattr(stats, "_standardise", counting)
    counts = []
    for n in (24, 32):
        stats._standard_form.cache_clear()
        calls.clear()
        stats._transfer("separate", n, (_letters(word),))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_the_brute_walk_keeps_only_its_path():
    # A memo of every window the walk meets peaks at 4.24 MiB on this input.
    long12 = _letters("123214566578")
    tracemalloc.start()
    try:
        stats._walk(10, long12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_engines_are_cached_apart():
    stats._CACHE.clear()
    transfer = distribution_rows(6, "1213")
    brute = distribution_rows(6, "1213", engine="brute")
    assert transfer == brute
    assert {key[0] for key in stats._CACHE} == {"transfer", "brute"}
    with pytest.raises(ValueError, match="unknown engine"):
        distribution_rows(6, "1213", engine="walk")


def test_size_limit_is_enforced():
    for engine in ("transfer", "brute"):
        with pytest.raises(LimitExceeded):
            distribution_rows(17, "11", engine=engine)
    with pytest.raises(ValueError):
        distribution(-1, "11")


# Rows that break the one check in stats._rows: each has a wrong sum, a
# stored zero, a negative or a non-int coefficient at size 4 (C_4 = 14), or
# the row of size 4 is missing.
BAD_LAST_ROWS = {
    "wrong-sum": MultiPoly.const(14) + Q,
    "zero": _poly_from_clean({(0, 0, 0): 14, (1, 0, 0): 0}),
    "negative": MultiPoly({(0, 0, 0): 15, (1, 0, 0): -1}),
    "fraction": MultiPoly({(0, 0, 0): Fraction(27, 2), (1, 0, 0): Fraction(1, 2)}),
    "missing": None,
}

ROUTES = {
    "rows": lambda: distribution_rows(4, "11"),
    "brute-rows": lambda: distribution_rows(4, "11", engine="brute"),
    "batch": lambda: batch_distribution_rows(4, ["11", "121"]),
    "brute-batch": lambda: batch_distribution_rows(4, ["11", "121"], engine="brute"),
    "joint": lambda: joint_rows(4, "11", "121"),
    "rep": lambda: rep_joint_rows(4, "122"),
    "distribution": lambda: distribution(4, "11"),
    "joint-distribution": lambda: joint_distribution(4, "11", "121"),
    "rep-distribution": lambda: rep_joint_distribution(4, "122"),
}


@pytest.mark.parametrize("bad", sorted(BAD_LAST_ROWS))
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_serves_only_rows_that_pass_the_one_check(monkeypatch, route, bad):
    # Every engine, in every mode, answers with good rows for sizes 0-3 and
    # a bad last one; no route may serve them.
    def engine(*args):
        # A separate engine takes (n_max, words), _transfer (mode, n_max, words).
        n_max, words = args[-2:]
        marginals = len(words) if len(args) == 2 else 1
        rows = [MultiPoly.const(catalan(k)) for k in range(n_max)]
        if BAD_LAST_ROWS[bad] is not None:
            rows.append(BAD_LAST_ROWS[bad])
        return [list(rows) for _ in range(marginals)]

    monkeypatch.setattr(stats, "_CACHE", {})
    monkeypatch.setattr(stats, "_transfer", engine)
    monkeypatch.setitem(stats._ENGINES, "transfer", engine)
    monkeypatch.setitem(stats._ENGINES, "brute", engine)
    message = "engine rows for sizes 0..4" if bad == "missing" else "engine row 4 does not"
    with pytest.raises(AssertionError, match=message):
        ROUTES[route]()
    assert stats._CACHE == {}


def test_rows_are_checked_once_where_they_are_cached(monkeypatch):
    # A warm call serves the cached rows without a second check; a larger
    # size rebuilds them, and the check runs on the rebuild.
    monkeypatch.setattr(stats, "_CACHE", {})
    calls = []

    def counting(n):
        calls.append(n)
        return catalan(n)

    monkeypatch.setattr(stats, "catalan", counting)
    rows = distribution_rows(6, "121", engine="brute")  # the walk needs no C_k
    assert calls == list(range(7))
    assert distribution_rows(5, "121", engine="brute") == rows[:6] and len(calls) == 7
    distribution_rows(8, "121", engine="brute")
    assert calls[7:] == list(range(9))


# ---------------------------------------------------------------------------
# The transfer engine past the enumeration cap, against the closed forms
# ---------------------------------------------------------------------------

# The largest order the CLI serves; the exhaustive walk stops near n = 11.
ORDER = 24
small = st.integers(1, 4)
at_least_2 = st.integers(2, 4)
rhos = st.sampled_from([pi.letters for size in (1, 2, 3) for pi in enumerate_nc(size)])
families = st.one_of(
    st.builds(core.Run, small),
    st.builds(core.RunAscent, small),
    st.builds(core.StaircaseTail, at_least_2, at_least_2),
    st.builds(core.RunStaircase, at_least_2, at_least_2),
    st.builds(core.Sandwich, small, rhos, small),
    st.tuples(rhos, small)
    .filter(lambda t: t[1] == 1 or len(t[0]) == 1 or t[0][1] != 1)
    .map(lambda t: core.RhoTail(*t)),
)


def transfer_series(mode, words, order=ORDER):
    """The engine's rows of its first marginal to size order - 1 as a series."""
    return TruncatedSeries(stats._transfer(mode, order - 1, words)[0])


@settings(max_examples=50, deadline=None)
@given(families)
def test_transfer_rows_equal_the_closed_series_past_the_cap(family):
    series = transfer_series("separate", (family.pattern().word,))
    assert series == formulas.closed_series(family, ORDER)


# Far past the cap, k reaches the 30s, so the running suffix sums of the
# move below the window add up many more prefixes than at n <= 11.
@pytest.mark.parametrize(
    "family",
    [
        core.Run(3),
        core.RunAscent(2),
        core.StaircaseTail(2, 2),
        core.RunStaircase(2, 3),
        core.RhoTail((1,), 2),
        core.Sandwich(1, (1,), 2),
    ],
    ids=str,
)
def test_transfer_rows_equal_the_closed_series_at_n_40(family):
    series = transfer_series("separate", (family.pattern().word,), order=41)
    assert series == formulas.closed_series(family, 41)
    if family == core.StaircaseTail(2, 2):
        # Rep weights pack one cell per count, whatever the size.
        rep = transfer_series("rep", (family.pattern().word,), order=41)
        assert rep.substitute(v=2) == formulas.gf_staircase_joint_rep(2, 2, 41, 2)


@settings(max_examples=6, deadline=None)
@given(small, small)
@example(2, 2)
def test_transfer_joint_tables_equal_the_closed_joint_series(a, b):
    series = transfer_series("joint", ((1,) * a, (1,) * b + (2,)))
    assert series == formulas.gf_joint_1a_1b2(a, b, ORDER)


def test_transfer_joint_table_equals_the_closed_joint_series_at_n_31():
    # The joint quadratic solved to x^31, past every order the CLI serves.
    series = transfer_series("joint", ((1, 1), (1, 1, 1, 2)), order=32)
    assert series == formulas.gf_joint_1a_1b2(2, 3, 32)


@settings(max_examples=6, deadline=None)
@given(at_least_2, at_least_2, st.sampled_from([Fraction(2), Fraction(1, 2)]))
@example(2, 2, 3)
def test_transfer_rep_tables_equal_the_closed_rep_series(m, a, v):
    series = transfer_series("rep", (core.StaircaseTail(m, a).pattern().word,))
    assert series.substitute(v=v) == formulas.gf_staircase_joint_rep(m, a, ORDER, v)
