"""Closed-form generating series against brute-force enumeration."""

from fractions import Fraction

import pytest

from ncpart.algebra import MultiPoly
from ncpart.cli import (
    MAX_ORDER,
    TABLE1_PATTERNS,
    _totals_instances,
    table1_mutation_slots,
    verify_table1,
)
from ncpart.core import (
    RhoTail,
    RunStaircase,
    Sandwich,
    StaircaseTail,
    classify_pattern,
)
from ncpart.errors import UnsupportedFamily
from ncpart.formulas import (
    closed_series,
    gf_1a_rho_1b,
    gf_1m,
    gf_1m2,
    gf_joint_1a_1b2,
    gf_rho_1b,
    gf_staircase_joint_rep,
    gf_staircase_tail,
    joint_quadratic,
    total_occurrences,
)
from ncpart.stats import (
    distribution_rows,
    joint_rows,
    rep_joint_rows,
)

ORDER = 10
N_MAX = ORDER - 1

Q_MONO = MultiPoly.marker("q")


def assert_matches_brute(series, pattern, n_max=N_MAX):
    rows = distribution_rows(n_max, pattern)
    for n in range(n_max + 1):
        assert series.coefficient(n) == rows[n], (pattern, n)


# ---------------------------------------------------------------------------
# Single-pattern series
# ---------------------------------------------------------------------------


def test_gf_run_matches_brute():
    for m in range(1, 5):
        assert_matches_brute(gf_1m(m, ORDER), "1" * m)


def test_gf_run_ascent_matches_brute():
    for m in range(1, 5):
        assert_matches_brute(gf_1m2(m, ORDER), "1" * m + "2")


def test_gf_rho_tail_matches_brute():
    for rho, b in (("1", 2), ("11", 1), ("12", 1), ("1", 3), ("12", 2)):
        fam = RhoTail(tuple(int(c) for c in rho), b)
        assert_matches_brute(gf_rho_1b(rho, b, ORDER), fam.pattern())


def test_gf_rho_tail_depends_only_on_total_length():
    for first, second in ((("1", 2), ("11", 1)), (("11", 1), ("12", 1)), (("1", 3), ("12", 2))):
        assert gf_rho_1b(first[0], first[1], ORDER) == gf_rho_1b(
            second[0], second[1], ORDER
        )


def test_gf_sandwich_matches_brute():
    for tau in ("121", "1121", "1211", "1221", "1231"):
        fam = classify_pattern(tau)
        assert isinstance(fam, Sandwich)
        series = gf_1a_rho_1b(fam.a, fam.rho, fam.b, ORDER)
        assert_matches_brute(series, tau)


def test_gf_sandwich_is_symmetric_in_the_runs():
    for a, rho, b in ((2, "1", 1), (3, "1", 1), (2, "11", 1), (1, "12", 2)):
        assert gf_1a_rho_1b(a, rho, b, ORDER) == gf_1a_rho_1b(b, rho, a, ORDER)


def test_gf_staircase_tail_matches_brute():
    for m, a in ((2, 2), (3, 2), (2, 3)):
        assert_matches_brute(
            gf_staircase_tail(m, a, ORDER), StaircaseTail(m, a).pattern()
        )


# ---------------------------------------------------------------------------
# Joint series
# ---------------------------------------------------------------------------


def test_gf_joint_matches_brute():
    for a, b in ((1, 1), (2, 1), (2, 2), (3, 2)):
        series = gf_joint_1a_1b2(a, b, ORDER)
        rows = joint_rows(N_MAX, "1" * a, "1" * b + "2")
        for n in range(N_MAX + 1):
            assert series.coefficient(n) == rows[n], (a, b, n)


def test_joint_quadratic_residual_vanishes():
    for a, b in ((1, 1), (2, 1), (2, 2), (2, 3)):
        series = gf_joint_1a_1b2(a, b, ORDER)
        eq_a, eq_b, eq_c = joint_quadratic(a, b, ORDER)
        residual = eq_a * series * series - eq_b * series + eq_c
        assert residual.is_zero(), (a, b)


def test_joint_specializes_to_single_pattern_series():
    for m in range(1, 5):
        at_q_one = gf_joint_1a_1b2(m, 1, ORDER).substitute(
            q=Fraction(1), p=Q_MONO
        )
        assert at_q_one == gf_1m(m, ORDER)
        at_p_one = gf_joint_1a_1b2(1, m, ORDER).substitute(p=Fraction(1))
        assert at_p_one == gf_1m2(m, ORDER)


# ---------------------------------------------------------------------------
# Rep-refined staircase series
# ---------------------------------------------------------------------------


# a >= 3 reaches the corrections at n < a and the mid sums, which (2, 2)
# does not; the CLI serves every such (m, a, v) through ``series --v``.
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("a", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "v",
    [Fraction(0), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1, 3), Fraction(1, 10)],
)
def test_gf_staircase_joint_rep_matches_brute(m, a, v):
    order = 12
    rows = rep_joint_rows(order - 1, StaircaseTail(m, a).pattern())
    series = gf_staircase_joint_rep(m, a, order, v_value=v)
    for n in range(order):
        assert series.coefficient(n) == rows[n].substitute(v=v), n


def test_gf_staircase_joint_rep_collapses_at_one():
    assert gf_staircase_joint_rep(2, 2, ORDER, v_value=1) == gf_staircase_tail(
        2, 2, ORDER
    )
    assert gf_staircase_joint_rep(3, 2, ORDER, v_value=1) == gf_staircase_tail(
        3, 2, ORDER
    )


def test_gf_staircase_joint_rep_rejects_a_float_weight():
    # 0.1 would otherwise run on its binary value, 3602879701896397/2^55.
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        gf_staircase_joint_rep(2, 2, ORDER, v_value=0.1)


# ---------------------------------------------------------------------------
# Totals
# ---------------------------------------------------------------------------


def test_total_occurrences_anchors():
    assert total_occurrences("11", 4) == 15
    assert total_occurrences(StaircaseTail(2, 2), 6) == 84
    assert total_occurrences("1", 1) == 1
    assert total_occurrences("11", 1) == 0  # below threshold


def test_total_occurrences_matches_brute_derivative():
    for text in ("1", "11", "112", "122", "211", "221", "121", "1121", "231"):
        rows = distribution_rows(8, text)
        for n in range(9):
            brute = sum(c * e[0] for e, c in rows[n].items())
            assert total_occurrences(text, n) == brute, (text, n)


def test_total_occurrences_rejects_generic():
    with pytest.raises(UnsupportedFamily):
        total_occurrences("212", 5)
    with pytest.raises(UnsupportedFamily, match="^no closed form covers pattern '212'$"):
        closed_series(classify_pattern("212"), 5)
    with pytest.raises(ValueError):
        total_occurrences("11", -1)


def test_closed_series_and_total_agree_up_to_the_served_order():
    """d/dq at q=1 of each closed series is the closed total, for every
    family the totals suite covers and the mirrored run-staircase ones,
    at every size the CLI serves."""
    mirrored = [RunStaircase(a, m) for m in range(2, 5) for a in range(2, 7 - m)]
    for fam in _totals_instances() + mirrored:
        series = closed_series(fam, MAX_ORDER)
        for n in range(MAX_ORDER):
            derivative = sum(c * e[0] for e, c in series.coefficient(n).items())
            assert derivative == total_occurrences(fam, n), (fam, n)


# ---------------------------------------------------------------------------
# The seven-row equation table
# ---------------------------------------------------------------------------


def test_table1_patterns_are_frozen():
    assert TABLE1_PATTERNS == ("111", "112", "121", "122", "211", "212", "221")


def test_verify_table1_passes():
    report = verify_table1(order=8)
    assert report["status"] == "pass"
    assert report["target"] == "table1"
    assert all(c["status"] == "pass" for c in report["cells"])


def test_verify_table1_rejects_bad_order():
    with pytest.raises(ValueError):
        verify_table1(order=1)
    with pytest.raises(ValueError):
        verify_table1(order=18)


@pytest.mark.parametrize(
    "slot, message",
    [
        (("999", "A", 1, (0, 0, 0)), "unknown row '999'"),
        (("111", "D", 1, (0, 0, 0)), "unknown equation part 'D'"),
    ],
    ids=["row", "part"],
)
def test_mutation_of_an_unknown_row_or_part_is_rejected(slot, message):
    with pytest.raises(ValueError, match=message):
        verify_table1(order=8, mutation=slot)


def test_mutating_one_equation_coefficient_is_caught():
    slots = table1_mutation_slots()
    assert len(slots) > 0
    report = verify_table1(order=8, mutation=slots[0])
    assert report["status"] == "fail"
