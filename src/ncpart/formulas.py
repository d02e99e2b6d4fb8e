"""Closed-form generating functions for the covered pattern families and
their closed-form occurrence totals.

Every generating function returns a :class:`TruncatedSeries` whose
coefficients are exact polynomials in the markers.  After each evaluation
the series is checked to be combinatorial: integer, nonnegative
coefficients (rationals may appear only when a rational specialization
value was supplied by the caller).

This module is one of the package's independent routes to a distribution;
it never calls the distribution engines in ``stats``.  The checks of these
series against the engines' rows, Table 1's equations among them, are the
verify suites in ``cli``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence, Union

from .algebra import (
    DEFAULT_ORDER,
    MultiPoly,
    TruncatedSeries,
    series_div,
    series_sqrt,
    solve_poly_functional,
    solve_quadratic,
)
from .core import (
    PatternFamily,
    RhoTail,
    Run,
    RunAscent,
    RunStaircase,
    Sandwich,
    StaircaseTail,
    SubwordPattern,
    as_pattern,
    catalan,
    classify_pattern,
)
from .errors import UnsupportedFamily

__all__ = [
    "CLOSED_FORMS",
    "closed_series",
    "gf_joint_1a_1b2",
    "joint_quadratic",
    "gf_1m",
    "gf_1m2",
    "gf_rho_1b",
    "gf_1a_rho_1b",
    "gf_staircase_tail",
    "gf_staircase_joint_rep",
    "total_occurrences",
]

Rational = Union[int, Fraction]


def _q() -> MultiPoly:
    return MultiPoly.marker("q")


def _check_combinatorial(series: TruncatedSeries, *, integral: bool = True) -> TruncatedSeries:
    """Assert the series looks like a counting series before returning it."""
    for k, coeff in enumerate(series.coeffs):
        if not coeff.has_nonnegative_coeffs():
            raise AssertionError(
                f"coefficient of x^{k} has a negative term: {coeff}"
            )
        if integral and not coeff.has_integer_coeffs():
            raise AssertionError(
                f"coefficient of x^{k} has a non-integer term: {coeff}"
            )
    return series


def _xseries(
    pairs: Sequence[tuple[int, object]], order: int
) -> TruncatedSeries:
    """Series from (x-exponent, coefficient) pairs, summing repeats.

    Several formulas place terms at parameter-dependent exponents that can
    coincide at small parameters; a dict literal would silently drop one,
    so collisions are accumulated here.
    """
    terms: dict[int, MultiPoly] = {}
    for k, value in pairs:
        terms[k] = terms.get(k, MultiPoly.zero()) + MultiPoly.coerce(value)
    return TruncatedSeries.from_x_poly(terms, order)


# ---------------------------------------------------------------------------
# Joint distribution of a run and a run-ascent pattern
# ---------------------------------------------------------------------------


def joint_quadratic(
    a: int, b: int, order: int
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """The quadratic A*F^2 - B*F + C = 0 satisfied by the joint series of
    the patterns 1^a (marker p) and 1^b 2 (marker q).

    The series from :func:`gf_joint_1a_1b2` makes A*F^2 - B*F + C vanish
    identically mod x^order; verification suites check that residual."""
    q = _q()
    p = MultiPoly.marker("p")
    one = MultiPoly.one()
    if a >= b:
        # marked-run weight q(p-1) on x^a; ascent weight (q-1)(1-px) on x^b
        shared = [(a, q * (p - one)), (b, q - one), (b + 1, -(q - one) * p)]
    else:
        # run weight (p-1) on x^a; ascent weight (q-1)(1-x)p^(b-a+1) on x^b
        t = (q - one) * p ** (b - a + 1)
        shared = [(a, p - one), (b, t), (b + 1, -t)]
    A = _xseries([(1, one), (2, -p)] + shared, order)
    B = _xseries([(0, one), (1, -p)] + shared, order)
    C = _xseries([(0, one), (1, -p), (a, p - one)], order)
    return A, B, C


def gf_joint_1a_1b2(a: int, b: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Joint occurrence series of the run 1^a (marker p) and the
    run-ascent 1^b 2 (marker q) over all non-crossing partitions."""
    Run(a)
    RunAscent(b)
    A, B, C = joint_quadratic(a, b, order)
    return _check_combinatorial(solve_quadratic(A, B, C))


# ---------------------------------------------------------------------------
# Single-pattern radicals
# ---------------------------------------------------------------------------


def _radical(
    w: TruncatedSeries, radicand: TruncatedSeries, denominator: TruncatedSeries
) -> TruncatedSeries:
    """The shape every single-pattern radical shares, (w - sqrt(radicand))
    / (x * denominator), checked to be a counting series."""
    return _check_combinatorial(
        series_div((w - series_sqrt(radicand)).shift_down(1), denominator)
    )


def gf_1m(m: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Occurrence series (marker q) of the constant pattern 1^m."""
    Run(m)
    q = _q()
    one = MultiPoly.one()
    n = order + 1
    w = _xseries([(0, one), (1, -q), (m, q - one)], n)
    inner = _xseries(
        [
            (0, one),
            (1, -(q + MultiPoly.const(4))),
            (2, q.scale(4)),
            (m, (q - one).scale(-3)),
        ],
        n,
    )
    denominator = _xseries(
        [(0, MultiPoly.const(2)), (1, q.scale(-2)), (m - 1, (q - one).scale(2))],
        order,
    )
    return _radical(w, w * inner, denominator)


def gf_1m2(m: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Occurrence series (marker q) of the run-ascent pattern 1^m 2."""
    RunAscent(m)
    q = _q()
    one = MultiPoly.one()
    n = order + 1
    w = _xseries([(0, one), (m, q - one)], n)
    mirror = _xseries([(0, one), (m, one - q)], n)
    radicand = mirror * mirror - TruncatedSeries.from_x_poly({1: 4}, n)
    denominator = _xseries(
        [(0, MultiPoly.const(2)), (m - 1, (q - one).scale(2))], order
    )
    return _radical(w, radicand, denominator)


def gf_rho_1b(
    rho: Union[Sequence[int], str], b: int, order: int = DEFAULT_ORDER
) -> TruncatedSeries:
    """Occurrence series (marker q) of the pattern (rho+1) 1^b.

    The series depends on rho only through its length: all patterns with
    the same |rho| + b share it.
    """
    family = RhoTail(tuple(as_pattern(rho).word), b)
    a = len(family.rho)
    q = _q()
    one = MultiPoly.one()
    n = order + 1
    w = _xseries([(0, one), (a + b - 1, (q - one).scale(2))], n)
    radicand = _xseries(
        [(0, one), (1, MultiPoly.const(-4)), (a + b, (q - one).scale(-4))], n
    )
    denominator = _xseries(
        [(0, MultiPoly.const(2)), (a + b - 2, (q - one).scale(2))], order
    )
    return _radical(w, radicand, denominator)


def gf_1a_rho_1b(
    a: int,
    rho: Union[Sequence[int], str],
    b: int,
    order: int = DEFAULT_ORDER,
) -> TruncatedSeries:
    """Occurrence series (marker q) of the pattern 1^a (rho+1) 1^b.

    Symmetric in a and b; depends on rho only through its length.
    """
    family = Sandwich(a, tuple(as_pattern(rho).word), b)
    m = len(family.rho)
    s = min(a, b)
    t = max(a, b)
    q = _q()
    one = MultiPoly.one()
    n = order + 1

    def lifted(span: int) -> TruncatedSeries:
        # (1-x) + (1-q)(1 - x^span) x^(m+t): the second part vanishes when span == 0
        return _xseries(
            [(0, one), (1, -one), (m + t, one - q), (m + t + span, q - one)], n
        )

    P = lifted(s - 1)
    Q = lifted(s)
    # One root of Q * (Q - 4xP): sqrt(Q) * sqrt(Q - 4xP), both with constant term 1.
    return _radical(Q, Q * (Q - P.shift_up(1).scale(4)), P.scale(2))


# ---------------------------------------------------------------------------
# Staircase-tail patterns: kernel-method series and the rep refinement
# ---------------------------------------------------------------------------


def _staircase_kernel(m: int, a: int, order: int) -> list[TruncatedSeries]:
    """Coefficients (in y-degree order) of the kernel polynomial whose
    power-series root with y(0)=1 is the staircase-tail series."""
    weight = _q() - MultiPoly.one()
    exp = a + m - 2
    pairs: list[list[tuple[int, object]]] = [[] for _ in range(max(2, m) + 1)]
    pairs[0].append((0, 1))
    pairs[1].append((0, -1))
    pairs[2].append((1, 1))
    pairs[m].append((exp, weight))
    pairs[m - 1].append((exp, -weight))
    return [_xseries(terms, order) for terms in pairs]


def gf_staircase_tail(m: int, a: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Occurrence series (marker q) of the pattern 1 2 ... (m-1) m^a,
    solved from its kernel equation by Newton iteration."""
    StaircaseTail(m, a)
    kernel = _staircase_kernel(m, a, order)
    return _check_combinatorial(solve_poly_functional(kernel, 1))


def gf_staircase_joint_rep(
    m: int,
    a: int,
    order: int = DEFAULT_ORDER,
    v_value: Rational = 1,
) -> TruncatedSeries:
    """Series of q^(occurrences of 1 2 ... (m-1) m^a) with the smallest
    repeated letter counted by the numeric weight ``v_value``.

    The only singular specialization of the underlying algebra is
    v_value = 1, which is routed through a collapse identity (the result
    is then the plain occurrence series).  Any other exact rational is
    evaluated directly.
    """
    StaircaseTail(m, a)
    v = Fraction(v_value)
    q = _q()
    one = MultiPoly.one()
    y = gf_staircase_tail(m, a, order)
    unit = TruncatedSeries.one(order)
    one_minus_x = TruncatedSeries.from_x_poly({0: 1, 1: -1}, order)
    xy = y.shift_up(1)
    one_minus_xy = unit - xy
    cat = [catalan(j) for j in range(a)]

    def low_sum(u: TruncatedSeries) -> TruncatedSeries:
        # (sum_{j<a} C_j x^j) / (1 - u)
        poly = TruncatedSeries.from_x_poly(
            {j: cat[j] for j in range(a)}, order
        )
        return series_div(poly, unit - u)

    def mid_sum(u: TruncatedSeries, v_rat: Fraction) -> TruncatedSeries:
        # x * sum_{j<=a-3} sum_{1<=i<=a-2-j} C_i C_j x^(i+j) / ((1-u)(1-v x))
        if a == 2:
            return TruncatedSeries.zero(order)
        terms: dict[int, Fraction] = {}
        for j in range(a - 2):
            for i in range(1, a - 1 - j):
                key = i + j + 1
                terms[key] = terms.get(key, Fraction(0)) + Fraction(
                    catalan(i) * catalan(j)
                )
        poly = TruncatedSeries.from_x_poly(terms, order)
        den = (unit - u) * TruncatedSeries.from_x_poly({0: 1, 1: -v_rat}, order)
        return series_div(poly, den)

    inv_x_xy = series_div(unit, one_minus_x * one_minus_xy)
    diag = (
        (xy ** m) * one_minus_x - one_minus_xy.shift_up(m)
    ) * inv_x_xy * (q - one)
    diag = diag.shift_up(a - 2)
    axx = (
        diag
        - mid_sum(xy, Fraction(1))
        + inv_x_xy.shift_up(a).scale(cat[a - 1])
        + low_sum(xy)
    )

    one_minus_vx = TruncatedSeries.from_x_poly({0: 1, 1: -v}, order)
    y_minus_one = y - unit
    if v == 1:
        avx = axx
    else:
        inv_pair = series_div(unit, one_minus_vx * one_minus_x)
        g1 = inv_pair.shift_up(a).scale(cat[a - 1])
        bracket_num = (
            one_minus_x.scale(v ** m) - one_minus_vx
        ) * y_minus_one * inv_pair
        g2 = bracket_num.shift_up(a + m - 2) * (one - q)
        g2 = g2.scale(1 / (1 - v))
        g3 = (y_minus_one * axx).scale(1 / (1 - v))
        vx = TruncatedSeries.from_x_poly({1: v}, order)
        bracket = g1 + g2 + g3 - mid_sum(vx, Fraction(1)) + low_sum(vx)
        avx = series_div(
            bracket, y - TruncatedSeries.constant(v, order)
        ).scale(1 - v)

    tail = series_div(y_minus_one, one_minus_vx).shift_up(a + m - 2)
    tail = tail * (q - one).scale(v ** m)
    folded = (
        y_minus_one * (avx - y)
        - mid_sum(TruncatedSeries.zero(order), v).scale(v)
        + tail
    )

    corrections: dict[int, Fraction] = {}
    for n in range(2, order):
        total = Fraction(0)
        for k in range(max(1, n - a + 2), n + 1):
            total += (v ** k) * (catalan(n - k + 1) - catalan(n - k))
        if total:
            corrections[n] = total

    # 1/(1 - x) is the all-ones series.
    result = folded + TruncatedSeries([1] * order) + TruncatedSeries.from_x_poly(
        corrections, order
    )
    integral = v.denominator == 1 and v >= 0
    if v >= 0:
        return _check_combinatorial(result, integral=integral)
    return result


# ---------------------------------------------------------------------------
# The closed forms of each family: series and occurrence totals
# ---------------------------------------------------------------------------

FamilyLike = Union[PatternFamily, SubwordPattern, Sequence[int], str]
SeriesForm = Callable[[PatternFamily, int], TruncatedSeries]
TotalForm = Callable[[PatternFamily, int], int]


def _total(shift: int, count: Callable[[PatternFamily, int], int]) -> TotalForm:
    """The total count(family, r) at r = n - len(pattern) + shift; 0 for r < 1,
    where the pattern cannot fit."""

    def total(fam: PatternFamily, n: int) -> int:
        r = n - len(fam.pattern().word) + shift
        return count(fam, r) if r >= 1 else 0

    return total


def _staircase_count(fam: PatternFamily, r: int) -> int:
    numerator = math.comb(2 * r + fam.m, r) * r
    assert numerator % (2 * r + fam.m) == 0, "staircase total is not integral"
    return numerator // (2 * r + fam.m)


def _staircase_series(fam: PatternFamily, order: int) -> TruncatedSeries:
    return gf_staircase_tail(fam.m, fam.a, order)


#: Each structured family's closed generating series and closed occurrence
#: total.  ``Generic`` has neither.  The series call the ``gf_*`` functions
#: through this module's globals.
CLOSED_FORMS: dict[type, tuple[SeriesForm, TotalForm]] = {
    Run: (
        lambda f, order: gf_1m(f.a, order),
        _total(1, lambda f, r: math.comb(2 * r, r + 1)),
    ),
    RunAscent: (
        lambda f, order: gf_1m2(f.a, order),
        _total(2, lambda f, r: math.comb(2 * r - 1, r + 1)),
    ),
    StaircaseTail: (_staircase_series, _total(1, _staircase_count)),
    # Shares its distribution with the mirrored staircase-tail pattern.
    RunStaircase: (_staircase_series, _total(1, _staircase_count)),
    Sandwich: (
        lambda f, order: gf_1a_rho_1b(f.a, f.rho, f.b, order),
        _total(1, lambda f, r: math.comb(2 * r, r + 1)),
    ),
    RhoTail: (
        lambda f, order: gf_rho_1b(f.rho, f.b, order),
        _total(2, lambda f, r: math.comb(2 * r - 2, r + 1)),
    ),
}


def closed_series(family: PatternFamily, order: int) -> TruncatedSeries:
    """The closed generating series (marker q) of a structured family."""
    forms = CLOSED_FORMS.get(type(family))
    if forms is None:
        raise UnsupportedFamily(
            "no closed form covers this pattern; applicable methods: brute, transfer"
        )
    return forms[0](family, order)


def total_occurrences(family: FamilyLike, n: int) -> int:
    """Total number of occurrences of the pattern over all size-n
    non-crossing partitions, from the closed-form count.

    Below the formula's threshold the total is 0 (the pattern cannot fit).
    Generic patterns have no closed form: :class:`UnsupportedFamily` is
    raised; callers may fall back to the q-derivative of the distribution
    rows at q=1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not isinstance(family, PatternFamily):
        family = classify_pattern(as_pattern(family))
    forms = CLOSED_FORMS.get(type(family))
    if forms is None:
        raise UnsupportedFamily(
            f"no closed-form total for pattern {family.pattern().text!r}; "
            "fall back to the q-derivative of the distribution rows at q=1"
        )
    return forms[1](family, n)
