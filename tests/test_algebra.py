"""Exact polynomial and truncated-series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpart.algebra import (
    DEFAULT_ORDER,
    MARKERS,
    MultiPoly,
    TruncatedSeries,
    catalan_series,
    series_div,
    series_sqrt,
    solve_poly_functional,
    solve_quadratic,
)
from ncpart.core import catalan
from ncpart.errors import (
    ConstantTermNotOne,
    NoConvergence,
    NonInvertibleConstantTerm,
    NoSeriesSolution,
    SingularDerivative,
)

Q = MultiPoly.marker("q")
P = MultiPoly.marker("p")
V = MultiPoly.marker("v")


def _is_canonical(poly):
    """Every stored coefficient is a nonzero int, or a Fraction that is
    not integral; never a bool or a float."""
    return all(
        c and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
        for _, c in poly.items()
    )


# ---------------------------------------------------------------------------
# MultiPoly
# ---------------------------------------------------------------------------


def test_marker_order_is_fixed():
    assert MARKERS == ("q", "p", "v")


def test_constructors_and_equality():
    assert MultiPoly.zero().is_zero()
    assert MultiPoly.const(0) == MultiPoly.zero()
    assert MultiPoly.one() == MultiPoly.const(1)
    assert MultiPoly.coerce(3) == MultiPoly.const(3)
    assert MultiPoly.coerce(Fraction(1, 2)) * 2 == MultiPoly.one()


def test_arithmetic_identities():
    assert (Q + 1) * (Q - 1) == Q * Q - 1
    assert (Q + P) * (Q + P) == Q**2 + Q * P * 2 + P**2
    assert (Q - Q).is_zero()
    assert Q * MultiPoly.zero() == MultiPoly.zero()
    assert -Q + Q == MultiPoly.zero()


def test_rational_coefficients_stay_exact():
    half = MultiPoly.const(Fraction(1, 2))
    third = MultiPoly.const(Fraction(1, 3))
    assert half + third == MultiPoly.const(Fraction(5, 6))
    assert half * third == MultiPoly.const(Fraction(1, 6))
    assert (half * Q + third * Q).scale(6) == Q.scale(5)


def test_coefficients_are_ints_until_non_integral():
    half = MultiPoly.const(Fraction(1, 2))
    assert half.as_constant() == Fraction(1, 2)
    assert type(half.scale(2).as_constant()) is int
    assert type((half + half).as_constant()) is int
    assert type((half * 2).as_constant()) is int
    assert _is_canonical(Q.scale(Fraction(1, 2)) + Q.scale(Fraction(3, 2)))
    assert type(MultiPoly.const(Fraction(6, 3)).as_constant()) is int
    assert type(MultiPoly.const(True).as_constant()) is int
    assert type(MultiPoly.zero().as_constant()) is int


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        MultiPoly.const(0.5)
    with pytest.raises(TypeError):
        Q.scale(0.5)
    with pytest.raises(TypeError):
        MultiPoly({(1, 0, 0): 0.5})
    with pytest.raises(TypeError):
        TruncatedSeries.one(3).scale(0.5)


def test_substitute():
    poly = Q**2 * P + V
    assert poly.substitute(q=2) == P.scale(4) + V
    assert poly.substitute(q=1, p=1, v=0) == MultiPoly.one()
    assert poly.substitute(p=Q) == Q**3 + V
    with pytest.raises(ValueError):
        poly.substitute(w=1)


def test_str_canonical_forms():
    assert str(MultiPoly.zero()) == "0"
    assert str(MultiPoly.const(4) + Q) == "4 + q"
    assert str(Q**2 * 3 + Q.scale(16) + 9) == "9 + 16*q + 3*q^2"
    assert str(P**2 + P**2 * Q) == "p^2 + q*p^2"


def test_json_round_trip():
    poly = Q**2 * P.scale(Fraction(-3, 7)) + V + 5
    data = poly.to_json_obj()
    assert MultiPoly.from_json_obj(data) == poly
    assert MultiPoly.from_json_obj([]) == MultiPoly.zero()
    simple = MultiPoly.const(4) + Q
    assert simple.to_json_obj() == [
        {"exponents": {}, "coeff": "4"},
        {"exponents": {"q": 1}, "coeff": "1"},
    ]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(
                st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
            ),
            st.fractions(min_value=-9, max_value=9, max_denominator=9),
        ),
        max_size=6,
    )
)
def test_json_round_trip_random(terms):
    poly = MultiPoly.zero()
    for exps, coeff in terms:
        poly = poly + MultiPoly({exps: coeff})
    assert MultiPoly.from_json_obj(poly.to_json_obj()) == poly


# ---------------------------------------------------------------------------
# TruncatedSeries
# ---------------------------------------------------------------------------


def test_series_basics():
    x = TruncatedSeries.from_x_poly({1: MultiPoly.one()}, 6)
    one = TruncatedSeries.one(6)
    geom = series_div(one, one - x)
    assert [c for c in geom.coeffs] == [MultiPoly.one()] * 6
    assert (geom - geom).is_zero()
    assert geom.coefficient(3) == MultiPoly.one()
    assert geom.truncate(3).order == 3


def test_series_multiplication_truncates():
    x = TruncatedSeries.from_x_poly({1: MultiPoly.one()}, 4)
    sq = x * x
    assert sq.order == 4
    assert sq.coefficient(2) == MultiPoly.one()
    assert sq.coefficient(3).is_zero()


def test_series_div_requires_invertible_or_monomial():
    one = TruncatedSeries.one(5)
    x = TruncatedSeries.from_x_poly({1: MultiPoly.one()}, 5)
    with pytest.raises(NonInvertibleConstantTerm):
        series_div(one, x)
    # marker-monomial constant term divides exactly
    q_series = TruncatedSeries.constant(Q, 5)
    num = q_series + q_series * x
    quotient = series_div(num, q_series)
    assert quotient == one + x
    # ... but an inexact step raises
    with pytest.raises(NonInvertibleConstantTerm):
        series_div(one, q_series)


def test_series_div_by_a_non_unit_constant_is_exact():
    # 1/(3 - x) = sum_k x^k / 3^(k+1)
    order = 8
    den = TruncatedSeries.from_x_poly({0: 3, 1: -1}, order)
    quotient = series_div(TruncatedSeries.one(order), den)
    for k, coeff in enumerate(quotient.coeffs):
        assert coeff.as_constant() == Fraction(1, 3 ** (k + 1))
    assert quotient * den == TruncatedSeries.one(order)
    # An integral quotient comes back in ints.
    assert series_div(den.scale(5), den) == TruncatedSeries.constant(5, order)
    assert all(_is_canonical(c) for c in series_div(den.scale(5), den).coeffs)


def test_solve_quadratic_with_a_non_unit_leading_coefficient():
    # x*F^2 - 2F + 1 = 0 gives F = C(x/4)/2: the coefficient of x^n is
    # C_n / (2 * 4^n), and F(0) = 1/2.
    order = 10
    x = TruncatedSeries.from_x_poly({1: 1}, order)
    two = TruncatedSeries.constant(2, order)
    one = TruncatedSeries.one(order)
    solution = solve_quadratic(x, two, one)
    for n, coeff in enumerate(solution.coeffs):
        assert coeff.as_constant() == Fraction(catalan(n), 2 * 4**n)
    assert (x * solution * solution - two * solution + one).is_zero()


def test_series_sqrt_inverts_squaring():
    x = TruncatedSeries.from_x_poly({1: MultiPoly.one()}, 10)
    s = TruncatedSeries.one(10) + x.scale(3) + (x * x).scale(Fraction(1, 5))
    root = series_sqrt(s * s)
    assert root == s
    with pytest.raises(ConstantTermNotOne):
        series_sqrt(x)


def test_catalan_series_matches_catalan_numbers():
    series = catalan_series(13)
    for n in range(13):
        assert series.coefficient(n) == MultiPoly.const(catalan(n))


def test_solve_quadratic_recovers_catalan():
    # F = 1 + x F^2, i.e. x*F^2 - F + 1 = 0.
    order = 12
    x = TruncatedSeries.from_x_poly({1: MultiPoly.one()}, order)
    one = TruncatedSeries.one(order)
    fixed = solve_quadratic(x, one, one)
    assert fixed == catalan_series(order)


def test_solve_poly_functional_recovers_catalan():
    # x*Y^2 - Y + 1 = 0 with Y(0) = 1, as a degree-2 functional equation.
    order = 12
    x = TruncatedSeries.from_x_poly({1: MultiPoly.one()}, order)
    one = TruncatedSeries.one(order)
    solution = solve_poly_functional([one, -one, x], 1)
    assert solution == catalan_series(order)


def _q_poly(terms):
    return sum((MultiPoly.marker("q", e, c) for e, c in terms), MultiPoly.zero())


# Small rational polynomials in q, as series coefficients.
small_q_polys = st.lists(
    st.tuples(st.integers(0, 2), st.fractions(-3, 3, max_denominator=3)), max_size=2
).map(_q_poly)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_q_polys, min_size=1, max_size=12))
def test_series_sqrt_of_a_square_is_the_root(coeffs):
    s = TruncatedSeries([MultiPoly.one()] + coeffs[1:])
    assert series_sqrt(s * s) == s


# Small rational polynomials in q and p.
small_qp_polys = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.fractions(-3, 3, max_denominator=3),
    ),
    max_size=2,
).map(lambda terms: MultiPoly({(eq, ep, 0): c for (eq, ep), c in terms}))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 8),
    st.dictionaries(st.integers(1, 7), small_qp_polys, max_size=3),
    st.dictionaries(st.integers(1, 7), small_qp_polys, max_size=3),
)
def test_series_sqrt_is_multiplicative(order, a_terms, b_terms):
    # Both roots have constant term 1, so their product is the root of a*b
    # with constant term 1; formulas.gf_1a_rho_1b takes one root on this.
    a = TruncatedSeries.from_x_poly({0: 1, **a_terms}, order)
    b = TruncatedSeries.from_x_poly({0: 1, **b_terms}, order)
    assert series_sqrt(a * b) == series_sqrt(a) * series_sqrt(b)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 10),
    st.dictionaries(st.integers(1, 9), small_q_polys, max_size=3),
    st.dictionaries(st.integers(1, 9), small_q_polys, max_size=3),
    st.dictionaries(st.integers(0, 9), small_q_polys, max_size=3),
)
def test_solve_quadratic_matches_the_fixed_point_iterate(
    order, a_terms, b_terms, c_terms
):
    # a(0) = 0 and b(0) = 1, so F <- c + a*F^2 + (1 - b)*F fixes one more
    # coefficient of the solution per step.
    a = TruncatedSeries.from_x_poly(a_terms, order)
    b = TruncatedSeries.from_x_poly({0: 1, **b_terms}, order)
    c = TruncatedSeries.from_x_poly(c_terms, order)
    fixed = TruncatedSeries.zero(order)
    for _ in range(order):
        fixed = c + a * fixed * fixed + (TruncatedSeries.one(order) - b) * fixed
    assert solve_quadratic(a, b, c) == fixed


def test_solver_error_classes():
    one = TruncatedSeries.one(6)
    x = TruncatedSeries.from_x_poly({1: 1}, 6)
    with pytest.raises(NoSeriesSolution):
        solve_quadratic(one, x, one)  # b(0) = 0
    with pytest.raises(NoSeriesSolution):
        solve_quadratic(one, one, one)  # F(0) = 1 gives 1 - 1 + 1 != 0
    with pytest.raises(SingularDerivative):
        solve_poly_functional([TruncatedSeries.zero(6), 0, 1], 0)  # Y^2 = 0
    # 1 - Y = 0 with the wrong seed Y(0) = 2: caught by the first round's
    # defect check, and at order 1, where no round runs, by the residual.
    for order in (6, 1):
        with pytest.raises(NoConvergence):
            solve_poly_functional([TruncatedSeries.one(order), -1], 2)


def test_series_str():
    assert str(catalan_series(4)) == "(1) + (1)*x^1 + (2)*x^2 + (5)*x^3 + O(x^4)"


def test_default_order_cap():
    assert DEFAULT_ORDER == 24


# ---------------------------------------------------------------------------
# Canonical storage and an independent check of the arithmetic
# ---------------------------------------------------------------------------


def _evaluate(poly, point):
    """poly at the rational point (q, p, v), in plain Fraction arithmetic."""
    total = Fraction(0)
    for exps, coeff in poly.items():
        term = Fraction(coeff)
        for value, e in zip(point, exps):
            term *= value**e
        total += term
    return total


# Integral values appear both as ints and as Fractions with denominator 1.
rationals = st.one_of(
    st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4)
)
exponent_triples = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)
polys = st.dictionaries(exponent_triples, rationals, max_size=4).map(MultiPoly)
points = st.tuples(*[st.fractions(-3, 3, max_denominator=5)] * 3)


@settings(max_examples=60, deadline=None)
@given(polys, polys, rationals, st.integers(0, 3), exponent_triples, rationals)
def test_polynomial_operations_store_canonical_coefficients(
    a, b, r, k, exps, mono_coeff
):
    results = [a, a + b, a - b, a * b, -a, a**k, a.scale(r), a + r, a * r]
    if mono_coeff:
        mono = MultiPoly({exps: mono_coeff})
        product = a * mono
        assert product.divide_exact(mono) == a
        results += [product, product.divide_exact(mono)]
    results.append(a.substitute(q=r, p=b))
    results.append(MultiPoly.from_json_obj(a.to_json_obj()))
    for result in results:
        assert _is_canonical(result), result


# Series with a rational (possibly non-integral) polynomial per coefficient.
series_terms = st.dictionaries(st.integers(1, 6), polys, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 7),
    series_terms,
    series_terms,
    rationals.filter(bool),
    st.dictionaries(st.integers(0, 6), polys, max_size=3),
)
def test_series_operations_store_canonical_coefficients(
    order, a_terms, b_terms, b0, c_terms
):
    a = TruncatedSeries.from_x_poly(a_terms, order)
    b = TruncatedSeries.from_x_poly({0: b0, **b_terms}, order)
    c = TruncatedSeries.from_x_poly(c_terms, order)
    unit = TruncatedSeries.from_x_poly({0: 1, **a_terms}, order)
    results = [
        series_div(c, b),
        series_sqrt(unit),
        solve_quadratic(a, b, c),
        a * c,
        unit * b,
    ]
    for result in results:
        for coeff in result.coeffs:
            assert _is_canonical(coeff), coeff


@settings(max_examples=80, deadline=None)
@given(polys, polys, rationals, points)
def test_arithmetic_matches_evaluation_at_rational_points(a, b, r, point):
    va, vb = _evaluate(a, point), _evaluate(b, point)
    assert _evaluate(a * b, point) == va * vb
    assert _evaluate(a + b, point) == va + vb
    assert _evaluate(a - b, point) == va - vb
    assert _evaluate(a.scale(r), point) == va * r


# The fused convolution kernel of ``TruncatedSeries.__mul__`` and
# ``series_div``, against a schoolbook built from MultiPoly + and *.  The
# kernel also serves MultiPoly *, so the term-dict product itself is
# checked independently above, by evaluation at rational points.


def _schoolbook_mul(a, b):
    n = min(a.order, b.order)
    out = []
    for k in range(n):
        acc = MultiPoly.zero()
        for i in range(k + 1):
            acc = acc + a.coeffs[i] * b.coeffs[k - i]
        out.append(acc)
    return TruncatedSeries(out)


def _schoolbook_div(num, den):
    n = min(num.order, den.order)
    head = den.coeffs[0]
    const = head.as_constant()
    out = []
    for k in range(n):
        acc = num.coeffs[k]
        for j in range(1, k + 1):
            acc = acc + (-den.coeffs[j]) * out[k - j]
        out.append(acc.scale(Fraction(1, const)) if const else acc.divide_exact(head))
    return TruncatedSeries(out)


def _quotient_or_error(divide, num, den):
    try:
        return divide(num, den)
    except NonInvertibleConstantTerm:
        return NonInvertibleConstantTerm


# Constant terms a divisor may have: a nonzero rational, or one monomial
# with a marker, such as the 2q that gf_1m(1) divides by.
divisor_heads = st.one_of(
    rationals.filter(bool).map(MultiPoly.const),
    st.builds(
        lambda exps, c: MultiPoly({exps: c}),
        exponent_triples.filter(any),
        rationals.filter(bool),
    ),
)
# Sparse series: every missing key, and an empty poly, is a zero coefficient.
kernel_terms = st.dictionaries(st.integers(0, 6), polys, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), kernel_terms, kernel_terms, divisor_heads)
@example(5, 7, {0: MultiPoly.one(), 2: Q.scale(Fraction(1, 2))}, {1: -Q}, Q.scale(2))
def test_fused_kernel_matches_the_schoolbook(order_a, order_b, a_terms, b_terms, head):
    a = TruncatedSeries.from_x_poly(a_terms, order_a)
    b = TruncatedSeries.from_x_poly(b_terms, order_b)
    den = TruncatedSeries.from_x_poly({**b_terms, 0: head}, order_b)
    products = [a * b, b * a, a * den]
    assert products[0] == products[1] == _schoolbook_mul(a, b)
    assert products[2] == _schoolbook_mul(a, den)
    # a * den divides exactly by den, whatever its constant term.
    quotient = series_div(products[2], den)
    assert quotient == _schoolbook_div(products[2], den)
    assert quotient == a.truncate(min(order_a, order_b))
    # Any other numerator: the same quotient, or the same inexact step.
    assert _quotient_or_error(series_div, a, den) == _quotient_or_error(
        _schoolbook_div, a, den
    )
    for result in products + [quotient]:
        for coeff in result.coeffs:
            assert _is_canonical(coeff), coeff


# ``**`` on both rings against the repeated product it abbreviates.
power_series = st.builds(
    TruncatedSeries.from_x_poly,
    st.dictionaries(st.integers(0, 4), polys, max_size=3),
    st.integers(1, 5),
)


@settings(max_examples=60, deadline=None)
@given(polys, power_series, st.integers(0, 5), st.integers(-3, -1))
def test_power_is_the_repeated_product(poly, series, k, negative):
    for x, one in ((poly, MultiPoly.one()), (series, TruncatedSeries.one(series.order))):
        product = one
        for _ in range(k):
            product = product * x
        assert x**k == product
        with pytest.raises(ValueError):
            x**negative
