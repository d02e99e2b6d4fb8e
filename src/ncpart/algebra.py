"""Exact arithmetic for truncated power series in x whose coefficients are
polynomials in the markers q, p, v with rational coefficients.

Everything here is exact: an integral coefficient is stored as a plain
``int`` and only a non-integral one as a :class:`fractions.Fraction`, no
floating point is ever used, and every division checks its own exactness.

Series equations have one solver, :func:`solve_poly_functional` (Newton
iteration with order doubling, each round checked by re-expanding the
equation); :func:`series_sqrt` and :func:`solve_quadratic` are its
degree-2 cases.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar, Union

from .errors import (
    ConstantTermNotOne,
    NoConvergence,
    NonInvertibleConstantTerm,
    NoSeriesSolution,
    SingularDerivative,
)

__all__ = [
    "MARKERS",
    "DEFAULT_ORDER",
    "MultiPoly",
    "TruncatedSeries",
    "series_div",
    "series_sqrt",
    "solve_quadratic",
    "solve_poly_functional",
    "catalan_series",
]

#: The markers a polynomial coefficient may contain, in canonical order.
MARKERS: tuple[str, ...] = ("q", "p", "v")

#: Default truncation order used by the closed-form generators.
DEFAULT_ORDER = 24

Exponents = tuple[int, int, int]
Rational = Union[int, Fraction]
PolyLike = Union["MultiPoly", int, Fraction]
_Ring = TypeVar("_Ring", "MultiPoly", "TruncatedSeries")

_ZERO_EXP: Exponents = (0, 0, 0)


def _as_rational(value: Rational) -> Rational:
    """``value`` in canonical form: an ``int`` when integral (never a
    ``bool``), else a :class:`Fraction`; a float is a TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _coeff_str(value: Rational) -> str:
    """Render a rational coefficient as a string: '5', '-3', or '3/2'."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class MultiPoly:
    """An exact polynomial in the markers q, p, v.

    Immutable.  Terms are stored as a dict mapping exponent triples
    ``(e_q, e_p, e_v)`` to nonzero coefficients, each a plain ``int`` when
    integral and a :class:`Fraction` (denominator > 1) otherwise; zero
    coefficients are never stored, so equality of term dicts is equality
    of polynomials.  Arithmetic stays in ``int`` until a value is
    non-integral, and every result is put back in that canonical form.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, Rational] | None = None) -> None:
        clean: dict[Exponents, Rational] = {}
        if terms:
            for exps, coeff in terms.items():
                c = _as_rational(coeff)
                if not c:
                    continue
                e = (int(exps[0]), int(exps[1]), int(exps[2]))
                if e[0] < 0 or e[1] < 0 or e[2] < 0:
                    raise ValueError(f"negative marker exponent in {exps!r}")
                s = _as_rational(clean.get(e, 0) + c)
                if s:
                    clean[e] = s
                else:
                    del clean[e]
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _POLY_ZERO

    @classmethod
    def one(cls) -> "MultiPoly":
        return _POLY_ONE

    @classmethod
    def const(cls, value: Rational) -> "MultiPoly":
        c = _as_rational(value)
        if not c:
            return _POLY_ZERO
        return _poly_from_clean({_ZERO_EXP: c})

    @classmethod
    def marker(cls, name: str, exponent: int = 1, coeff: Rational = 1) -> "MultiPoly":
        if name not in MARKERS:
            raise ValueError(f"unknown marker {name!r}; markers are {MARKERS}")
        if exponent < 0:
            raise ValueError("marker exponent must be >= 0")
        exps = [0, 0, 0]
        exps[MARKERS.index(name)] = exponent
        return cls({tuple(exps): coeff})  # type: ignore[arg-type]

    @classmethod
    def coerce(cls, value: PolyLike) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return cls.const(value)

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponents, Rational]]:
        """Iterate terms in canonical order (ascending exponent triples)."""
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def as_constant(self) -> Rational | None:
        """This polynomial as a rational if it has no marker, else None."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and _ZERO_EXP in self._terms:
            return self._terms[_ZERO_EXP]
        return None

    def single_term(self) -> tuple[Exponents, Rational] | None:
        """The (exponents, coeff) pair if this polynomial is one monomial."""
        if len(self._terms) == 1:
            return next(iter(self._terms.items()))
        return None

    def has_integer_coeffs(self) -> bool:
        return all(type(c) is int for c in self._terms.values())

    def has_nonnegative_coeffs(self) -> bool:
        return all(c > 0 for c in self._terms.values())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: PolyLike) -> "MultiPoly":
        if isinstance(other, TruncatedSeries):
            return NotImplemented
        o = MultiPoly.coerce(other)
        if not self._terms:
            return o
        if not o._terms:
            return self
        terms = dict(self._terms)
        for e, c in o._terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s = s + c
                if s:
                    terms[e] = _as_rational(s)
                else:
                    del terms[e]
        return _poly_from_clean(terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _poly_from_clean({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: PolyLike) -> "MultiPoly":
        if isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other: PolyLike) -> "MultiPoly":
        return MultiPoly.coerce(other) + (-self)

    def __mul__(self, other: PolyLike) -> "MultiPoly":
        if isinstance(other, TruncatedSeries):
            return NotImplemented
        o = MultiPoly.coerce(other)
        if not self._terms or not o._terms:
            return _POLY_ZERO
        oc = o.as_constant()
        if oc is not None:
            return self.scale(oc)
        sc = self.as_constant()
        if sc is not None:
            return o.scale(sc)
        return _product_sum({}, (self,), (o,), 0, 0)

    __rmul__ = __mul__

    def scale(self, value: Rational) -> "MultiPoly":
        c = _as_rational(value)
        if not c:
            return _POLY_ZERO
        if c == 1:
            return self
        terms = {e: k * c for e, k in self._terms.items()}
        if type(c) is not int or not self.has_integer_coeffs():
            terms = {e: _as_rational(k) for e, k in terms.items()}
        return _poly_from_clean(terms)

    def __pow__(self, exponent: int) -> "MultiPoly":
        return _power(self, exponent, _POLY_ONE)

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Divide by a single-monomial divisor, requiring exactness.

        Every term of ``self`` must be divisible by the divisor monomial;
        otherwise :class:`NonInvertibleConstantTerm` is raised.
        """
        single = divisor.single_term()
        if single is None:
            raise NonInvertibleConstantTerm(
                f"divisor {divisor} is not a single monomial"
            )
        (de, dc) = single
        terms: dict[Exponents, Rational] = {}
        for e, c in self._terms.items():
            ne = (e[0] - de[0], e[1] - de[1], e[2] - de[2])
            if ne[0] < 0 or ne[1] < 0 or ne[2] < 0:
                raise NonInvertibleConstantTerm(
                    f"term with exponents {e} is not divisible by {divisor}"
                )
            terms[ne] = _as_rational(Fraction(c, dc))
        return _poly_from_clean(terms)

    # -- substitution ------------------------------------------------------

    def substitute(self, **values: Union[Rational, "MultiPoly"]) -> "MultiPoly":
        """Substitute values (rationals or polynomials) for markers.

        Markers not mentioned are left untouched.
        """
        for name in values:
            if name not in MARKERS:
                raise ValueError(f"unknown marker {name!r}")
        subs: dict[int, MultiPoly] = {
            MARKERS.index(name): MultiPoly.coerce(val) for name, val in values.items()
        }
        result = _POLY_ZERO
        for e, c in self._terms.items():
            term = MultiPoly.const(c)
            residual = [0, 0, 0]
            for idx in range(3):
                if idx in subs:
                    if e[idx]:
                        term = term * (subs[idx] ** e[idx])
                else:
                    residual[idx] = e[idx]
            if residual != [0, 0, 0]:
                term = term * MultiPoly({tuple(residual): 1})  # type: ignore[arg-type]
            result = result + term
        return result

    # -- comparison / hashing / rendering ----------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            factors: list[str] = []
            for idx, name in enumerate(MARKERS):
                if e[idx] == 1:
                    factors.append(name)
                elif e[idx] > 1:
                    factors.append(f"{name}^{e[idx]}")
            if not factors:
                body = _coeff_str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_coeff_str(abs(c))] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """Canonical JSON form: a list of terms in canonical order.

        Markers with exponent 0 are omitted from each term's exponent map.
        """
        out = []
        for e, c in self.items():
            exponents = {
                name: e[idx] for idx, name in enumerate(MARKERS) if e[idx]
            }
            out.append({"exponents": exponents, "coeff": _coeff_str(c)})
        return out

    @classmethod
    def from_json_obj(cls, data: Iterable[Mapping]) -> "MultiPoly":
        terms: dict[Exponents, Rational] = {}
        for term in data:
            exponents = term.get("exponents", {})
            e = tuple(int(exponents.get(name, 0)) for name in MARKERS)
            terms[e] = terms.get(e, 0) + Fraction(str(term["coeff"]))  # type: ignore[index]
        return cls(terms)


def _poly_from_clean(terms: dict[Exponents, Rational]) -> MultiPoly:
    """Build a MultiPoly from an already-clean term dict: nonzero,
    canonical coefficients (internal)."""
    poly = object.__new__(MultiPoly)
    object.__setattr__(poly, "_terms", terms)
    return poly


_POLY_ZERO = _poly_from_clean({})
_POLY_ONE = _poly_from_clean({_ZERO_EXP: 1})


# ---------------------------------------------------------------------------
# Truncated series
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """A power series in x known exactly modulo x^order.

    ``coeffs[k]`` is the :class:`MultiPoly` coefficient of x^k for
    0 <= k < order.  Binary operations between series of different orders
    truncate to the smaller order.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[PolyLike]) -> None:
        if not coeffs:
            raise ValueError("a truncated series needs order >= 1")
        object.__setattr__(
            self, "_coeffs", tuple(MultiPoly.coerce(c) for c in coeffs)
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([MultiPoly.zero()] * order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_x_poly({0: 1}, order)

    @classmethod
    def constant(cls, value: PolyLike, order: int) -> "TruncatedSeries":
        return cls.from_x_poly({0: value}, order)

    @classmethod
    def from_x_poly(
        cls, terms: Mapping[int, PolyLike], order: int
    ) -> "TruncatedSeries":
        """Build a series from a map of x-exponent -> coefficient."""
        if order < 1:
            raise ValueError("order must be >= 1")
        coeffs = [MultiPoly.zero()] * order
        for k, value in terms.items():
            if k < 0:
                raise ValueError("negative x exponent")
            if k < order:
                coeffs[k] = coeffs[k] + MultiPoly.coerce(value)
        return cls(coeffs)

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs)

    @property
    def coeffs(self) -> tuple[MultiPoly, ...]:
        return self._coeffs

    def coefficient(self, k: int) -> MultiPoly:
        if not 0 <= k < len(self._coeffs):
            raise IndexError(f"coefficient {k} outside truncation order {self.order}")
        return self._coeffs[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all are zero."""
        for k, c in enumerate(self._coeffs):
            if not c.is_zero():
                return k
        return None

    # -- reshaping ---------------------------------------------------------

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 1:
            raise ValueError("order must be >= 1")
        if order >= len(self._coeffs):
            return self
        return TruncatedSeries(self._coeffs[:order])

    def shift_up(self, k: int) -> "TruncatedSeries":
        """Multiply by x^k, keeping the truncation order."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        if k == 0:
            return self
        coeffs = (MultiPoly.zero(),) * min(k, self.order)
        return TruncatedSeries((coeffs + self._coeffs)[: self.order])

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by x^k; the first k coefficients must vanish.

        The result's order drops by k (that is all the information held).
        """
        if k < 0:
            raise ValueError("shift must be >= 0")
        if k == 0:
            return self
        if k >= self.order:
            raise ValueError("cannot shift an entire series away")
        for j in range(k):
            if not self._coeffs[j].is_zero():
                raise NonInvertibleConstantTerm(
                    f"series has nonzero coefficient at x^{j}; cannot divide by x^{k}"
                )
        return TruncatedSeries(self._coeffs[k:])

    def substitute(self, **values: Union[Rational, MultiPoly]) -> "TruncatedSeries":
        """Substitute marker values in every coefficient."""
        return TruncatedSeries([c.substitute(**values) for c in self._coeffs])

    # -- arithmetic --------------------------------------------------------

    def _common(self, other: Union["TruncatedSeries", PolyLike]) -> tuple[
        tuple[MultiPoly, ...], tuple[MultiPoly, ...]
    ]:
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return self._coeffs[:n], other._coeffs[:n]
        const = MultiPoly.coerce(other)
        coeffs = [MultiPoly.zero()] * self.order
        coeffs[0] = const
        return self._coeffs, tuple(coeffs)

    def __add__(self, other: Union["TruncatedSeries", PolyLike]) -> "TruncatedSeries":
        a, b = self._common(other)
        return TruncatedSeries([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other: Union["TruncatedSeries", PolyLike]) -> "TruncatedSeries":
        a, b = self._common(other)
        return TruncatedSeries([x - y for x, y in zip(a, b)])

    def __rsub__(self, other: Union["TruncatedSeries", PolyLike]) -> "TruncatedSeries":
        return -(self - other)

    def __mul__(self, other: Union["TruncatedSeries", PolyLike]) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            poly = MultiPoly.coerce(other)
            return TruncatedSeries([c * poly for c in self._coeffs])
        n = min(self.order, other.order)
        a = self._coeffs
        b = other._coeffs
        return TruncatedSeries([_product_sum({}, a, b, k, 0) for k in range(n)])

    __rmul__ = __mul__

    def scale(self, value: Rational) -> "TruncatedSeries":
        c = _as_rational(value)
        return TruncatedSeries([p.scale(c) for p in self._coeffs])

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        return _power(self, exponent, TruncatedSeries.one(self.order))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self._coeffs):
            if not c.is_zero():
                parts.append(f"({c})*x^{k}" if k else f"({c})")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(x^{self.order})"

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order})"

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [c.to_json_obj() for c in self._coeffs],
        }


# ---------------------------------------------------------------------------
# Series operations
# ---------------------------------------------------------------------------


def _product_sum(
    terms: dict[Exponents, Rational],
    a: Sequence[MultiPoly],
    b: Sequence[MultiPoly],
    k: int,
    first: int,
) -> MultiPoly:
    """``terms`` plus the sum of a[i] * b[k - i] over first <= i <= k: the
    x^k coefficient of a convolution.  Every product is summed into the one
    dict ``terms`` (which this consumes); zero terms are dropped and each
    coefficient is put in canonical form once, at the end.

    The only code that multiplies term dicts: a polynomial product is the
    case ``k = 0`` with one-element sequences."""
    get = terms.get
    for i in range(first, k + 1):
        p = a[i]._terms
        q = b[k - i]._terms
        if not p or not q:
            continue
        for (x1, y1, z1), c1 in p.items():
            for (x2, y2, z2), c2 in q.items():
                e = (x1 + x2, y1 + y2, z1 + z2)
                terms[e] = get(e, 0) + c1 * c2
    return _poly_from_clean(
        {e: c if type(c) is int else _as_rational(c) for e, c in terms.items() if c}
    )


def _power(base: _Ring, exponent: int, one: _Ring) -> _Ring:
    """``base ** exponent`` by repeated squaring, starting from ``one``."""
    if exponent < 0:
        raise ValueError(f"negative power {exponent}")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def series_div(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Exact quotient num/den, truncated to the smaller order.

    The divisor's constant term must be a nonzero rational, or a single
    monomial that divides exactly at every step of the long division
    (each step's division is verified; an inexact step raises
    :class:`NonInvertibleConstantTerm`).  The monomial case is live:
    ``formulas.gf_1m(1)`` and ``formulas.gf_1m2(1)`` divide by a series
    whose constant term is 2q.
    """
    n = min(num.order, den.order)
    a = num.truncate(n).coeffs
    b = den.truncate(n).coeffs
    c0 = b[0]
    const = c0.as_constant()
    if const is not None:
        if not const:
            raise NonInvertibleConstantTerm("divisor has zero constant term")
        inverse = _as_rational(Fraction(1, const))
    else:
        monomial = c0.single_term()
        if monomial is None:
            raise NonInvertibleConstantTerm(
                f"divisor constant term {c0} is neither a rational nor a monomial"
            )
    negated = [-c for c in b]
    out: list[MultiPoly] = []
    for k in range(n):
        acc = _product_sum(dict(a[k]._terms), negated, out, k, 1)
        if const is not None:
            out.append(acc.scale(inverse))
        else:
            out.append(acc.divide_exact(c0))
    return TruncatedSeries(out)


def series_sqrt(s: TruncatedSeries) -> TruncatedSeries:
    """Square root with constant term 1: the degree-2 case Y^2 - s = 0,
    Y(0) = 1, of :func:`solve_poly_functional`."""
    if s.coefficient(0) != MultiPoly.one():
        raise ConstantTermNotOne(
            f"series square root needs constant term 1, got {s.coefficient(0)}"
        )
    return solve_poly_functional([-s, 0, 1], 1)


def solve_quadratic(
    a: TruncatedSeries, b: TruncatedSeries, c: TruncatedSeries
) -> TruncatedSeries:
    """The power-series solution F of a*F^2 - b*F + c = 0 with F(0) = c(0)/b(0):
    the degree-2 case of :func:`solve_poly_functional`.

    b(0) must be a nonzero rational and F(0) must solve the equation at
    order 0, otherwise :class:`NoSeriesSolution` is raised.  Then
    a(0)*F(0)^2 = 0, so the derivative 2*a(0)*F(0) - b(0) at the seed is
    -b(0), a nonzero rational.
    """
    b0 = b.coefficient(0).as_constant()
    if not b0:
        raise NoSeriesSolution(
            f"leading coefficient b(0) = {b.coefficient(0)} is not a nonzero rational"
        )
    a0, c0 = a.coefficient(0), c.coefficient(0)
    f0 = c0.scale(Fraction(1, b0))
    if not (a0 * f0 * f0 - f0.scale(b0) + c0).is_zero():
        raise NoSeriesSolution(
            "F(0) = c(0)/b(0) does not satisfy the quadratic at order 0"
        )
    return solve_poly_functional([c, -b, a], f0)


def solve_poly_functional(
    coeffs: Sequence[Union[TruncatedSeries, PolyLike]], y0: PolyLike
) -> TruncatedSeries:
    """Solve sum_i coeffs[i] * Y^i = 0 for a series Y with Y(0) = y0.

    The one series solver of this module: :func:`series_sqrt` and
    :func:`solve_quadratic` are its degree-2 cases.  A coefficient may be
    a series or a constant; the order is the smallest series order.

    Newton iteration with order doubling.  Each round expands the defect
    P(y) once, at the doubled order, and first requires it to vanish below
    the order the previous round claimed; the final residual must vanish
    at the full order.  Either failure raises :class:`NoConvergence`.  The
    derivative at the seed must have a nonzero rational constant term,
    otherwise :class:`SingularDerivative` is raised.
    """
    n = min((c.order for c in coeffs if isinstance(c, TruncatedSeries)), default=0)
    if len(coeffs) < 2 or not n:
        raise ValueError("need degree >= 1 in Y and a series coefficient")
    P = [
        c.truncate(n) if isinstance(c, TruncatedSeries) else MultiPoly.coerce(c)
        for c in coeffs
    ]
    dP = [P[i].scale(i) for i in range(1, len(P))]

    y = TruncatedSeries.constant(y0, 1)
    d0 = _horner(dP, y).coefficient(0)
    if not d0.as_constant():
        raise SingularDerivative(f"derivative constant term at the seed is {d0}")
    correct = 1
    while correct < n:
        target = min(2 * correct, n)
        y = TruncatedSeries(y.coeffs + (MultiPoly.zero(),) * (target - correct))
        defect = _horner(P, y)
        gained = defect.valuation()
        if gained is not None and gained < correct:
            raise NoConvergence(
                f"Newton iteration stalled at order {gained} (claimed {correct})"
            )
        y = y - series_div(defect, _horner(dP, y))
        correct = target
    if not _horner(P, y).is_zero():
        raise NoConvergence("computed series does not satisfy the equation")
    return y


def _horner(
    parts: Sequence[Union[TruncatedSeries, MultiPoly]], y: TruncatedSeries
) -> TruncatedSeries:
    """sum_i parts[i] * y^i modulo x^(y.order), by Horner's rule."""
    acc = parts[-1]
    for part in reversed(parts[:-1]):
        acc = y * acc + part
    return TruncatedSeries.zero(y.order) + acc


def catalan_series(order: int) -> TruncatedSeries:
    """The Catalan number series 1 + x + 2x^2 + 5x^3 + ... mod x^order.

    Computed two independent ways — by radical, (1 - sqrt(1-4x))/(2x),
    and by the quadratic convolution recurrence — and asserted equal.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    radicand = TruncatedSeries.from_x_poly({0: 1, 1: -4}, order + 1)
    numerator = TruncatedSeries.one(order + 1) - series_sqrt(radicand)
    by_radical = numerator.shift_down(1).scale(Fraction(1, 2))

    values = [1]
    for n in range(1, order):
        values.append(sum(values[i] * values[n - 1 - i] for i in range(n)))
    by_recurrence = TruncatedSeries([MultiPoly.const(v) for v in values])

    assert by_radical == by_recurrence, "catalan series cross-check failed"
    return by_recurrence
