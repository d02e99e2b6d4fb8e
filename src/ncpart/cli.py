"""Command-line front end.

Subcommands
-----------
enum
    List all non-crossing partitions of a given size.
dist
    Occurrence-distribution polynomial of one pattern at a single size
    (``--n``) or the whole series up to an order (``--order``), computed
    by the transfer-matrix engine (the default), by the exhaustive prefix
    walk (``brute``), by closed form, or by the staircase recurrence.
series
    Closed-form generating series for a covered pattern family; with
    ``--v`` the staircase series additionally weights each partition by
    ``v_value`` raised to its smallest repeated letter.
total
    Total occurrence count over all partitions of one size.
verify
    Cross-check suites: every closed form against the transfer engine's
    distribution rows, equation residuals, recurrence agreement, totals,
    and bijection statistic exchanges.  Exit status 0 iff every cell passes.
bij
    Apply one of the bijections to a single partition.
equivclasses
    Group all patterns of a given length by their distribution vectors
    over a size range.

Pattern syntax: digit string (``1121``) or comma-separated letters
(``1,1,2,1``); alternatively describe a family member by flags, e.g.
``--family rho-tail --rho 12 --b 1``.

Output is UTF-8 text or JSON (``--format json``); all output is
deterministic (canonical term order, lexicographically sorted classes).

Every distribution row is computed in-process by ``stats``, which keeps
the rows it has built for the rest of the process; no row is stored on
disk, so ``--method brute`` repeats its exhaustive walk on every call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

from . import formulas, stats
from .algebra import MultiPoly, TruncatedSeries, catalan_series
from .bijections import map_descent_code, map_equiv, map_f, map_g, map_runrev
from .core import (
    DEFAULT_ENUM_LIMIT,
    PatternFamily,
    RhoTail,
    Run,
    RunAscent,
    RunStaircase,
    Sandwich,
    StaircaseTail,
    NCPartition,
    SubwordPattern,
    _chain_links,
    _check_size,
    _occurs_at,
    as_pattern,
    catalan,
    classify_pattern,
    enumerate_nc,
    format_sequence,
    iter_nc,
    parse_sequence,
)
from .errors import NcpartError, UnsupportedFamily
from .recurrence import recurrence_table, staircase_series_by_recurrence

__all__ = [
    "TABLE1_PATTERNS",
    "build_parser",
    "entry",
    "run_verify_target",
    "table1_mutation_slots",
    "verify_table1",
]

#: Hard ceiling on requested series orders.
MAX_ORDER = 24

#: The orders ``verify`` and its suites accept.  The top, every target's
#: default, is the largest order whose every coefficient the rows serve.
_VERIFY_ORDERS = (2, DEFAULT_ENUM_LIMIT + 1)

#: ``--family`` name -> family class; the class's fields are its flags.
_FAMILIES: dict[str, type] = {
    "run": Run,
    "run-ascent": RunAscent,
    "staircase-tail": StaircaseTail,
    "run-staircase": RunStaircase,
    "sandwich": Sandwich,
    "rho-tail": RhoTail,
}

# ---------------------------------------------------------------------------
# Checked arguments
# ---------------------------------------------------------------------------


def _checked(args: argparse.Namespace) -> argparse.Namespace:
    """Parse ``--v`` and the ``equivclasses`` size range in place, then
    check the bounds argparse cannot: the order, then the size."""
    if getattr(args, "v", None) is not None:
        try:
            args.v = Fraction(args.v)
        except ZeroDivisionError:
            raise ValueError(f"--v {args.v} has a zero denominator") from None
    if getattr(args, "n_range", None) is not None:
        args.n_range = _parse_range(args.n_range)
    order = getattr(args, "order", None)
    if order is not None:
        bounds = _VERIFY_ORDERS if args.subcommand == "verify" else (1, MAX_ORDER)
        _check_order(order, *bounds)
    if getattr(args, "n", None) is not None:
        _check_size(args.n)
    return args


def _check_order(order: int, lo: int, hi: int) -> None:
    if not lo <= order <= hi:
        raise ValueError(f"order must be between {lo} and {hi}")


def _parse_range(text: str) -> tuple[int, int]:
    """Parse a size range: ``'2..9'`` or a single size ``'8'``."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError:
        raise ValueError(f"invalid size range {text!r}") from None
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid size range {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# Pattern resolution
# ---------------------------------------------------------------------------


def _build_family(args: argparse.Namespace) -> PatternFamily:
    cls = _FAMILIES[args.family]
    required = [field.name for field in dataclasses.fields(cls)]
    missing = [flag for flag in required if getattr(args, flag) is None]
    if missing:
        flags = ", ".join(f"--{f}" for f in missing)
        raise ValueError(f"family {args.family!r} needs {flags}")
    values = {flag: getattr(args, flag) for flag in required}
    if "rho" in values:
        values["rho"] = parse_sequence(values["rho"])
    return cls(**values)


def _resolve_pattern(args: argparse.Namespace) -> tuple[SubwordPattern, PatternFamily]:
    if args.pattern is not None and args.family is not None:
        raise ValueError("give either --pattern or --family, not both")
    if args.pattern is not None:
        pat = as_pattern(args.pattern)
        return pat, classify_pattern(pat)
    if args.family is None:
        raise ValueError("a pattern is required: --pattern WORD or --family NAME")
    fam = _build_family(args)
    return fam.pattern(), fam


def _row_series(engine: str, pattern: SubwordPattern, order: int) -> TruncatedSeries:
    return TruncatedSeries(stats.distribution_rows(order - 1, pattern, engine=engine))


#: ``--method`` name -> (applies(family), series(pattern, family, order)).
_METHODS: dict[str, tuple[Callable[..., bool], Callable[..., TruncatedSeries]]] = {
    "brute": (lambda f: True, lambda p, f, k: _row_series("brute", p, k)),
    "transfer": (lambda f: True, lambda p, f, k: _row_series("transfer", p, k)),
    "closed": (
        lambda f: type(f) in formulas.CLOSED_FORMS,
        lambda p, f, k: formulas.closed_series(f, k),
    ),
    "recurrence": (
        lambda f: isinstance(f, StaircaseTail),
        lambda p, f, k: staircase_series_by_recurrence(f.m, f.a, k),
    ),
}


def _require_method(family: PatternFamily, method: str) -> None:
    methods = [name for name, (applies, _) in _METHODS.items() if applies(family)]
    if method not in methods:
        raise UnsupportedFamily(
            f"method {method!r} does not apply to this pattern; "
            f"applicable methods: {', '.join(methods)}"
        )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _dumps(obj: object, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for str-keyed dicts,
    lists, tuples, str, int, bool and None; anything else (a float, a
    ``Fraction``, a non-str key) is a ``TypeError``.  Each container joins
    its items as soon as they are written; ``pad`` is the newline and
    indent of the container's own line.  Dicts, the commonest node of a
    verify report, are tested first."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _dumps(value, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        items = [_dumps(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _output(args: argparse.Namespace, lines: Sequence[str], obj: object) -> None:
    if args.fmt == "json":
        print(_dumps(obj))
    else:
        for line in lines:
            print(line)


def _poly_total(poly: MultiPoly) -> int:
    """d/dq at q=1 of a one-marker distribution polynomial."""
    return sum(coeff * exps[0] for exps, coeff in poly.items())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_enum(args: argparse.Namespace) -> int:
    parts = [format_sequence(pi.letters) for pi in enumerate_nc(args.n)]
    obj = {"n": args.n, "count": len(parts), "partitions": parts}
    _output(args, parts, obj)
    return 0


def _v_series(
    family: PatternFamily, method: str, v: Fraction
) -> Callable[..., TruncatedSeries]:
    """The series builder of ``series --v``: the closed staircase-tail
    series weighting each partition by v^(smallest repeated letter)."""
    if method != "closed" or not isinstance(family, StaircaseTail):
        raise ValueError("--v applies only to the closed staircase-tail series")
    return lambda p, f, k: formulas.gf_staircase_joint_rep(f.m, f.a, k, v_value=v)


def cmd_dist(args: argparse.Namespace) -> int:
    """``dist`` (``--n`` or ``--order``) and ``series`` (``--order``,
    optionally ``--v``): one pattern's distribution or series."""
    pattern, family = _resolve_pattern(args)
    n, v = getattr(args, "n", None), getattr(args, "v", None)
    if v is None:
        _require_method(family, args.method)
        build, v_value = _METHODS[args.method][1], {}
    else:
        build, v_value = _v_series(family, args.method, v), {"v_value": str(v)}
    if (n is None) == (args.order is None):
        raise ValueError("give exactly one of --n and --order")
    if n is not None:
        size, key = {"n": n}, "distribution"
        value = build(pattern, family, n + 1).coefficient(n)
    else:
        size, key = {"order": args.order}, "series"
        value = build(pattern, family, args.order)
    obj = {
        "pattern": format_sequence(pattern.word),
        **size,
        "method": args.method,
        **v_value,
        key: value.to_json_obj(),
    }
    _output(args, [str(value)], obj)
    return 0


def cmd_total(args: argparse.Namespace) -> int:
    pattern, family = _resolve_pattern(args)
    method = args.method
    if method == "auto":
        method = "closed" if _METHODS["closed"][0](family) else "transfer"
    _require_method(family, method)
    if method == "closed":
        total = formulas.total_occurrences(family, args.n)
    else:
        row = _METHODS[method][1](pattern, family, args.n + 1).coefficient(args.n)
        total = _poly_total(row)
    obj = {
        "pattern": format_sequence(pattern.word),
        "n": args.n,
        "method": method,
        "total": total,
    }
    _output(args, [str(total)], obj)
    return 0


#: ``--map`` name -> (map, the flags it takes after ``--pi``, in order).
_MAPS: dict[str, tuple[Callable[..., NCPartition], tuple[str, ...]]] = {
    "f": (map_f, ("tau", "tau2")),
    "g": (map_g, ("sigma", "b")),
    "equiv": (map_equiv, ("tau", "tau2")),
    "runrev": (map_runrev, ("a", "rho", "b")),
    "descent-code": (map_descent_code, ()),
}


def cmd_bij(args: argparse.Namespace) -> int:
    apply, flags = _MAPS[args.map_name]
    params = {flag: getattr(args, flag) for flag in flags}
    if None in params.values():
        *init, last = (f"--{flag}" for flag in flags)
        raise ValueError(f"map {args.map_name!r} needs {', '.join(init)} and {last}")
    text = format_sequence(apply(args.pi, *params.values()).letters)
    obj = {"map": args.map_name, "pi": args.pi, **params, "result": text}
    _output(args, [text], obj)
    return 0


def _all_patterns(length: int) -> list[tuple[int, ...]]:
    """Every valid pattern word of the given length, lexicographically.

    A valid pattern uses each letter 1..max at least once, in any order.
    """
    out: list[tuple[int, ...]] = []
    for word in itertools.product(range(1, length + 1), repeat=length):
        if set(word) == set(range(1, max(word) + 1)):
            out.append(word)
    return sorted(out)


def cmd_equivclasses(args: argparse.Namespace) -> int:
    lo, hi = args.n_range
    if not 1 <= args.length <= 5:
        raise ValueError("pattern length must be between 1 and 5")
    words = _all_patterns(args.length)
    rows = stats.batch_distribution_rows(hi, words)
    groups: dict[tuple, list[str]] = {}
    for word, word_rows in zip(words, rows):
        key = tuple(tuple(word_rows[n].items()) for n in range(lo, hi + 1))
        groups.setdefault(key, []).append(format_sequence(word))
    classes = sorted(sorted(members) for members in groups.values())
    obj = {
        "length": args.length,
        "n_min": lo,
        "n_max": hi,
        "classes": classes,
    }
    _output(args, [" ".join(cls) for cls in classes], obj)
    return 0


# ---------------------------------------------------------------------------
# Verification targets
# ---------------------------------------------------------------------------


def _jsonable(value: object) -> object:
    if isinstance(value, (MultiPoly, TruncatedSeries)):
        return value.to_json_obj()
    return value


def _cell(params: dict, n: int | None, ok: bool, expected: object, actual: object) -> dict:
    return {
        "params": params,
        "n": n,
        "status": "pass" if ok else "fail",
        "expected": _jsonable(expected),
        "actual": _jsonable(actual),
    }


def _zero_cell(params: dict, residual: TruncatedSeries) -> dict:
    """One cell that passes when residual vanishes mod x^order; a failing
    cell shows the residual's lowest nonzero coefficient."""
    val = residual.valuation()
    return _cell(
        params,
        None,
        val is None,
        [],
        [] if val is None else residual.coefficient(val),
    )


def _compare(params: dict, expected: Sequence, actual: Sequence) -> list[dict]:
    """One cell per size n: expected[n] against actual[n]."""
    return [
        _cell(params, n, want == got, want, got)
        for n, (want, got) in enumerate(zip(expected, actual, strict=True))
    ]


# Table 1: each length-3 row's stored quadratic A*F^2 - B*F + C = 0, and the
# series the row's equation and the transfer engine's rows are checked against.

TABLE1_PATTERNS: tuple[str, ...] = ("111", "112", "121", "122", "211", "212", "221")


def _table1_series(pattern: str, order: int) -> TruncatedSeries:
    # 212 never occurs, so its series is the Catalan series.
    if pattern == "212":
        return catalan_series(order)
    return formulas.closed_series(classify_pattern(pattern), order)


#: One stored equation coefficient: (pattern, part, x power, marker exponents).
MutationSlot = tuple[str, str, int, tuple[int, int, int]]


def _table1_equations() -> dict[str, dict[str, dict[int, MultiPoly]]]:
    """A fresh copy of the stored equations: {pattern: {part: {x power:
    coefficient}}} for the parts A, B and C."""
    one = MultiPoly.one()
    q = MultiPoly.marker("q")
    qm1 = q - one
    return {
        "111": {
            "A": {1: one, 2: -q, 3: qm1},
            "B": {0: one, 1: -q, 3: qm1},
            "C": {0: one, 1: -q, 3: qm1},
        },
        "112": {"A": {1: one, 2: qm1}, "B": {0: one, 2: qm1}, "C": {0: one}},
        "121": {"A": {1: one}, "B": {0: one, 2: -qm1}, "C": {0: one, 2: -qm1}},
        "122": {"A": {1: one, 2: qm1}, "B": {0: one, 2: qm1}, "C": {0: one}},
        "211": {
            "A": {1: one, 2: qm1},
            "B": {0: one, 2: qm1.scale(2)},
            "C": {0: one, 2: qm1},
        },
        "212": {"A": {1: one}, "B": {0: one}, "C": {0: one}},
        "221": {
            "A": {1: one, 2: qm1},
            "B": {0: one, 2: qm1.scale(2)},
            "C": {0: one, 2: qm1},
        },
    }


def table1_mutation_slots() -> list[MutationSlot]:
    """Every stored coefficient of the equation table, as an addressable
    slot (pattern, equation part, x power, marker exponents)."""
    return [
        (pattern, part, x_exp, exps)
        for pattern, parts in _table1_equations().items()
        for part, terms in parts.items()
        for x_exp, poly in sorted(terms.items())
        for exps, _coeff in poly.items()
    ]


def _groups_table1(order: int, mutation: MutationSlot | None = None) -> list[dict]:
    """Per row: one cell for the residual of its equation at its series, and
    one cell per size n < order comparing the series with the distribution
    rows.  ``mutation`` first adds 1 to one stored coefficient."""
    equations = _table1_equations()
    if mutation is not None:
        pattern, part, x_exp, exps = mutation
        if pattern not in equations:
            raise ValueError(f"mutation targets unknown row {pattern!r}")
        if part not in equations[pattern]:
            raise ValueError(f"mutation targets unknown equation part {part!r}")
        terms = equations[pattern][part]
        terms[x_exp] = terms.get(x_exp, MultiPoly.zero()) + MultiPoly({exps: 1})
    all_rows = stats.batch_distribution_rows(order - 1, TABLE1_PATTERNS)
    cells = []
    for (pattern, parts), rows in zip(equations.items(), all_rows):
        series = _table1_series(pattern, order)
        eq_a, eq_b, eq_c = (
            TruncatedSeries.from_x_poly(parts[key], order) for key in "ABC"
        )
        cells.append(
            _zero_cell(
                {"pattern": pattern, "check": "equation"},
                eq_a * series * series - eq_b * series + eq_c,
            )
        )
        cells += _compare(
            {"pattern": pattern, "check": "coefficient"}, rows, series.coeffs
        )
    return cells


_Q_MONO = MultiPoly.marker("q")


def _groups_joint(order: int) -> list[dict]:
    cells = []
    joint = functools.cache(lambda a, b: formulas.gf_joint_1a_1b2(a, b, order))
    for a, b in ((1, 1), (2, 1), (2, 2), (3, 2), (2, 3)):
        rows = stats.joint_rows(order - 1, (1,) * a, (1,) * b + (2,))
        engine = TruncatedSeries(rows)
        eq_a, eq_b, eq_c = formulas.joint_quadratic(a, b, order)
        cells.append(
            _zero_cell(
                {"a": a, "b": b, "check": "equation"},
                eq_a * engine * engine - eq_b * engine + eq_c,
            )
        )
        cells += _compare(
            {"a": a, "b": b, "check": "coefficient"}, rows, joint(a, b).coeffs
        )
    for m in (1, 2, 3, 4):
        run_side = joint(m, 1).substitute(q=1, p=_Q_MONO)
        ascent_side = joint(1, m).substitute(p=1)
        cells.append(
            _zero_cell(
                {"m": m, "check": "specialize-to-run"},
                formulas.gf_1m(m, order) - run_side,
            )
        )
        cells.append(
            _zero_cell(
                {"m": m, "check": "specialize-to-run-ascent"},
                formulas.gf_1m2(m, order) - ascent_side,
            )
        )
    return cells


def _groups_rho_tail(order: int) -> list[dict]:
    cases = (("1", 2), ("11", 1), ("12", 1), ("1", 3), ("12", 2))
    patterns = [RhoTail(parse_sequence(rho), b).pattern() for rho, b in cases]
    series = {case: formulas.gf_rho_1b(*case, order) for case in cases}
    all_rows = stats.batch_distribution_rows(order - 1, patterns)
    cells = []
    by_len: dict[int, list[tuple[str, int]]] = {}
    for case, pattern, rows in zip(cases, patterns, all_rows):
        cells += _compare(
            {"pattern": format_sequence(pattern.word), "check": "coefficient"},
            rows,
            series[case].coeffs,
        )
        by_len.setdefault(len(pattern.word), []).append(case)
    for _length, members in sorted(by_len.items()):
        for (rho1, b1), (rho2, b2) in itertools.combinations(members, 2):
            cells.append(
                _zero_cell(
                    {
                        "first": {"rho": rho1, "b": b1},
                        "second": {"rho": rho2, "b": b2},
                        "check": "length-invariance",
                    },
                    series[rho1, b1] - series[rho2, b2],
                )
            )
    return cells


def _groups_sandwich(order: int) -> list[dict]:
    taus = ("121", "1121", "1211", "1221", "1231")
    cells = []
    for tau, rows in zip(taus, stats.batch_distribution_rows(order - 1, taus)):
        series = formulas.closed_series(classify_pattern(tau), order)
        cells += _compare({"pattern": tau, "check": "coefficient"}, rows, series.coeffs)
    for a, rho, b in ((2, "1", 1), (3, "1", 1), (2, "11", 1), (2, "12", 1)):
        cells.append(
            _zero_cell(
                {"a": a, "rho": rho, "b": b, "check": "symmetry"},
                formulas.gf_1a_rho_1b(a, rho, b, order)
                - formulas.gf_1a_rho_1b(b, rho, a, order),
            )
        )
    return cells


def _groups_staircase(order: int) -> list[dict]:
    cases = ((2, 2), (3, 2), (2, 3), (3, 3))
    patterns = [StaircaseTail(m, a).pattern() for m, a in cases]
    cells = []
    for (m, a), rows in zip(cases, stats.batch_distribution_rows(order - 1, patterns)):
        closed = formulas.gf_staircase_tail(m, a, order)
        recurred = staircase_series_by_recurrence(m, a, order)
        per_n = zip(
            _compare({"m": m, "a": a, "check": "closed"}, rows, closed.coeffs),
            _compare({"m": m, "a": a, "check": "recurrence"}, rows, recurred.coeffs),
        )
        cells += [cell for pair in per_n for cell in pair]
    return cells


def _groups_staircase_joint(order: int) -> list[dict]:
    m, a = 2, 2
    rows = stats.rep_joint_rows(order - 1, StaircaseTail(m, a).pattern())
    series = {
        v: formulas.gf_staircase_joint_rep(m, a, order, v_value=v)
        for v in map(Fraction, (0, 2, 3, 1))
    }
    cells = []
    for v, joint in series.items():
        cells += _compare(
            {"m": m, "a": a, "v": str(v), "check": "coefficient"},
            [row.substitute(v=v) for row in rows],
            joint.coeffs,
        )
    cells.append(
        _zero_cell(
            {"m": m, "a": a, "check": "collapse-at-one"},
            series[1] - formulas.gf_staircase_tail(m, a, order),
        )
    )
    return cells


def _groups_refined(order: int) -> list[dict]:
    """Lemma 3.1: each refined recurrence cell, and the count of partitions
    that cannot hold an occurrence (C_(a-1), with none), against the
    distribution rows split by smallest repeated letter."""
    cells = []
    for m, a in ((2, 2), (3, 2), (2, 3)):
        table = recurrence_table(m, a)
        rows = stats.rep_joint_rows(order - 1, StaircaseTail(m, a).pattern())
        for n in range(a, order):
            top = n - a + 1
            by_rep: dict[int, MultiPoly] = {}
            for (eq, _, ev), coeff in rows[n].items():
                term = MultiPoly({(eq, 0, 0): coeff})
                by_rep[ev] = by_rep.get(ev, MultiPoly.zero()) + term
            boundary = sum(
                (poly for r, poly in by_rep.items() if not 1 <= r <= top),
                MultiPoly.zero(),
            )
            checks = [
                (r, by_rep.get(r, MultiPoly.zero()), table.cell(n, r))
                for r in range(1, top + 1)
            ]
            checks.append((None, MultiPoly.const(catalan(a - 1)), boundary))
            failing = [
                {
                    "rep": r,
                    "status": "fail",
                    "expected": want.to_json_obj(),
                    "actual": got.to_json_obj(),
                }
                for r, want, got in checks
                if want != got
            ]
            cells.append(
                _cell(
                    {"m": m, "a": a, "check": "refined-cells"},
                    n,
                    not failing,
                    [],
                    failing,
                )
            )
    return cells


def _totals_instances() -> list[PatternFamily]:
    instances: list[PatternFamily] = []
    for m in range(1, 5):
        instances.append(Run(m))
    for m in range(1, 5):
        instances.append(RunAscent(m))
    for length in range(1, 5):
        for rho in enumerate_nc(length):
            for b in range(1, 6 - length):
                try:
                    instances.append(RhoTail(rho.letters, b))
                except NcpartError:
                    continue
    for length in range(1, 4):
        for rho in enumerate_nc(length):
            for a in range(1, 5 - length):
                for b in range(1, 5 - length - a + 1):
                    instances.append(Sandwich(a, rho.letters, b))
    for m in range(2, 5):
        for a in range(2, 7 - m):
            instances.append(StaircaseTail(m, a))
    return instances


def _groups_totals(order: int) -> list[dict]:
    instances = _totals_instances()
    patterns = [fam.pattern() for fam in instances]
    rows_all = stats.batch_distribution_rows(order - 1, patterns)
    cells = []
    for fam, pattern, rows in zip(instances, patterns, rows_all):
        cells += _compare(
            {"pattern": format_sequence(pattern.word), "check": "total"},
            [formulas.total_occurrences(fam, n) for n in range(order)],
            [_poly_total(row) for row in rows],
        )
    return cells


def _prefix_counts(
    cap: int, words: Sequence[tuple[int, ...]]
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each word's occurrence count in every partition of size 1..cap,
    keyed by the partition's letters.  Every prefix of a canonical
    non-crossing word is one, so a partition's counts are its prefix's
    plus one chain-link test of its last window per word."""
    links = [(len(word), _chain_links(word)) for word in words]
    counts = {(): (0,) * len(words)}
    for n in range(1, cap + 1):
        # (word index, start of the last window, chain links) of each word
        # that fits in size n.
        fits = [
            (i, n - length, chain)
            for i, (length, chain) in enumerate(links)
            if length <= n
        ]
        for pi in iter_nc(n):
            letters = pi.letters
            row = list(counts[letters[:-1]])
            for i, start, chain in fits:
                if _occurs_at(letters, start, chain):
                    row[i] += 1
            counts[letters] = tuple(row)
    return counts


def _groups_equidistribution(order: int) -> list[dict]:
    exchange_cap = min(order - 1, 8)
    pairs = [
        (a, m, RunStaircase(a, m).pattern(), StaircaseTail(m, a).pattern())
        for a, m in ((2, 2), (2, 3), (3, 2))
    ]
    counts = _prefix_counts(
        exchange_cap, [pattern.word for pair in pairs for pattern in pair[2:]]
    )
    # One sweep maps each partition once; its image, a partition of the
    # same size, reads its counts from the same table.  Pair p's two words
    # sit at 2p and 2p + 1.
    mismatches = [0] * len(pairs)
    for n in range(1, exchange_cap + 1):
        for pi in iter_nc(n):
            mine = counts[pi.letters]
            theirs = counts[map_descent_code(pi).letters]
            for p in range(len(pairs)):
                if mine[2 * p] != theirs[2 * p + 1] or mine[2 * p + 1] != theirs[2 * p]:
                    mismatches[p] += 1
    cells = []
    for (a, m, first, second), missed in zip(pairs, mismatches):
        rows = stats.batch_distribution_rows(order - 1, [first, second])
        cells += _compare({"a": a, "m": m, "check": "equidistribution"}, *rows)
        cells.append(
            _cell(
                {"a": a, "m": m, "check": "code-reversal-exchange"},
                None,
                missed == 0,
                0,
                missed,
            )
        )
    return cells


#: Each verify target's suite, in the order of ``--target all``.
_VERIFY: dict[str, Callable[[int], list[dict]]] = {
    "table1": _groups_table1,
    "thm2.1": _groups_joint,
    "thm2.4": _groups_rho_tail,
    "thm2.7": _groups_sandwich,
    "thm3.3": _groups_staircase,
    "thm3.3-joint": _groups_staircase_joint,
    "lemma3.1": _groups_refined,
    "totals": _groups_totals,
    "thm3.5": _groups_equidistribution,
}


def _report(target: str, order: int, suite: Callable[[int], list[dict]]) -> dict:
    _check_order(order, *_VERIFY_ORDERS)
    cells = suite(order)
    status = "pass" if all(c["status"] == "pass" for c in cells) else "fail"
    return {"target": target, "order": order, "status": status, "cells": cells}


def run_verify_target(target: str, order: int) -> dict:
    """Run one verification target; the report lists every checked cell."""
    return _report(target, order, _VERIFY[target])


def verify_table1(
    order: int = _VERIFY_ORDERS[1], mutation: MutationSlot | None = None
) -> dict:
    """The ``table1`` report, with ``mutation`` (one slot of
    :func:`table1_mutation_slots`) first adding 1 to that stored equation
    coefficient; the deliberate-mutation self-test uses this to prove the
    suite would catch a wrong table."""
    report = _report("table1", order, lambda k: _groups_table1(k, mutation))
    if mutation is not None:
        report["mutation"] = list(mutation[:3]) + [list(mutation[3])]
    return report


def _verify_text(report: dict) -> list[str]:
    cells = report["cells"]
    failed = [c for c in cells if c["status"] != "pass"]
    tag = "pass" if not failed else "FAIL"
    lines = [
        f"target {report['target']}: {tag} "
        f"({len(cells)} cells, {len(failed)} failed)"
    ]
    for cell in failed:
        params = json.dumps(cell["params"], sort_keys=True)
        lines.append(f"  fail {params} n={cell['n']}")
    return lines


def cmd_verify(args: argparse.Namespace) -> int:
    target = args.target
    if args.out:
        # fail before the suite runs, not after
        try:
            with open(args.out, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
    order = args.order or _VERIFY_ORDERS[1]
    targets = list(_VERIFY) if target == "all" else [target]
    reports = [run_verify_target(t, order) for t in targets]
    status = "pass" if all(r["status"] == "pass" for r in reports) else "fail"
    if target == "all":
        report = {
            "target": "all",
            "order": order,
            "status": status,
            "reports": reports,
        }
    else:
        report = reports[0]
    lines = [line for r in reports for line in _verify_text(r)]
    lines.append(f"verification {'passed' if status == 'pass' else 'failed'}")
    # One encoding serves both --out and a JSON stdout.
    encoded = _dumps(report) if args.out or args.fmt == "json" else ""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(encoded)
    print(encoded if args.fmt == "json" else "\n".join(lines))
    return 0 if status == "pass" else 1


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser :func:`entry` uses in this process, built on the
    first call.  Parsing leaves no state behind: each call fills a fresh
    namespace."""
    parser = argparse.ArgumentParser(
        prog="ncpart",
        description=(
            "Exact enumeration of non-crossing partitions and the "
            "distribution of subword patterns in their canonical sequences."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )

    pattern_flags = argparse.ArgumentParser(add_help=False)
    pattern_flags.add_argument("--pattern", help="pattern word, e.g. 112 or 1,1,2")
    pattern_flags.add_argument("--family", choices=list(_FAMILIES))
    pattern_flags.add_argument("--a", type=int)
    pattern_flags.add_argument("--b", type=int)
    pattern_flags.add_argument("--m", type=int)
    pattern_flags.add_argument("--rho")

    p_enum = sub.add_parser(
        "enum", parents=[common], help="list non-crossing partitions of size n"
    )
    p_enum.add_argument("--n", type=int, required=True)

    p_dist = sub.add_parser(
        "dist",
        parents=[common, pattern_flags],
        help="occurrence-distribution polynomial or series",
    )
    p_dist.add_argument("--n", type=int)
    p_dist.add_argument("--order", type=int)
    p_dist.add_argument("--method", choices=tuple(_METHODS), default="transfer")

    p_series = sub.add_parser(
        "series",
        parents=[common, pattern_flags],
        help="closed-form generating series of a covered family",
    )
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--method", choices=tuple(_METHODS), default="closed")
    p_series.add_argument(
        "--v",
        help="weight for the smallest repeated letter (staircase-tail only)",
    )

    p_total = sub.add_parser(
        "total",
        parents=[common, pattern_flags],
        help="total occurrences over all partitions of size n",
    )
    p_total.add_argument("--n", type=int, required=True)
    p_total.add_argument("--method", choices=("auto", *_METHODS), default="auto")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a cross-check suite"
    )
    p_verify.add_argument(
        "--target", choices=(*_VERIFY, "all"), required=True
    )
    p_verify.add_argument("--order", type=int)
    p_verify.add_argument("--out", help="write the JSON report to this file")

    p_bij = sub.add_parser(
        "bij", parents=[common], help="apply a bijection to one partition"
    )
    p_bij.add_argument(
        "--map",
        choices=tuple(_MAPS),
        required=True,
        dest="map_name",
    )
    p_bij.add_argument("--pi", required=True)
    p_bij.add_argument("--tau")
    p_bij.add_argument("--tau2")
    p_bij.add_argument("--sigma")
    p_bij.add_argument("--a", type=int)
    p_bij.add_argument("--b", type=int)
    p_bij.add_argument("--rho")

    p_classes = sub.add_parser(
        "equivclasses",
        parents=[common],
        help="group patterns of one length by distribution vectors",
    )
    p_classes.add_argument("--len", type=int, required=True, dest="length")
    p_classes.add_argument(
        "--n", required=True, dest="n_range", help="size range, e.g. 2..9"
    )

    return parser


_HANDLERS: dict[str, Callable[[argparse.Namespace], int]] = {
    "enum": cmd_enum,
    "dist": cmd_dist,
    "series": cmd_dist,
    "total": cmd_total,
    "verify": cmd_verify,
    "bij": cmd_bij,
    "equivclasses": cmd_equivclasses,
}


def entry(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](_checked(args))
    except (NcpartError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(entry())
