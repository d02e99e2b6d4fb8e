"""Output checks, run after the timed region of a pass.

``check`` returns ``{request index: reason}`` for every request whose output
is wrong.  Occurrence counts, canonical form and Catalan numbers are
recomputed here; distributions are checked against a second route of the
program (closed totals against brute rows, closed series against brute
rows, each involution against itself).
"""

from __future__ import annotations

import json
from fractions import Fraction

from plan import VERIFY_CELLS, catalan, is_canonical_nc

DESCENT_CODE_PAIRS = ((2, 2), (3, 2), (2, 3))
INVOLUTIONS = ("map_f", "map_g", "map_runrev", "map_descent_code")


def check(workload: str, plan: list[dict], outputs: list, ncpart, inputs: dict) -> dict[int, str]:
    checker = _CHECKERS[workload](ncpart, inputs)
    failures = {}
    for i, (req, out) in enumerate(zip(plan, outputs)):
        if out is None:
            continue
        try:
            why = checker(req, out, i)
        except Exception as exc:  # a check that cannot run is a failure
            why = f"check raised {type(exc).__name__}: {exc}"
        if why:
            failures[i] = why
    return failures


# ---------------------------------------------------------------------------
# Helpers independent of the program
# ---------------------------------------------------------------------------


def standard(window) -> tuple:
    ranks = {v: r for r, v in enumerate(sorted(set(window)), 1)}
    return tuple(ranks[v] for v in window)


class Occurrences:
    """Memoized occurrence counts of subword patterns in partitions."""

    def __init__(self) -> None:
        self.memo: dict[tuple, dict[tuple, int]] = {}

    def __call__(self, letters: tuple, pattern: tuple) -> int:
        length = len(pattern)
        key = (letters, length)
        table = self.memo.get(key)
        if table is None:
            table = {}
            for s in range(len(letters) - length + 1):
                w = standard(letters[s:s + length])
                table[w] = table.get(w, 0) + 1
            self.memo[key] = table
        return table.get(pattern, 0)


def word(text: str) -> tuple:
    return tuple(int(c) for c in text)


def terms(poly) -> dict:
    return dict(poly.items())


# ---------------------------------------------------------------------------
# brute
# ---------------------------------------------------------------------------


def _brute(ncpart, inputs):
    totals: dict[tuple, object] = {}

    def closed_total(pattern: str, n: int):
        """The closed-form total, or None where no family covers the pattern."""
        key = (pattern, n)
        if key not in totals:
            try:
                totals[key] = ncpart.formulas.total_occurrences(pattern, n)
            except ncpart.errors.UnsupportedFamily:
                totals[key] = None
        return totals[key]

    def row_problem(row, n: int, markers: dict[int, str]) -> str | None:
        """``markers`` maps an exponent slot (0 = q, 1 = p, 2 = v) to the
        pattern it counts, or to '' for a statistic without a closed total."""
        coeffs = terms(row)
        for c in coeffs.values():
            if c.denominator != 1 or c < 0:
                return f"row {n} has coefficient {c}"
        if sum(coeffs.values()) != catalan(n):
            return f"row {n} sums to {sum(coeffs.values())}, not C_{n} = {catalan(n)}"
        for slot, pattern in markers.items():
            if not pattern:
                continue
            expected = closed_total(pattern, n)
            got = sum(c * e[slot] for e, c in coeffs.items())
            if expected is not None and got != expected:
                return f"row {n} of {pattern}: d/dq at 1 is {got}, closed total {expected}"
        return None

    def rows_problem(rows, n_max: int, markers: dict[int, str]) -> str | None:
        if len(rows) != n_max + 1:
            return f"{len(rows)} rows for sizes 0..{n_max}"
        for n, row in enumerate(rows):
            why = row_problem(row, n, markers)
            if why:
                return why
        return None

    def checker(req, out, index):
        kind, args = req["kind"], req["args"]
        if kind == "iter_nc":
            n = args[0]
            seqs = [p.letters for p in out]
            if len(seqs) != catalan(n):
                return f"{len(seqs)} partitions of {n}, not C_{n}"
            if any(len(s) != n or not is_canonical_nc(s) for s in seqs):
                return "a partition is not a canonical non-crossing word"
            if any(a >= b for a, b in zip(seqs, seqs[1:])):
                return "partitions are not in strictly increasing order"
            return None
        if kind == "distribution_rows":
            return rows_problem(out, args[0], {0: args[1]})
        if kind == "batch_distribution_rows":
            if len(out) != len(args[1]):
                return f"{len(out)} row lists for {len(args[1])} patterns"
            for pattern, rows in zip(args[1], out):
                why = rows_problem(rows, args[0], {0: pattern})
                if why:
                    return why
            return None
        if kind == "joint_rows":
            return rows_problem(out, args[0], {1: args[1], 0: args[2]})
        if kind == "rep_joint_rows":
            return rows_problem(out, args[0], {0: args[1], 2: ""})
        if kind == "cli":
            if out["code"] != 0:
                return f"exit code {out['code']}"
            obj = json.loads(out["stdout"])
            n, pattern = req["n"], req["pattern"]
            if req["args"][0][0] == "dist":
                row = ncpart.algebra.MultiPoly.from_json_obj(obj["distribution"])
                return row_problem(row, n, {0: pattern})
            expected = closed_total(pattern, n)
            if expected is None or obj["total"] != expected:
                return f"total {obj['total']}, closed total {expected}"
            return None
        return f"unexpected request kind {kind!r}"

    return checker


# ---------------------------------------------------------------------------
# closed
# ---------------------------------------------------------------------------

BRUTE_N = 8


def lifted(rho: str) -> str:
    return "".join(str(int(c) + 1) for c in rho)


def staircase(m: int, a: int) -> str:
    return "".join(map(str, range(1, m))) + str(m) * a


def _closed(ncpart, inputs):
    stats = ncpart.stats
    series_by_pattern: dict[str, object] = {}

    def brute_q(pattern: str):
        return [terms(r) for r in stats.distribution_rows(BRUTE_N, pattern)]

    def brute_rows(req) -> list[dict] | None:
        kind, a = req["kind"], req["args"]
        if kind == "gf_1m":
            return brute_q("1" * a[0])
        if kind == "gf_1m2":
            return brute_q("1" * a[0] + "2")
        if kind == "gf_rho_1b":
            return brute_q(lifted(a[0]) + "1" * a[1])
        if kind == "gf_1a_rho_1b":
            return brute_q("1" * a[0] + lifted(a[1]) + "1" * a[2])
        if kind in ("gf_staircase_tail", "staircase_series_by_recurrence"):
            return brute_q(staircase(a[0], a[1]))
        if kind == "gf_joint_1a_1b2":
            return [terms(r) for r in stats.joint_rows(BRUTE_N, "1" * a[0], "1" * a[1] + "2")]
        if kind == "gf_staircase_joint_rep":
            v = Fraction(a[3])
            rows = []
            for r in stats.rep_joint_rows(BRUTE_N, staircase(a[0], a[1])):
                evaluated: dict[tuple, Fraction] = {}
                for (c, p, rep), mult in r.items():
                    key = (c, p, 0)
                    evaluated[key] = evaluated.get(key, 0) + mult * v ** rep
                rows.append({k: x for k, x in evaluated.items() if x != 0})
            return rows
        return None

    def closed_series(pattern: str, order: int):
        """The closed series of a covered pattern, for checking totals."""
        found = series_by_pattern.get(pattern)
        if found is not None and found.order >= order:
            return found
        formulas = ncpart.formulas
        fam = ncpart.core.classify_pattern(pattern)
        kind = type(fam).__name__
        if kind == "Run":
            series = formulas.gf_1m(fam.a, order)
        elif kind == "RunAscent":
            series = formulas.gf_1m2(fam.a, order)
        elif kind in ("StaircaseTail", "RunStaircase"):
            series = formulas.gf_staircase_tail(fam.m, fam.a, order)
        elif kind == "RhoTail":
            series = formulas.gf_rho_1b(fam.rho, fam.b, order)
        elif kind == "Sandwich":
            series = formulas.gf_1a_rho_1b(fam.a, fam.rho, fam.b, order)
        else:
            raise ValueError(f"{pattern} has no closed series")
        series_by_pattern[pattern] = series
        return series

    def checker(req, out, index):
        if req["kind"] == "total_occurrences":
            pattern, n = req["args"]
            coeff = closed_series(pattern, 25).coefficient(n)
            expected = sum(c * e[0] for e, c in coeff.items())
            if out != expected:
                return f"total {out}, d/dq of the closed series at 1 is {expected}"
            return None
        coeffs = [terms(c) for c in out.coeffs]
        order = req["args"][-2] if req["kind"] == "gf_staircase_joint_rep" else req["args"][-1]
        if len(coeffs) != order:
            return f"{len(coeffs)} coefficients for order {order}"
        if req["kind"] != "gf_staircase_joint_rep":
            for n, c in enumerate(coeffs):
                if sum(c.values()) != catalan(n):
                    return f"coefficient {n} at q = p = 1 is {sum(c.values())}, not C_{n}"
        for n, row in enumerate(brute_rows(req)):
            if coeffs[n] != row:
                return f"coefficient {n} differs from the brute-force row"
        return None

    return checker


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify(ncpart, inputs):
    def checker(req, out, index):
        if out["code"] != 0:
            return f"exit code {out['code']}"
        report = json.loads(out["stdout"])
        if report["status"] != "pass":
            return f"status {report['status']}"
        cells = sum(len(r["cells"]) for r in report["reports"])
        if cells != VERIFY_CELLS:
            return f"{cells} cells checked, expected {VERIFY_CELLS}"
        return None

    return checker


# ---------------------------------------------------------------------------
# bij
# ---------------------------------------------------------------------------


def exchanged_pairs(name: str, params: list) -> list[tuple[tuple, tuple, bool]]:
    """(p1, p2, both): occurrences of p1 in the input equal those of p2 in
    the image, and, when ``both``, the other way round too."""
    if name == "map_f":
        return [(word(params[0]), word(params[1]), True)]
    if name == "map_equiv":
        return [(word(params[0]), word(params[1]), False)]
    if name == "map_g":
        sigma, b = word(params[0]), params[1]
        return [((2,) + sigma + (1,) * b, (2,) * b + sigma + (1,), True)]
    if name == "map_runrev":
        a, rho, b = params
        core = word(lifted(rho))
        return [((1,) * a + core + (1,) * b, (1,) * b + core + (1,) * a, True)]
    if name == "map_descent_code":
        return [
            ((1,) * a + tuple(range(2, m + 1)), tuple(range(1, m)) + (m,) * a, True)
            for a, m in DESCENT_CODE_PAIRS
        ]
    raise ValueError(f"unknown map {name!r}")


def _bij(ncpart, inputs):
    count = Occurrences()
    canonical: dict[tuple, bool] = {}

    def checker(req, out, index):
        name, params, n = req["args"]
        sources = inputs[index]
        if len(out) != len(sources):
            return f"{len(out)} images for {len(sources)} partitions"
        images = [p.letters for p in out]
        for img in images:
            if img not in canonical:
                canonical[img] = is_canonical_nc(img)
            if len(img) != n or not canonical[img]:
                return f"image {img} is not a canonical non-crossing word of size {n}"
        if len(set(images)) != catalan(n):
            return f"{len(set(images))} distinct images, not C_{n} = {catalan(n)}"
        pairs = exchanged_pairs(name, params)
        for pi, img in zip(sources, images):
            for p1, p2, both in pairs:
                if count(img, p2) != count(pi.letters, p1):
                    return f"{pi.letters} -> {img} does not carry {p1} to {p2}"
                if both and count(img, p1) != count(pi.letters, p2):
                    return f"{pi.letters} -> {img} does not carry {p2} to {p1}"
        if name in INVOLUTIONS:
            fn = getattr(ncpart.bijections, name)
            for pi, img in zip(sources, out):
                if fn(img, *params).letters != pi.letters:
                    return f"{name} is not an involution at {pi.letters}"
        return None

    return checker


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------


def _walk(ncpart, inputs):
    """Bijection sweeps go to the ``_bij`` checks, every other request to
    the ``_brute`` ones."""
    brute, bij = _brute(ncpart, inputs), _bij(ncpart, inputs)

    def checker(req, out, index):
        return (bij if req["kind"] == "map" else brute)(req, out, index)

    return checker


_CHECKERS = {"walk": _walk, "closed": _closed, "verify": _verify}
