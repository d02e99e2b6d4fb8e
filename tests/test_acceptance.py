"""Acceptance gate: twelve exact end-to-end checks, one per criterion.

Every comparison is exact (integers and rationals, zero tolerance).  Each
test prints a single ``criterion NN: PASS/FAIL`` line; timed criteria
include their wall-clock budget in the check itself.
"""

import time
from fractions import Fraction

from ncpart.algebra import MultiPoly
from ncpart.bijections import (
    map_descent_code,
    map_equiv,
    map_f,
    map_g,
    map_runrev,
)
from ncpart.cli import (
    TABLE1_PATTERNS,
    run_verify_target,
    table1_mutation_slots,
    verify_table1,
)
from ncpart.core import NCPartition, iter_nc, parse_sequence
from ncpart.formulas import gf_1m, gf_1m2, gf_joint_1a_1b2
from ncpart.stats import _occurrences, _pattern_constraints

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def _criterion(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_enumeration_matches_catalan_numbers():
    start = time.perf_counter()
    counts = [sum(1 for _ in iter_nc(n)) for n in range(13)]
    elapsed = time.perf_counter() - start
    ok = counts == CATALAN and elapsed < 5.0
    _criterion(
        1,
        ok,
        f"non-crossing counts for sizes 0..12 equal the Catalan numbers "
        f"through {CATALAN[-1]} in {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_02_length_three_closed_forms_match_brute_force():
    start = time.perf_counter()
    report = verify_table1(13)
    elapsed = time.perf_counter() - start
    cells = report["cells"]
    patterns = {c["params"]["pattern"] for c in cells}
    checks = {c["params"]["check"] for c in cells}
    coeff_ns = {c["n"] for c in cells if c["params"]["check"] == "coefficient"}
    ok = (
        report["status"] == "pass"
        and patterns == set(TABLE1_PATTERNS)
        and checks == {"equation", "coefficient"}
        and coeff_ns == set(range(13))
        and elapsed < 120.0
    )
    _criterion(
        2,
        ok,
        f"all 7 length-3 closed forms equal brute force for sizes 0..12 and "
        f"solve their equations identically mod x^13 in {elapsed:.1f}s "
        f"(budget 120s)",
    )


def test_criterion_03_joint_run_and_run_ascent_series():
    report = run_verify_target("thm2.1", 11)
    cells = report["cells"]
    pairs = {
        (c["params"]["a"], c["params"]["b"])
        for c in cells
        if "a" in c["params"] and "b" in c["params"]
    }
    coeff_ns = {
        c["n"] for c in cells if c["params"].get("check") == "coefficient"
    }
    ok = (
        report["status"] == "pass"
        and pairs == {(1, 1), (2, 1), (2, 2), (3, 2), (2, 3)}
        and max(coeff_ns) == 10
    )
    _criterion(
        3,
        ok,
        "two-marker series for run/run-ascent pairs match brute force for "
        "sizes <= 10 and their defining equations have zero residual mod "
        "x^11",
    )


def test_criterion_04_joint_series_specializes_to_both_single_series():
    q = MultiPoly.marker("q")
    bad = []
    for m in range(1, 5):
        run_side = gf_joint_1a_1b2(m, 1, 13).substitute(
            q=Fraction(1), p=q
        )
        ascent_side = gf_joint_1a_1b2(1, m, 13).substitute(p=Fraction(1))
        if (run_side - gf_1m(m, 13)).valuation() is not None:
            bad.append(("run", m))
        if (ascent_side - gf_1m2(m, 13)).valuation() is not None:
            bad.append(("run-ascent", m))
    ok = not bad
    _criterion(
        4,
        ok,
        "collapsing one marker of the joint series recovers the run and "
        f"run-ascent series mod x^13 for lengths up to 4 (mismatches: {bad})",
    )


def test_criterion_05_total_occurrence_binomials():
    report = run_verify_target("totals", 13)
    cells = report["cells"]
    patterns = {c["params"]["pattern"] for c in cells}
    required = {
        "1", "11", "111", "1111",  # runs
        "12", "112", "1112", "11112",  # run-ascents
        "21", "211", "2111", "21111", "231", "23451",  # tail-run families
        "121", "1121", "1211", "12311",  # sandwich families
        "122", "1222", "12222", "1233", "12333", "12344",  # staircase tails
    }
    ok = (
        report["status"] == "pass"
        and required <= patterns
        and max(c["n"] for c in cells) == 12
    )
    _criterion(
        5,
        ok,
        f"closed-form occurrence totals equal summed brute-force counts for "
        f"{len(patterns)} covered family instances, sizes <= 12",
    )


def test_criterion_06_tail_run_series_depend_only_on_length():
    report = run_verify_target("thm2.4", 13)
    cells = report["cells"]
    case_patterns = {
        c["params"]["pattern"]
        for c in cells
        if c["params"]["check"] == "coefficient"
    }
    invariance = [
        c for c in cells if c["params"]["check"] == "length-invariance"
    ]
    coeff_ns = {
        c["n"] for c in cells if c["params"]["check"] == "coefficient"
    }
    ok = (
        report["status"] == "pass"
        and case_patterns == {"211", "221", "231", "2111", "2311"}
        and len(invariance) >= 4
        and max(coeff_ns) == 12
    )
    _criterion(
        6,
        ok,
        "series for patterns of shape (rho+1) then a run of 1s match brute "
        "force for sizes <= 12 and coincide whenever the total length "
        "matches",
    )


def test_criterion_07_sandwich_series_and_symmetry():
    report = run_verify_target("thm2.7", 13)
    cells = report["cells"]
    case_patterns = {
        c["params"]["pattern"]
        for c in cells
        if c["params"]["check"] == "coefficient"
    }
    symmetry = [c for c in cells if c["params"]["check"] == "symmetry"]
    coeff_ns = {
        c["n"] for c in cells if c["params"]["check"] == "coefficient"
    }
    ok = (
        report["status"] == "pass"
        and case_patterns == {"121", "1121", "1211", "1221", "1231"}
        and len(symmetry) >= 4
        and max(coeff_ns) == 12
    )
    _criterion(
        7,
        ok,
        "series for 1-run/lifted-core/1-run patterns match brute force for "
        "sizes <= 12 and are symmetric in the two run lengths",
    )


def test_criterion_08_staircase_tail_triple_agreement():
    report = run_verify_target("thm3.3", 13)
    cells = report["cells"]
    pairs = {(c["params"]["m"], c["params"]["a"]) for c in cells}
    checks = {c["params"]["check"] for c in cells}
    ns = {c["n"] for c in cells}
    ok = (
        report["status"] == "pass"
        and pairs == {(2, 2), (3, 2), (2, 3), (3, 3)}
        and checks == {"closed", "recurrence"}
        and max(ns) == 12
    )
    _criterion(
        8,
        ok,
        "staircase-tail distributions agree along all three routes (brute "
        "force, refined recurrence, kernel-equation solution) for sizes "
        "<= 12",
    )


def test_criterion_09_joint_repeat_marker_series():
    report = run_verify_target("thm3.3-joint", 10)
    cells = report["cells"]
    v_values = {
        c["params"]["v"] for c in cells if c["params"]["check"] == "coefficient"
    }
    collapse = [c for c in cells if c["params"]["check"] == "collapse-at-one"]
    coeff_ns = {
        c["n"] for c in cells if c["params"]["check"] == "coefficient"
    }
    ok = (
        report["status"] == "pass"
        and {"0", "2", "3"} <= set(map(str, v_values))
        and collapse
        and max(coeff_ns) == 9
    )
    _criterion(
        9,
        ok,
        "the occurrence/smallest-repeat joint series matches brute force at "
        "several evaluation points for sizes <= 9 and collapses correctly "
        "at 1",
    )


def test_criterion_10_bijections_exhaustive_to_size_ten():
    start = time.perf_counter()
    f_pairs = (("231", "221"), ("2221", "2341"))
    g_cases = (("", 2), ("3", 2))
    e_pairs = (("211", "221"), ("211", "231"))
    rr_cases = ((1, "1", 2), (2, "1", 1))
    dc_exchange = ((2, 2), (3, 2), (2, 3))
    # Every case's exchanged patterns, resolved once for the whole sweep.
    f_checks = [(t1, t2, *map(_pattern_constraints, (t1, t2))) for t1, t2 in f_pairs]
    g_checks = []
    for sigma, b in g_cases:
        sig = parse_sequence(sigma) if sigma else ()
        p1 = (2,) + sig + (1,) * b
        p2 = (2,) * b + sig + (1,)
        g_checks.append((sigma, b, *map(_pattern_constraints, (p1, p2))))
    e_checks = [(t1, t2, *map(_pattern_constraints, (t1, t2))) for t1, t2 in e_pairs]
    rr_checks = []
    for a, rho, b in rr_cases:
        lifted = tuple(v + 1 for v in parse_sequence(rho))
        p1 = (1,) * a + lifted + (1,) * b
        p2 = (1,) * b + lifted + (1,) * a
        rr_checks.append((a, rho, b, *map(_pattern_constraints, (p1, p2))))
    dc_checks = [
        (p1, *map(_pattern_constraints, (p1, p2)))
        for p1, p2 in (
            ((1,) * a + tuple(range(2, m + 1)), tuple(range(1, m)) + (m,) * a)
            for a, m in dc_exchange
        )
    ]
    problems: list[object] = []

    for n in range(1, 11):
        partitions = list(iter_nc(n))
        count = len(partitions)
        seen: dict[object, set] = {("f",) + p: set() for p in f_pairs}
        seen.update({("g",) + c: set() for c in g_cases})
        seen.update({("equiv",) + p: set() for p in e_pairs})
        seen.update({("runrev",) + c: set() for c in rr_cases})
        seen[("code",)] = set()
        for pi in partitions:
            w = pi.letters
            for t1, t2, r1, r2 in f_checks:
                image = map_f(pi, t1, t2)
                if (
                    _occurrences(image.letters, *r2) != _occurrences(w, *r1)
                    or _occurrences(image.letters, *r1) != _occurrences(w, *r2)
                    or map_f(image, t1, t2) != pi
                ):
                    problems.append(("f", t1, t2, w))
                seen[("f", t1, t2)].add(image)
            for sigma, b, r1, r2 in g_checks:
                image = map_g(pi, sigma, b)
                if (
                    _occurrences(image.letters, *r2) != _occurrences(w, *r1)
                    or _occurrences(image.letters, *r1) != _occurrences(w, *r2)
                    or map_g(image, sigma, b) != pi
                    or image.block_count != pi.block_count
                ):
                    problems.append(("g", sigma, b, w))
                seen[("g", sigma, b)].add(image)
            for t1, t2, r1, r2 in e_checks:
                image = map_equiv(pi, t1, t2)
                if _occurrences(image.letters, *r2) != _occurrences(w, *r1):
                    problems.append(("equiv", t1, t2, w))
                seen[("equiv", t1, t2)].add(image)
            for a, rho, b, r1, r2 in rr_checks:
                image = map_runrev(pi, a, rho, b)
                if (
                    _occurrences(image.letters, *r2) != _occurrences(w, *r1)
                    or _occurrences(image.letters, *r1) != _occurrences(w, *r2)
                    or map_runrev(image, a, rho, b) != pi
                ):
                    problems.append(("runrev", a, rho, b, w))
                seen[("runrev", a, rho, b)].add(image)
            image = map_descent_code(pi)
            if map_descent_code(image) != pi:
                problems.append(("code", w))
            for p1, r1, r2 in dc_checks:
                if _occurrences(image.letters, *r2) != _occurrences(
                    w, *r1
                ) or _occurrences(image.letters, *r1) != _occurrences(w, *r2):
                    problems.append(("code-exchange", p1, w))
            seen[("code",)].add(image)
        for key, images in seen.items():
            if len(images) != count:
                problems.append(("not-bijective", key, n))

    fifteen = NCPartition((1, 2, 3, 1, 1, 4, 5, 1, 6, 7, 8, 6, 6, 1, 9))
    if map_f(fifteen, "231", "221").letters != (
        1, 2, 2, 1, 1, 3, 3, 1, 4, 5, 5, 4, 6, 1, 7,
    ):
        problems.append("f worked example")
    if map_g("122322114115", "", 2) != NCPartition(
        parse_sequence("122332214415")
    ):
        problems.append("g worked example")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 600.0
    _criterion(
        10,
        ok,
        f"all five maps are bijections with exact statistic exchange on "
        f"every partition of size <= 10, and both worked examples "
        f"reproduce bit-exactly, in {elapsed:.1f}s (budget 600s); "
        f"problems: {problems[:3]}",
    )


def test_criterion_11_run_staircase_equidistribution():
    report = run_verify_target("thm3.5", 13)
    cells = report["cells"]
    pairs = {(c["params"]["a"], c["params"]["m"]) for c in cells}
    equi_ns = {
        c["n"] for c in cells if c["params"]["check"] == "equidistribution"
    }
    ok = (
        report["status"] == "pass"
        and pairs == {(2, 2), (2, 3), (3, 2)}
        and max(equi_ns) == 12
    )
    _criterion(
        11,
        ok,
        "the run-then-staircase and staircase-then-run patterns are "
        "equidistributed for sizes <= 12, with the code-reversal map as "
        "witness",
    )


def test_criterion_12_any_coefficient_mutation_is_caught():
    slots = table1_mutation_slots()
    order = 8
    max_x = max(slot[2] for slot in slots)
    clean = verify_table1(order)
    undetected = [
        slot
        for slot in slots
        if verify_table1(order, mutation=slot)["status"] != "fail"
    ]
    ok = (
        bool(slots)
        and max_x < order
        and clean["status"] == "pass"
        and not undetected
    )
    _criterion(
        12,
        ok,
        f"adding 1 to any of the {len(slots)} stored equation coefficients "
        f"makes verification fail (undetected: {undetected})",
    )
