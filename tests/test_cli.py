"""End-to-end tests of the command line interface (in-process)."""

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpart import cli, core, formulas, stats
from ncpart.algebra import MultiPoly
from ncpart.cli import build_parser, entry, run_verify_target
from ncpart.core import (
    DEFAULT_ENUM_LIMIT,
    RunStaircase,
    StaircaseTail,
    _chain_links,
    as_ncpartition,
    iter_nc,
)
from ncpart.stats import _occurrences, count_subword


def run_cli(capsys, *args):
    code = entry(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enum
# ---------------------------------------------------------------------------


def test_enum_text(capsys):
    code, out, err = run_cli(capsys, "enum", "--n", "3")
    assert code == 0 and err == ""
    assert out.splitlines() == ["111", "112", "121", "122", "123"]


def test_enum_json_n0(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 0, "count": 1, "partitions": [""]}


def test_enum_over_limit_is_a_clean_error(capsys):
    code, out, err = run_cli(capsys, "enum", "--n", "99")
    assert code == 2 and out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# dist / series
# ---------------------------------------------------------------------------


def test_dist_single_n(capsys):
    code, out, _ = run_cli(capsys, "dist", "--pattern", "112", "--n", "3")
    assert code == 0
    assert out.strip() == "4 + q"


def test_dist_constant_pattern(capsys):
    code, out, _ = run_cli(capsys, "dist", "--pattern", "212", "--n", "8")
    assert code == 0
    assert out.strip() == "1430"


def test_dist_series_text(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--pattern", "112", "--order", "5"
    )
    assert code == 0
    assert out.strip() == (
        "(1) + (1)*x^1 + (2)*x^2 + (4 + q)*x^3 + (9 + 5*q)*x^4 + O(x^5)"
    )


def test_dist_methods_agree_in_json(capsys):
    args = ["dist", "--pattern", "122", "--order", "9", "--format", "json"]
    _, brute, _ = run_cli(capsys, *args, "--method", "brute")
    _, closed, _ = run_cli(capsys, *args, "--method", "closed")
    _, recur, _ = run_cli(capsys, *args, "--method", "recurrence")
    assert (
        json.loads(brute)["series"]
        == json.loads(closed)["series"]
        == json.loads(recur)["series"]
    )


def test_dist_requires_exactly_one_of_n_and_order(capsys):
    code, _, err = run_cli(
        capsys, "dist", "--pattern", "112", "--n", "3", "--order", "5"
    )
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "dist", "--pattern", "112")
    assert code == 2 and "exactly one" in err


def test_dist_rejects_inapplicable_method(capsys):
    code, _, err = run_cli(
        capsys, "dist", "--pattern", "212", "--n", "5", "--method", "closed"
    )
    assert code == 2
    assert "applicable methods" in err


def test_dist_rejects_recurrence_outside_staircase_tail(capsys):
    code, _, err = run_cli(
        capsys, "dist", "--pattern", "11", "--n", "5", "--method", "recurrence"
    )
    assert code == 2
    assert "applicable methods" in err


def test_dist_out_of_memory_is_a_clean_error(capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    # The engine table holds the per-word walks itself, so patch the entry.
    monkeypatch.setitem(stats._ENGINES, "brute", out_of_memory)
    code, out, err = run_cli(
        capsys, "dist", "--pattern", "123214566578", "--n", "14", "--method", "brute"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "memory" in err
    assert "Traceback" not in err


def test_series_family_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        *("series --family staircase-tail --m 2 --a 2 --order 5".split()),
    )
    assert code == 0
    assert out.strip() == (
        "(1) + (1)*x^1 + (2)*x^2 + (4 + q)*x^3 + (9 + 5*q)*x^4 + O(x^5)"
    )


def test_series_with_repetition_marker_collapses_at_one(capsys):
    base = "series --family staircase-tail --m 2 --a 2 --order 7".split()
    _, plain, _ = run_cli(capsys, *base, "--format", "json")
    code, at_one, _ = run_cli(capsys, *base, "--v", "1", "--format", "json")
    assert code == 0
    assert json.loads(at_one)["series"] == json.loads(plain)["series"]


def test_series_v_marker_requires_staircase_tail(capsys):
    code, _, err = run_cli(
        capsys, "series", "--pattern", "11", "--order", "5", "--v", "2"
    )
    assert code == 2 and "error:" in err


def test_series_v_zero_denominator_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys,
        "series", "--family", "staircase-tail", "--m", "2", "--a", "2",
        "--order", "5", "--v", "1/0",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_pattern_and_family_are_exclusive(capsys):
    code, _, err = run_cli(
        capsys,
        "dist", "--pattern", "11", "--family", "run", "--a", "2", "--n", "4",
    )
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# total
# ---------------------------------------------------------------------------


def test_total_auto_uses_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "total", "--pattern", "11", "--n", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "pattern": "11",
        "n": 4,
        "method": "closed",
        "total": 15,
    }


def test_total_auto_falls_back_to_transfer(capsys):
    code, out, _ = run_cli(
        capsys, "total", "--pattern", "212", "--n", "6", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "pattern": "212",
        "n": 6,
        "method": "transfer",
        "total": 0,
    }


def test_total_methods_agree(capsys):
    for pattern in ("11", "112", "122", "1231"):
        _, closed, _ = run_cli(
            capsys, "total", "--pattern", pattern, "--n", "7",
            "--method", "closed",
        )
        _, brute, _ = run_cli(
            capsys, "total", "--pattern", pattern, "--n", "7",
            "--method", "brute",
        )
        assert closed.strip() == brute.strip(), pattern


@pytest.mark.parametrize("pattern", ["122", "1233"])
def test_total_every_applicable_method_agrees(capsys, pattern):
    """Staircase tails take every method, recurrence included."""
    for n in range(13):
        totals = set()
        for method in ("auto", *cli._METHODS):
            code, out, err = run_cli(
                capsys, "total", "--pattern", pattern, "--n", str(n),
                "--method", method,
            )
            assert code == 0 and err == "", (pattern, n, method)
            totals.add(out)
        assert len(totals) == 1, (pattern, n, totals)


def test_total_rejects_an_inapplicable_method(capsys):
    code, out, err = run_cli(
        capsys, "total", "--pattern", "123", "--n", "5", "--method", "recurrence"
    )
    assert code == 2 and out == ""
    assert "applicable methods: brute, transfer" in err


# ---------------------------------------------------------------------------
# bij
# ---------------------------------------------------------------------------


def test_bij_f_worked_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "bij", "--map", "f",
        "--pi", "1,2,3,1,1,4,5,1,6,7,8,6,6,1,9",
        "--tau", "231", "--tau2", "221",
    )
    assert code == 0
    assert out.strip() == "122113314554617"


def test_bij_g_worked_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "bij", "--map", "g", "--pi", "122322114115", "--sigma", "", "--b", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "map": "g",
        "pi": "122322114115",
        "sigma": "",
        "b": 2,
        "result": "122332214415",
    }


def test_bij_equiv(capsys):
    code, out, _ = run_cli(
        capsys,
        "bij", "--map", "equiv", "--pi", "121133",
        "--tau", "211", "--tau2", "221",
    )
    assert code == 0
    assert out.strip() == "122133"


def test_bij_runrev(capsys):
    code, out, _ = run_cli(
        capsys,
        "bij", "--map", "runrev", "--pi", "1121",
        "--a", "1", "--rho", "1", "--b", "2",
    )
    assert code == 0
    assert out.strip() == "1211"


def test_bij_descent_code(capsys):
    code, out, _ = run_cli(
        capsys, "bij", "--map", "descent-code", "--pi", "1213311"
    )
    assert code == 0
    assert out.strip() == "1211311"


def test_bij_missing_arguments(capsys):
    code, _, err = run_cli(capsys, "bij", "--map", "f", "--pi", "121")
    assert code == 2 and "needs --tau" in err
    code, _, err = run_cli(capsys, "bij", "--map", "g", "--pi", "121")
    assert code == 2 and "needs --sigma" in err
    code, _, err = run_cli(capsys, "bij", "--map", "runrev", "--pi", "121")
    assert code == 2 and "needs --a" in err


def test_bij_invalid_input_is_a_clean_error(capsys):
    code, _, err = run_cli(
        capsys, "bij", "--map", "descent-code", "--pi", "1312"
    )
    assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------------------
# equivclasses
# ---------------------------------------------------------------------------


def test_equivclasses_length_three(capsys):
    code, out, _ = run_cli(capsys, "equivclasses", "--len", "3", "--n", "2..9")
    assert code == 0
    assert out.splitlines() == [
        "111",
        "112 122",
        "121",
        "123",
        "132 212 312",
        "211 221 231",
        "213",
        "321",
    ]


def test_equivclasses_json_contains_known_class(capsys):
    code, out, _ = run_cli(
        capsys, "equivclasses", "--len", "4", "--n", "2..8",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["length"] == 4 and obj["n_min"] == 2 and obj["n_max"] == 8
    assert ["1121", "1211", "1221", "1231"] in obj["classes"]


def test_equivclasses_bounds(capsys):
    code, _, err = run_cli(capsys, "equivclasses", "--len", "6", "--n", "2..8")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "equivclasses", "--len", "3", "--n", "2..17")
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    for text in ("2..", "a..3"):
        code, out, err = run_cli(capsys, "equivclasses", "--len", "3", "--n", text)
        assert code == 2 and out == ""
        assert err.strip() == f"error: invalid size range {text!r}"


def test_equivclasses_reaches_past_size_ten(capsys):
    code, out, _ = run_cli(capsys, "equivclasses", "--len", "5", "--n", "2..12")
    assert code == 0
    assert len(out.splitlines()) == 36


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

# Full unicode, lone surrogates included, so quotes, backslashes, control
# characters and non-BMP code points all reach the encoder.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | _TEXT
)


def _json_trees(depth):
    if depth == 0:
        return _SCALARS
    inner = _json_trees(depth - 1)
    return (
        _SCALARS
        | st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=4)
    )


@given(_json_trees(4))
@example({"": [], "\"\\\x00\x1f\x7f\u2028\U0001f600": {"k": ((), {}, [None])}})
@example([True, False, -(2**70), 2**64 + 1, "\ud800"])
@settings(max_examples=300, deadline=None)
def test_dumps_is_the_json_module_indent_2_text(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        1.5,
        Fraction(1, 2),
        MultiPoly.one(),
        {1: "int key"},
        {"nested": [0, {"x": float("nan")}]},
    ],
)
def test_dumps_rejects_every_other_type(obj):
    with pytest.raises(TypeError):
        cli._dumps(obj)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_target_passes_and_writes_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--target", "table1", "--order", "6",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("target table1: pass (")
    assert lines[-1] == "verification passed"
    report = json.loads(out_file.read_text())
    assert report["target"] == "table1"
    assert report["order"] == 6
    assert report["status"] == "pass"
    assert report["cells"] and all(
        c["status"] == "pass" for c in report["cells"]
    )


def test_verify_unwritable_out_fails_before_the_suite(capsys, tmp_path, monkeypatch):
    import ncpart.cli

    def suite_must_not_run(target, order):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr(ncpart.cli, "run_verify_target", suite_must_not_run)
    code, out, err = run_cli(
        capsys,
        "verify", "--target", "table1", "--order", "6",
        "--out", str(tmp_path / "missing" / "report.json"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "report.json" in err


def test_verify_out_and_json_stdout_share_one_encoding(capsys, tmp_path, monkeypatch):
    # One encoding serves both places: the file holds the indent=2 text with
    # no trailing newline, stdout the same text plus one.
    top_level = []
    inner = cli._dumps

    def counted(obj, pad="\n"):
        if pad == "\n":
            top_level.append(obj)
        return inner(obj, pad)

    monkeypatch.setattr(cli, "_dumps", counted)
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--target", "thm2.4", "--order", "8", "--format", "json",
        "--out", str(out_file),
    )
    assert code == 0
    data = out_file.read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "1163ecdc277e08f2bf81c173312ffcfd721ad21fa98c48d479879d4babcc22ca"
    )
    assert out == data.decode("utf-8") + "\n"
    assert len(top_level) == 1


def test_thm35_catches_a_map_that_breaks_the_exchange(capsys, monkeypatch):
    # With the identity in place of the involution, each (a, m) pair must
    # count its own broken partitions, however the sweep is shared.
    monkeypatch.setattr(cli, "map_descent_code", as_ncpartition)
    report = run_verify_target("thm3.5", 9)
    assert report["status"] == "fail"
    exchange = [
        c for c in report["cells"] if c["params"]["check"] == "code-reversal-exchange"
    ]
    assert [(c["params"]["a"], c["params"]["m"]) for c in exchange] == [
        (2, 2), (2, 3), (3, 2)
    ]
    for cell in exchange:
        a, m = cell["params"]["a"], cell["params"]["m"]
        first = RunStaircase(a, m).pattern()
        second = StaircaseTail(m, a).pattern()
        broken = sum(
            count_subword(pi, first) != count_subword(pi, second)
            for n in range(1, 9)
            for pi in iter_nc(n)
        )
        assert cell["status"] == "fail"
        assert cell["actual"] == broken > 0
    assert all(
        c["status"] == "pass"
        for c in report["cells"]
        if c["params"]["check"] == "equidistribution"
    )
    assert entry(["verify", "--target", "thm3.5", "--order", "9"]) == 1
    assert "target thm3.5: FAIL" in capsys.readouterr().out


def test_thm35_compares_both_counts_of_each_pair(monkeypatch):
    # A map onto the one-block partition is no involution, and no pattern
    # occurs in its image, so a pair breaks wherever either count is
    # nonzero; a sweep that compared one direction only would count fewer.
    monkeypatch.setattr(
        cli, "map_descent_code", lambda pi: as_ncpartition("1" * len(pi))
    )
    report = run_verify_target("thm3.5", 9)
    exchange = [
        c for c in report["cells"] if c["params"]["check"] == "code-reversal-exchange"
    ]
    assert len(exchange) == 3
    for cell in exchange:
        a, m = cell["params"]["a"], cell["params"]["m"]
        first = RunStaircase(a, m).pattern()
        second = StaircaseTail(m, a).pattern()
        partitions = [pi for n in range(1, 9) for pi in iter_nc(n)]
        broken = sum(
            bool(count_subword(pi, first) or count_subword(pi, second))
            for pi in partitions
        )
        one_way = sum(count_subword(pi, first) != 0 for pi in partitions)
        assert cell["actual"] == broken > one_way


_THM35_WORDS = [
    pattern.word
    for a, m in ((2, 2), (2, 3), (3, 2))
    for pattern in (RunStaircase(a, m).pattern(), StaircaseTail(m, a).pattern())
]


def test_prefix_counts_equal_full_scans():
    counts = cli._prefix_counts(8, _THM35_WORDS)
    links = [(len(word), _chain_links(word)) for word in _THM35_WORDS]
    checked = 0
    for n in range(1, 9):
        for pi in iter_nc(n):
            assert counts[pi.letters] == tuple(
                _occurrences(pi.letters, *link) for link in links
            )
            checked += 1
    assert checked == 2055


def test_thm35_maps_each_partition_once_without_full_scans(monkeypatch):
    calls = collections.Counter()

    def counting(name, inner):
        def counted(*args):
            calls[name] += 1
            return inner(*args)

        return counted

    monkeypatch.setattr(
        cli, "map_descent_code", counting("map", cli.map_descent_code)
    )
    monkeypatch.setattr(stats, "_occurrences", counting("scan", stats._occurrences))
    assert not hasattr(cli, "_occurrences")
    assert run_verify_target("thm3.5", 10)["status"] == "pass"
    assert calls == {"map": 2055}


def test_verify_checks_every_coefficient_below_the_order():
    report = run_verify_target("thm2.4", 16)
    assert report["status"] == "pass"
    coeff_ns = {
        c["n"] for c in report["cells"] if c["params"]["check"] == "coefficient"
    }
    assert coeff_ns == set(range(16))


@pytest.mark.parametrize("target", ["thm2.4", "all"])
def test_verify_defaults_to_every_size_the_rows_serve(capsys, monkeypatch, target):
    # "all" runs the one cheap target here; its report names the order run.
    monkeypatch.setattr(cli, "_VERIFY", {"thm2.4": cli._VERIFY["thm2.4"]})
    code, out, _ = run_cli(capsys, "verify", "--target", target, "--format", "json")
    assert code == 0
    report = json.loads(out)
    reports = report["reports"] if target == "all" else [report]
    assert [r["target"] for r in reports] == ["thm2.4"]
    assert {report["order"]} | {r["order"] for r in reports} == {DEFAULT_ENUM_LIMIT + 1}
    coeff_ns = {
        c["n"] for c in reports[0]["cells"] if c["params"]["check"] == "coefficient"
    }
    assert coeff_ns == set(range(DEFAULT_ENUM_LIMIT + 1))


def test_verify_does_each_piece_of_work_once(capsys, monkeypatch):
    # Calls counted per target over one "verify --target all": each suite
    # builds each series once and fetches its rows in one batch.
    calls = collections.Counter()
    running = [None]
    for module, name in (
        (formulas, "gf_rho_1b"),
        (formulas, "gf_staircase_joint_rep"),
        (stats, "rep_joint_rows"),
        (stats, "distribution_rows"),
        (stats, "batch_distribution_rows"),
    ):
        def counted(*args, _name=name, _inner=getattr(module, name), **kwargs):
            calls[running[0], _name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for target, suite in list(cli._VERIFY.items()):
        def tagged(order, _target=target, _suite=suite):
            running[0] = _target
            return _suite(order)

        monkeypatch.setitem(cli._VERIFY, target, tagged)
    assert run_cli(capsys, "verify", "--target", "all")[0] == 0
    assert calls["thm2.4", "gf_rho_1b"] == 5
    assert calls["thm3.3-joint", "gf_staircase_joint_rep"] == 4
    assert calls["thm3.3-joint", "rep_joint_rows"] == 1
    assert sum(n for (_, name), n in calls.items() if name == "distribution_rows") == 0
    batches = {t: n for (t, name), n in calls.items() if name == "batch_distribution_rows"}
    assert batches == dict.fromkeys(
        ("table1", "thm2.4", "thm2.7", "thm3.3", "totals", "thm3.5"), 1
    )


def test_lifting_the_size_cap_alone_lifts_the_verify_orders(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "verify", "--target", "thm2.4", "--order", "18")
    assert code == 2 and err == "error: order must be between 2 and 17\n"
    monkeypatch.setattr(core, "DEFAULT_ENUM_LIMIT", 17)
    assert run_cli(capsys, "verify", "--target", "thm2.4", "--order", "18")[0] == 0
    assert cli.verify_table1()["order"] == 18
    code, _, err = run_cli(capsys, "verify", "--target", "thm2.4", "--order", "19")
    assert code == 2 and err == "error: order must be between 2 and 18\n"


@pytest.mark.parametrize("a, b", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3)])
def test_thm21_equation_is_checked_at_the_engine_rows(monkeypatch, a, b):
    # One count moved between two cells of the size-n joint row keeps its
    # sum C_n.  The quadratic at the rows then leaves -(moved) at x^n, as
    # A(0) = 0 and B(0) = 1; every other (a, b) and check still passes.
    n, joint_rows = 6, stats.joint_rows

    def moved_rows(n_max, tau1, tau2):
        rows = joint_rows(n_max, tau1, tau2)
        if (tau1, tau2) == ((1,) * a, (1,) * b + (2,)):
            (source, _), (target, _) = list(rows[n].items())[:2]
            rows[n] += MultiPoly({target: 1}) - MultiPoly({source: 1})
        return rows

    monkeypatch.setattr(stats, "joint_rows", moved_rows)
    report = run_verify_target("thm2.1", 10)
    failed = [c for c in report["cells"] if c["status"] == "fail"]
    assert [(c["params"], c["n"]) for c in failed] == [
        ({"a": a, "b": b, "check": "equation"}, None),
        ({"a": a, "b": b, "check": "coefficient"}, n),
    ]
    source, target = (term["exponents"] for term in failed[1]["actual"][:2])
    assert failed[0]["actual"] == [
        {"exponents": source, "coeff": "1"}, {"exponents": target, "coeff": "-1"}
    ]


@pytest.mark.parametrize("order", ["1", "18", "25"])
def test_verify_order_out_of_bounds(capsys, tmp_path, monkeypatch, order):
    def suite(order):
        raise AssertionError("an out-of-range order ran a suite")

    monkeypatch.setitem(cli._VERIFY, "table1", suite)
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--target", "table1", "--order", order, "--out", str(out_file)
    )
    assert (code, out, err) == (2, "", "error: order must be between 2 and 17\n")
    assert not out_file.exists()


# ---------------------------------------------------------------------------
# no disk state
# ---------------------------------------------------------------------------


def test_no_route_writes_a_file(capsys, tmp_path, monkeypatch):
    # NCPART_CACHE once named a row cache; no route reads or writes it now.
    monkeypatch.setenv("NCPART_CACHE", str(tmp_path))
    for argv in (
        ("dist", "--pattern", "112", "--order", "7", "--method", "brute"),
        ("series", "--pattern", "112", "--order", "7", "--method", "brute"),
        ("total", "--pattern", "112", "--n", "7", "--method", "brute"),
        ("dist", "--pattern", "112", "--order", "7"),
        ("total", "--pattern", "213", "--n", "7", "--format", "json"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
    assert json.loads(out)["method"] == "transfer"  # total's fallback
    assert not list(tmp_path.rglob("*"))


def test_cache_is_a_pure_optimization(capsys, monkeypatch):
    # Repeats within one process are answered by stats._CACHE: a cold row,
    # a hit and a row cut from a longer cached walk must print the same.
    monkeypatch.setattr(stats, "_CACHE", {})
    args = ["dist", "--pattern", "112", "--order", "7", "--format", "json",
            "--method", "brute"]
    _, cold, _ = run_cli(capsys, *args)
    assert list(stats._CACHE) == [("brute", "separate", ((1, 1, 2),))]
    _, warm, _ = run_cli(capsys, *args)
    run_cli(capsys, *args[:3], "--order", "9", *args[5:])
    assert stats._CACHE[("brute", "separate", ((1, 1, 2),))][0] == 8
    _, cut, _ = run_cli(capsys, *args)
    assert cold == warm == cut


def test_no_cache_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["dist", "--pattern", "112", "--n", "3", "--no-cache"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-cache" in err
    assert "Traceback" not in err


def test_dist_defaults_to_transfer(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--pattern", "1221", "--n", "6", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["method"] == "transfer"


def test_brute_and_transfer_series_agree_on_every_length_4_pattern(capsys):
    words = [
        "".join(map(str, w))
        for w in itertools.product(range(1, 5), repeat=4)
        if set(w) == set(range(1, max(w) + 1))
    ]
    assert len(words) == 75
    for word in words:
        series = {}
        for method in ("brute", "transfer"):
            code, out, _ = run_cli(
                capsys, "dist", "--pattern", word, "--order", "10",
                "--method", method, "--format", "json",
            )
            assert code == 0
            obj = json.loads(out)
            assert obj["method"] == method
            series[method] = obj["series"]
        assert series["brute"] == series["transfer"], word


# ---------------------------------------------------------------------------
# configuration invariants
# ---------------------------------------------------------------------------


def test_order_cap(capsys):
    code, _, err = run_cli(
        capsys, "dist", "--pattern", "112", "--order", "25"
    )
    assert code == 2 and "error:" in err


def test_enumeration_cap(capsys):
    code, _, err = run_cli(capsys, "dist", "--pattern", "112", "--n", "17")
    assert code == 2 and "error:" in err


def test_one_parser_serves_every_call(capsys):
    # entry parses with build_parser's one parser per process; no call may
    # see what an earlier call left in it.
    calls = [
        ["dist", "--pattern", "112", "--n", "6", "--format", "json"],
        ["total", "--pattern", "122", "--n", "8"],
        ["dist", "--pattern", "112", "--n", "3", "--no-cache"],
        ["verify", "--target", "table1", "--order", "6"],
    ]

    def run(argv):
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(argv))
    assert [code for code, _ in alone] == [0, 0, 2, 0]
    assert build_parser() is build_parser()
    for i in (0, 2, 1, 3, 2, 0, 3, 1, 2):
        assert run(calls[i]) == alone[i]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ncpart", "enum", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["111", "112", "121", "122", "123"]


# ---------------------------------------------------------------------------
# exit-code contract over arbitrary argv
# ---------------------------------------------------------------------------


def _subcommand_flags() -> dict[str, dict[str, argparse.Action]]:
    """Every subcommand of the real parser: its long flags and their actions."""
    sub = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {opt: action for action in p._actions
               for opt in action.option_strings if opt.startswith("--")}
        for name, p in sub.choices.items()
    }


_FLAGS = _subcommand_flags()
_ALL_FLAGS = sorted({flag for flags in _FLAGS.values() for flag in flags})

_junk = st.sampled_from(["", "x", "-", "1,,2", "1/0", "..", "9" * 30])
_word = st.lists(st.integers(0, 4), max_size=6).flatmap(
    lambda letters: st.sampled_from(
        ["".join(map(str, letters)), ",".join(map(str, letters))]
    )
)
_fixed = {"--v": ["0", "1", "2", "-1", "1/2", "3/4"]}
#: The only --out value: a path that cannot be created, so no call writes
#: a file.
_OUT = os.path.join(os.sep, "nonexistent-ncpart-dir", "report.json")


def _value(name: str, flag: str) -> st.SearchStrategy[str]:
    """Mostly a well-formed value for flag, one time in ten junk.  Sizes
    stay at most 7 and orders at most 8, so that every call is fast."""
    if flag == "--out":
        return st.just(_OUT)
    choices = getattr(_FLAGS.get(name, {}).get(flag), "choices", None)
    if choices:
        known = st.sampled_from(list(choices))
    elif flag in _fixed:
        known = st.sampled_from(_fixed[flag])
    elif (name, flag) == ("equivclasses", "--n"):
        known = st.tuples(st.integers(-1, 7), st.integers(-1, 7)).map(
            lambda r: f"{r[0]}..{r[1]}"
        )
    elif flag == "--n":
        known = st.integers(-1, 7).map(str)
    elif flag == "--order":
        known = st.integers(-1, 8).map(str)
    elif flag in ("--a", "--b", "--m", "--len"):
        known = st.integers(-1, 6).map(str)
    else:
        known = _word
    return st.integers(0, 9).flatmap(lambda k: _junk if k == 9 else known)


@st.composite
def _argv(draw) -> list[str]:
    """A subcommand (rarely an unknown one), each required flag with
    probability 9/10 and each other flag with probability 1/2, and rarely
    a foreign flag or --help.  verify always gets --order, so that no
    call runs every size up to 16, as its default order 17 does."""
    name = draw(st.sampled_from(sorted(_FLAGS) + ["nope"]))
    argv = [name]
    own = {
        flag: action.required
        for flag, action in _FLAGS.get(name, {}).items()
        if flag != "--help"
    }
    for flag in draw(st.permutations(sorted(own))):
        forced = (name, flag) == ("verify", "--order")
        if forced or draw(st.integers(0, 9)) < (9 if own[flag] else 5):
            argv += [flag, draw(_value(name, flag))]
    if draw(st.integers(0, 9)) == 9:
        flag = draw(st.sampled_from(_ALL_FLAGS))
        argv += [flag, draw(_value(name, flag))]
    if draw(st.integers(0, 19)) == 19:
        argv.append("--help")
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
@example(["dist", "--family", "run", "--a", "9" * 30, "--n", "0"])  # (1,) * a overflows
def test_any_argv_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
