"""Golden transcripts of the command line: stdout, stderr and exit code.

Each command runs in-process through ``ncpart.cli.entry`` in text and in
JSON form, and must reproduce ``golden/transcripts.json`` byte for byte.
An argparse usage error is recorded with the exit code it raises.  A
stdout longer than ``_INLINE_LIMIT`` characters is stored as its SHA-256.

Regenerate the file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib

import pytest

from ncpart.cli import entry

GOLDEN = pathlib.Path(__file__).with_name("golden") / "transcripts.json"

_INLINE_LIMIT = 16384

#: Fixed terminal width, so argparse wraps its usage text the same way
#: on every machine.
_COLUMNS = "80"

COMMANDS: tuple[tuple[str, ...], ...] = (
    # README examples
    ("enum", "--n", "3"),
    ("dist", "--pattern", "112", "--n", "3"),
    ("dist", "--pattern", "112", "--order", "5"),
    ("dist", "--pattern", "212", "--n", "8"),
    ("series", "--family", "staircase-tail", "--m", "2", "--a", "2", "--order", "5"),
    ("total", "--pattern", "11", "--n", "4"),
    ("bij", "--map", "g", "--pi", "122322114115", "--sigma", "", "--b", "2"),
    ("bij", "--map", "descent-code", "--pi", "1213311"),
    ("equivclasses", "--len", "3", "--n", "2..9"),
    ("verify", "--target", "table1", "--order", "13"),
    # every family by flags, one success and one usage error each
    ("series", "--family", "run", "--a", "3", "--order", "8"),
    ("series", "--family", "run", "--order", "8"),
    ("series", "--family", "run-ascent", "--a", "2", "--order", "8"),
    ("series", "--family", "run-ascent", "--a", "0", "--order", "8"),
    ("series", "--family", "staircase-tail", "--m", "3", "--a", "2", "--order", "8"),
    ("series", "--family", "staircase-tail", "--a", "2", "--order", "8"),
    ("dist", "--family", "run-staircase", "--a", "2", "--m", "3", "--n", "7",
     "--method", "closed"),
    ("dist", "--family", "run-staircase", "--a", "1", "--m", "3", "--n", "7"),
    ("series", "--family", "sandwich", "--a", "1", "--rho", "12", "--b", "1",
     "--order", "8"),
    ("series", "--family", "sandwich", "--order", "8"),
    ("total", "--family", "rho-tail", "--rho", "12", "--b", "2", "--n", "9"),
    ("total", "--family", "rho-tail", "--rho", "11", "--b", "2", "--n", "9"),
    ("dist", "--family", "foo", "--n", "3"),
    ("dist", "--pattern", "11", "--family", "run", "--a", "2", "--n", "4"),
    ("dist", "--n", "4"),
    # methods
    ("dist", "--pattern", "112", "--n", "3", "--method", "recurrence"),
    ("dist", "--pattern", "213", "--order", "6", "--method", "closed"),
    ("dist", "--pattern", "122", "--n", "7", "--method", "recurrence"),
    ("dist", "--pattern", "1233", "--order", "8", "--method", "closed"),
    ("dist", "--pattern", "2311", "--n", "8", "--method", "closed"),
    ("dist", "--pattern", "112", "--n", "4", "--order", "5"),
    ("series", "--pattern", "1122", "--order", "6"),
    ("series", "--pattern", "122", "--order", "9", "--method", "recurrence"),
    ("series", "--pattern", "1121", "--order", "7", "--method", "brute"),
    ("series", "--pattern", "122", "--order", "7", "--v", "1/2"),
    ("series", "--pattern", "112", "--order", "7", "--v", "2"),
    ("series", "--pattern", "122", "--order", "5", "--v", "1/0"),
    ("series", "--pattern", "11", "--order", "25"),
    ("series", "--pattern", "122", "--order", "25", "--v", "1/0"),
    ("total", "--pattern", "213", "--n", "7"),
    ("total", "--pattern", "213", "--n", "7", "--method", "closed"),
    ("total", "--pattern", "1233", "--n", "9", "--method", "closed"),
    ("total", "--pattern", "1121", "--n", "8", "--method", "brute"),
    ("total", "--pattern", "11", "--n", "17"),
    # bijections, enumeration and classes
    ("bij", "--map", "f", "--pi", "1,2,3,1,1,4,5,1,6,7,8,6,6,1,9",
     "--tau", "231", "--tau2", "221"),
    ("bij", "--map", "equiv", "--pi", "121133", "--tau", "211", "--tau2", "221"),
    ("bij", "--map", "runrev", "--pi", "1121", "--a", "1", "--rho", "1", "--b", "2"),
    ("bij", "--map", "runrev", "--pi", "121"),
    ("bij", "--map", "f", "--pi", "121", "--tau", "21"),
    ("bij", "--map", "g", "--pi", "121", "--sigma", "3"),
    ("bij", "--map", "descent-code", "--pi", "1312"),
    ("enum", "--n", "0"),
    ("enum", "--n", "-1"),
    ("equivclasses", "--len", "6", "--n", "2..8"),
    ("equivclasses", "--len", "3", "--n", "9..2"),
    # verification
    ("verify", "--target", "thm3.3", "--order", "7"),
    ("verify", "--target", "lemma3.1", "--order", "8"),
    ("verify", "--target", "table1", "--order", "17"),
    ("verify", "--target", "table1", "--order", "18"),
    ("verify", "--target", "all", "--order", "10"),
    ("verify", "--target", "all"),
)


def _key(argv: tuple[str, ...]) -> str:
    return json.dumps(list(argv))


def run(argv: tuple[str, ...]) -> dict:
    """One in-process call: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = exc.code
    record: dict = {"argv": list(argv), "exit": code}
    stdout = out.getvalue()
    if len(stdout) > _INLINE_LIMIT:
        record["stdout_sha256"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    else:
        record["stdout"] = stdout
    record["stderr"] = err.getvalue()
    return record


def _all_argv() -> list[tuple[str, ...]]:
    return [cmd + ("--format", fmt) for cmd in COMMANDS for fmt in ("text", "json")]


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {_key(tuple(r["argv"])): r for r in records}


def test_golden_covers_exactly_the_commands(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in _all_argv())


@pytest.mark.parametrize("argv", _all_argv(), ids=" ".join)
def test_transcript_is_byte_identical(argv, golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", _COLUMNS)
    assert run(argv) == golden[_key(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = _COLUMNS
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [run(argv) for argv in _all_argv()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} transcripts to {GOLDEN}")
