"""Seeded request plans for the three benchmark workloads.

A plan is the list of requests one pass sends, in order.  It is plain JSON
data made from the workload name and the seed alone; the program under test
sees only these generated inputs.  This module imports nothing from
``ncpart``, so building a plan costs the measured child nothing.

Every workload keeps the *cost* of a pass fixed and lets the seed choose the
*keys*: each slot fixes the kind of call and its size (n, order, pattern
length), and the seed picks among keys of equal cost (which pattern of that
length, which rho word of that length, the order of the requests, the order
of the partitions in a sweep).  Run-to-run spread
across seeds is then machine noise, not a different amount of work.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("walk", "closed", "verify")

#: ``verify --target all`` runs at this one order for every target.  At the
#: default orders one call takes about 23 s, longer than a whole run.
VERIFY_ORDER = 10

#: Cells that ``verify --target all --order 10`` checks at the commit that
#: defined the benchmark.  A later commit must check exactly as many.
VERIFY_CELLS = 1035

TABLE1_PATTERNS = ("11", "12", "111", "112", "121", "122", "123")

# Parameter sets of the exhaustive bijection criterion.
F_PAIRS = (("231", "221"), ("2221", "2341"))
G_CASES = (("", 2), ("3", 2))
E_PAIRS = (("211", "221"), ("211", "231"))
RR_CASES = ((1, "1", 2), (2, "1", 1))
#: Every map sweeps the partitions of this size.
BIJ_N = 8
#: Three of the cheaper sweeps also run at size 9.
BIJ_LARGE = (("map_g", ["", 2]), ("map_runrev", [1, "1", 2]), ("map_descent_code", []))

#: Weights of the smallest repeated letter; the fractions keep the
#: ``Fraction`` path of the algebra measured.
V_VALUES = ("0", "2", "3", "1/2", "2/3")

#: Length-4 patterns that a closed family covers.
COVERED_LEN4 = [
    "1111", "1112", "1222", "2111", "2311", "1121", "1211", "1231", "1123", "1233",
]


def pattern_words(length: int) -> list[str]:
    """Every valid pattern word of a length: letters 1..k, each used."""
    out = []
    for word in itertools.product(range(1, length + 1), repeat=length):
        if set(word) == set(range(1, max(word) + 1)):
            out.append("".join(map(str, word)))
    return out


def nc_words(length: int) -> list[str]:
    """Every canonical non-crossing word of a length."""
    return [w for w in pattern_words(length) if is_canonical_nc([int(c) for c in w])]


def is_canonical_nc(letters) -> bool:
    """Restricted growth and non-crossing: each letter is a new maximum or
    reopens a block that no later-opened block has closed over."""
    stack: list[int] = []
    maximum = 0
    for v in letters:
        if v == maximum + 1:
            maximum = v
            stack.append(v)
        elif v in stack:
            del stack[stack.index(v) + 1:]
        else:
            return False
    return True


def catalan(n: int) -> int:
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def make_plan(workload: str, seed: int) -> list[dict]:
    """The requests of one pass of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)


def _req(kind: str, *args, repeat: bool = False, **extra) -> dict:
    return {"kind": kind, "args": list(args), "repeat": repeat, **extra}


def _brute(rng: random.Random) -> list[dict]:
    words = {length: pattern_words(length) for length in range(2, 6)}
    cold: list[dict] = []
    for n in (9, 10, 10, 11):
        cold.append(_req("iter_nc", n))
    # Each cold request gets a key that no earlier request of the same
    # cache used, so it walks; the three stats caches are separate.
    picked: set[tuple] = set()

    def fresh(cache: str, pool: list[str]) -> str:
        word = rng.choice([w for w in pool if (cache, w) not in picked])
        picked.add((cache, word))
        return word

    # Disk-cache requests: total through the brute route on patterns a
    # closed family covers, so the checker has a second route to each total
    # (picked first, before other requests use up the covered patterns), and
    # dist on any pattern.
    cli: list[dict] = []
    for n in (9, 10, 10):
        cli.append(_cli_row("total", n, fresh("sep", COVERED_LEN4)))
    for n, count in ((8, 12), (9, 30), (10, 6), (11, 1)):
        for _ in range(count):
            # Size 9 holds the median request: one pattern length there.
            length = 4 if n == 9 else 5
            cold.append(_req("distribution_rows", n, fresh("sep", words[length])))
    len4 = list(words[4])
    len5 = list(words[5])
    rng.shuffle(len4)
    rng.shuffle(len5)
    table1 = list(TABLE1_PATTERNS)
    rng.shuffle(table1)
    cold.append(_req("batch_distribution_rows", 9, len4))
    cold.append(_req("batch_distribution_rows", 8, len5))
    cold.append(_req("batch_distribution_rows", 11, table1))
    for n in (9, 9, 10, 10, 10, 10):
        first = rng.choice(words[2] + words[3])
        cold.append(_req("joint_rows", n, first, fresh("joint:" + first, words[3])))
    for n in (9, 9, 10, 10, 10, 10):
        cold.append(_req("rep_joint_rows", n, fresh("rep", words[4])))
    for n, count in ((9, 4), (10, 4)):
        for _ in range(count):
            cli.append(_cli_row("dist", n, fresh("sep", words[4])))
    rng.shuffle(cold)
    rng.shuffle(cli)
    # Interleave the disk-cache requests among the in-memory ones.
    plan = list(cold)
    for req in cli:
        plan.insert(rng.randrange(len(plan) + 1), req)
    # About a quarter of the requests repeat an earlier key at a smaller n.
    for _ in range(len(plan) // 3):
        at = rng.randrange(len(plan) // 2, len(plan) + 1)
        earlier = [r for r in plan[:at] if r["kind"] != "iter_nc" and not r["repeat"]]
        plan.insert(at, _repeat(rng.choice(earlier), rng))
    return plan


def _cli_row(command: str, n: int, word: str) -> dict:
    argv = [command, "--pattern", word, "--n", str(n), "--format", "json"]
    if command == "total":
        argv[5:5] = ["--method", "brute"]
    return _req("cli", argv, n=n, pattern=word)


def _repeat(req: dict, rng: random.Random) -> dict:
    if req["kind"] == "cli":
        n = rng.randrange(2, req["n"] + 1)
        command = req["args"][0][0]
        out = _cli_row(command, n, req["pattern"])
        out["repeat"] = True
        return out
    n = rng.randrange(2, req["args"][0] + 1)
    return _req(req["kind"], n, *req["args"][1:], repeat=True)


def _closed(rng: random.Random) -> list[dict]:
    nc = {length: nc_words(length) for length in (1, 2, 3)}
    single_start = {
        length: [w for w in nc[length] if length == 1 or w[1] != "1"]
        for length in (1, 2, 3)
    }
    plan: list[dict] = []
    for m in (2, 3, 4):
        for order in (16, 24):
            plan.append(_req("gf_1m", m, order))
    for m in (1, 2, 3, 4):
        for order in (16, 20):
            plan.append(_req("gf_1m2", m, order))
    for length in (1, 2, 3):
        for b in (1, 2, 3):
            for order in (16, 20):
                pool = single_start[length] if b >= 2 else nc[length]
                plan.append(_req("gf_rho_1b", rng.choice(pool), b, order))
    for length in (1, 2, 3):
        for a, b in ((1, 1), (1, 2), (2, 3)):
            if rng.random() < 0.5:
                a, b = b, a
            plan.append(_req("gf_1a_rho_1b", a, rng.choice(nc[length]), b, 16))
    for m, a in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2)):
        for order in (16, 20):
            plan.append(_req("gf_staircase_tail", m, a, order))
    for a, b in ((1, 1), (1, 3), (2, 2), (3, 1), (4, 4), (2, 4)):
        plan.append(_req("gf_joint_1a_1b2", a, b, 16))
    plan.append(_req("gf_joint_1a_1b2", 3, 3, 20))
    for m, a in ((2, 2), (3, 2), (2, 3)):
        for _ in range(2):
            plan.append(_req("staircase_series_by_recurrence", m, a, 24))
    for v in V_VALUES:
        plan.append(_req("gf_staircase_joint_rep", 2, 2, 16, v))
        plan.append(_req("gf_staircase_joint_rep", 3, 2, 16, v))
    families = (
        ["1" * m for m in (1, 2, 3, 4)]
        + ["1" * m + "2" for m in (1, 2, 3)]
        + ["2" + "1" * b for b in (1, 2, 3)]
        + ["12" + "2" * a for a in (1, 2, 3)]
        + ["1231", "2311", "1123", "11211"]
    )
    for _ in range(30):
        plan.append(_req("total_occurrences", rng.choice(families), rng.randrange(16, 25)))
    rng.shuffle(plan)
    # Recurrence tables are memoized per (m, a): the first request builds
    # the table to order 24, the second is a repeat at a lower order.
    seen: set[tuple] = set()
    for req in plan:
        if req["kind"] == "staircase_series_by_recurrence":
            key = tuple(req["args"][:2])
            if key in seen:
                req["repeat"] = True
                req["args"][2] = rng.randrange(16, 25)
            seen.add(key)
    return plan


def _verify(rng: random.Random) -> list[dict]:
    argv = ["verify", "--target", "all", "--order", str(VERIFY_ORDER), "--format", "json"]
    return [_req("cli", argv)]


def _bij(rng: random.Random) -> list[dict]:
    maps: list[tuple[str, list]] = []
    maps += [("map_f", [t1, t2]) for t1, t2 in F_PAIRS]
    maps += [("map_g", [sigma, b]) for sigma, b in G_CASES]
    maps += [("map_equiv", [t1, t2]) for t1, t2 in E_PAIRS]
    maps += [("map_runrev", [a, rho, b]) for a, rho, b in RR_CASES]
    maps += [("map_descent_code", [])]
    sweeps = [(BIJ_N, name, params) for name, params in maps]
    sweeps += [(9, name, params) for name, params in maps if (name, params) in BIJ_LARGE]
    plan = [
        _req("map", name, params, n, order_seed=rng.randrange(2**31))
        for n, name, params in sweeps
    ]
    rng.shuffle(plan)
    return plan


def _walk(rng: random.Random) -> list[dict]:
    """The exhaustive requests: the stats rows and CLI calls of ``_brute``
    with the bijection sweeps of ``_bij`` placed among them."""
    plan = _brute(rng)
    for req in _bij(rng):
        plan.insert(rng.randrange(len(plan) + 1), req)
    return plan


_BUILDERS = {"walk": _walk, "closed": _closed, "verify": _verify}
