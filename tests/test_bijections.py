"""Occurrence-exchanging bijections on non-crossing partitions."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpart import bijections, core, stats
from ncpart.bijections import (
    decode_descent_code,
    descent_code,
    map_descent_code,
    map_equiv,
    map_f,
    map_g,
    map_runrev,
)
from ncpart.core import (
    NCPartition,
    RhoTail,
    SubwordPattern,
    _chain_links,
    is_canonical_nc,
    is_noncrossing_pairwise,
    iter_nc,
    parse_sequence,
)
from ncpart.errors import (
    EmptyPartition,
    FamilyViolation,
    PatternLengthMismatch,
)
from ncpart.stats import count_subword

N_MAX = 7


def _all_nc(n_max=N_MAX):
    for n in range(1, n_max + 1):
        yield from iter_nc(n)


# ---------------------------------------------------------------------------
# Window exchange for trailing-run-1 patterns
# ---------------------------------------------------------------------------


def test_map_f_worked_example():
    pi = NCPartition((1, 2, 3, 1, 1, 4, 5, 1, 6, 7, 8, 6, 6, 1, 9))
    image = map_f(pi, "231", "221")
    assert image.letters == (1, 2, 2, 1, 1, 3, 3, 1, 4, 5, 5, 4, 6, 1, 7)


@pytest.mark.parametrize("tau1,tau2", [("231", "221"), ("2221", "2341")])
def test_map_f_exchanges_counts_and_involutes(tau1, tau2):
    for pi in _all_nc():
        image = map_f(pi, tau1, tau2)
        assert count_subword(image, tau2) == count_subword(pi, tau1)
        assert count_subword(image, tau1) == count_subword(pi, tau2)
        assert map_f(image, tau1, tau2) == pi


def test_map_f_is_identity_on_equal_patterns():
    for pi in _all_nc(5):
        assert map_f(pi, "221", "221") == pi


@pytest.mark.parametrize("bad", ["211", "121", "123"])
def test_map_f_rejects_patterns_without_single_trailing_one(bad):
    with pytest.raises(FamilyViolation):
        map_f("121", bad, "221")


def test_map_f_rejects_length_mismatch():
    with pytest.raises(PatternLengthMismatch):
        map_f("121", "231", "2221")


# ---------------------------------------------------------------------------
# Chain reversal exchanging 2·sigma·1^b with 2^b·sigma·1
# ---------------------------------------------------------------------------


def test_map_g_worked_example():
    image = map_g("122322114115", "", 2)
    assert image == NCPartition(parse_sequence("122332214415"))
    assert map_g(image, "", 2) == NCPartition(parse_sequence("122322114115"))


@pytest.mark.parametrize("sigma,b", [("", 2), ("", 3), ("3", 2), ("32", 2)])
def test_map_g_exchange_involution_blocks(sigma, b):
    sig = parse_sequence(sigma) if sigma else ()
    p1 = (2,) + sig + (1,) * b
    p2 = (2,) * b + sig + (1,)
    for pi in _all_nc():
        image = map_g(pi, sigma, b)
        assert count_subword(image, p2) == count_subword(pi, p1)
        assert count_subword(image, p1) == count_subword(pi, p2)
        assert map_g(image, sigma, b) == pi
        assert image.block_count == pi.block_count


def test_map_g_does_not_depend_on_b():
    for pi in _all_nc(6):
        assert map_g(pi, "3", 3) == map_g(pi, "3", 2)


@pytest.mark.parametrize("sigma", ["4", "2", "35"])
def test_map_g_rejects_bad_sigma(sigma):
    with pytest.raises(FamilyViolation):
        map_g("121", sigma, 2)


def test_map_g_rejects_b_below_two():
    with pytest.raises(FamilyViolation):
        map_g("121", "", 1)


# ---------------------------------------------------------------------------
# Composite equidistribution map for (rho+1)1^b patterns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "tau1,tau2",
    [("211", "221"), ("211", "231"), ("2311", "2221"), ("2341", "2111")],
)
def test_map_equiv_transports_counts_injectively(tau1, tau2):
    for n in range(1, N_MAX + 1):
        seen = set()
        for pi in iter_nc(n):
            image = map_equiv(pi, tau1, tau2)
            assert count_subword(image, tau2) == count_subword(pi, tau1)
            seen.add(image)
        # an injection of the finite set onto itself is a bijection
        assert len(seen) == sum(1 for _ in iter_nc(n))


def test_map_equiv_is_identity_on_equal_patterns():
    for pi in _all_nc(5):
        assert map_equiv(pi, "2311", "2311") == pi


def test_map_equiv_rejects_length_mismatch():
    with pytest.raises(PatternLengthMismatch):
        map_equiv("121", "211", "2221")


def test_map_equiv_rejects_wrong_shape():
    with pytest.raises(FamilyViolation):
        map_equiv("121", "112", "122")


# ---------------------------------------------------------------------------
# Run-length reversal exchanging 1^a(rho+1)1^b with 1^b(rho+1)1^a
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,rho,b", [(1, "1", 2), (2, "1", 1), (1, "12", 2)])
def test_map_runrev_exchange_and_involution(a, rho, b):
    lifted = tuple(v + 1 for v in parse_sequence(rho))
    p1 = (1,) * a + lifted + (1,) * b
    p2 = (1,) * b + lifted + (1,) * a
    for pi in _all_nc():
        image = map_runrev(pi, a, rho, b)
        assert count_subword(image, p2) == count_subword(pi, p1)
        assert count_subword(image, p1) == count_subword(pi, p2)
        assert map_runrev(image, a, rho, b) == pi
        assert image.block_count == pi.block_count


def test_map_runrev_depends_only_on_rho():
    for pi in _all_nc(6):
        assert map_runrev(pi, 1, "1", 2) == map_runrev(pi, 2, "1", 1)
        assert map_runrev(pi, 1, "1", 2) == map_runrev(pi, 1, "1", 3)


def test_map_runrev_rejects_bad_parameters():
    with pytest.raises(FamilyViolation):
        map_runrev("121", 0, "1", 2)
    with pytest.raises(FamilyViolation):
        map_runrev("121", 1, "21", 2)


# ---------------------------------------------------------------------------
# Descent-section codes
# ---------------------------------------------------------------------------


def test_descent_code_anchors():
    assert descent_code("12231") == ((1, 1), ((1, 0, 1), ()))
    assert descent_code("1213311") == ((1, 1, 1), ((1,), (1, 0), (0,)))


def test_descent_code_round_trip():
    for pi in _all_nc():
        bottoms, codes = descent_code(pi)
        assert decode_descent_code(bottoms, codes) == pi


def _sections(letters):
    """Split a word at its descents into maximal weakly increasing runs."""
    parts = [[letters[0]]]
    for prev, nxt in zip(letters, letters[1:]):
        if nxt < prev:
            parts.append([nxt])
        else:
            parts[-1].append(nxt)
    return parts


def test_map_descent_code_involution_and_invariants():
    for n in range(1, N_MAX + 1):
        seen = set()
        for pi in iter_nc(n):
            image = map_descent_code(pi)
            assert map_descent_code(image) == pi
            assert image.block_count == pi.block_count
            bottoms, codes = descent_code(pi)
            assert descent_code(image) == (
                bottoms,
                tuple(code[::-1] for code in codes),
            )
            for before, after in zip(
                _sections(pi.letters), _sections(image.letters)
            ):
                assert set(before) == set(after)
            seen.add(image)
        assert len(seen) == sum(1 for _ in iter_nc(n))


@pytest.mark.parametrize("a,m", [(2, 2), (3, 2), (2, 3)])
def test_map_descent_code_exchanges_staircase_counts(a, m):
    p1 = (1,) * a + tuple(range(2, m + 1))
    p2 = tuple(range(1, m)) + (m,) * a
    for pi in _all_nc():
        image = map_descent_code(pi)
        assert count_subword(image, p2) == count_subword(pi, p1)
        assert count_subword(image, p1) == count_subword(pi, p2)


def test_descent_code_requires_nonempty():
    with pytest.raises(EmptyPartition):
        descent_code(())
    with pytest.raises(EmptyPartition):
        map_descent_code("")


@pytest.mark.parametrize(
    "bottoms,codes",
    [
        ((1, 2), ((), ())),  # bottoms must strictly descend
        ((2,), ((),)),  # first section must start at 1
        ((1, 3), ((1,), ())),  # a bottom skipping the letter 3 does not descend
        ((1,), ((2,),)),  # code bits are 0 or 1 only
        ((1,), ((1,), (0,))),  # one code per bottom
    ],
)
def test_decode_rejects_inconsistent_codes(bottoms, codes):
    with pytest.raises(ValueError):
        decode_descent_code(bottoms, codes)


# ---------------------------------------------------------------------------
# Parameter resolution: equal parameters in any form, failures every time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "apply,forms",
    [
        (lambda pi, t: map_f(pi, t, "221"),
         ["231", [2, 3, 1], (2, 3, 1), SubwordPattern("231"), RhoTail((1, 2), 1)]),
        (lambda pi, t: map_f(pi, "2221", t), ["2341", [2, 3, 4, 1], (2, 3, 4, 1)]),
        (lambda pi, s: map_g(pi, s, 2), ["3", [3], (3,)]),
        (lambda pi, s: map_g(pi, s, 2), ["32", [3, 2], (3, 2), SubwordPattern("21")]),
        (lambda pi, s: map_g(pi, s, 2), ["", [], ()]),
        (lambda pi, t: map_equiv(pi, t, "221"),
         ["211", [2, 1, 1], (2, 1, 1), RhoTail((1,), 2)]),
        (lambda pi, t: map_equiv(pi, "211", t), ["231", [2, 3, 1], (2, 3, 1)]),
        (lambda pi, r: map_runrev(pi, 1, r, 2), ["1", [1], (1,), SubwordPattern("1")]),
        (lambda pi, r: map_runrev(pi, 2, r, 1), ["12", [1, 2], (1, 2)]),
    ],
)
def test_parameter_forms_give_the_same_image(apply, forms):
    for pi in _all_nc(6):
        images = {apply(pi, form) for form in forms}
        assert len(images) == 1


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: map_f("121", "211", "221"), FamilyViolation),
        (lambda: map_f("121", [2, 1, 1], "221"), FamilyViolation),
        (lambda: map_f("121", "231", [2, 2, 2, 1]), PatternLengthMismatch),
        # unequal lengths are reported before a trailing run b != 1
        (lambda: map_f("121", "211", [2, 1, 1, 1, 1]), PatternLengthMismatch),
        (lambda: map_g("121", "4", 2), FamilyViolation),
        (lambda: map_g("121", [3, 5], 2), FamilyViolation),
        (lambda: map_equiv("121", "112", "122"), FamilyViolation),
        (lambda: map_equiv("121", [2, 1, 1], "2221"), PatternLengthMismatch),
        (lambda: map_runrev("121", 0, "1", 2), FamilyViolation),
        (lambda: map_runrev("121", 1, [2, 1], 2), FamilyViolation),
    ],
)
def test_bad_parameters_fail_on_every_call(call, error):
    messages = []
    for _ in range(2):
        with pytest.raises(error) as caught:
            call()
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# Large sizes: uniformly sampled partitions of size 20-40
# ---------------------------------------------------------------------------

# The parameter sets of the exhaustive acceptance sweep (criterion 10).
F_PAIRS = (("231", "221"), ("2221", "2341"))
G_CASES = (("", 2), ("3", 2))
E_PAIRS = (("211", "221"), ("211", "231"))
RR_CASES = ((1, "1", 2), (2, "1", 1))
DC_EXCHANGE = ((2, 2), (3, 2), (2, 3))


def _uniform_dyck(n, rng):
    """A uniform Dyck word of semilength n as +1/-1 steps (cycle lemma):
    of the rotations of a shuffled word with n up and n + 1 down steps,
    exactly one, starting after the first minimum of the prefix sums,
    stays non-negative until its final down step."""
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    height, low, cut = 0, 0, 0
    for i, step in enumerate(steps):
        height += step
        if height < low:
            low, cut = height, i + 1
    return (steps[cut:] + steps[:cut])[:-1]


def _nc_from_dyck(steps):
    """The non-crossing partition of a Dyck word: element i is the i-th
    down step.  A run of k up steps before it opens a new block of size k;
    with no run, the element joins the latest block still short of its
    size (the only choice without a crossing)."""
    letters, open_blocks, run, opened = [], [], 0, 0
    for step in steps:
        if step > 0:
            run += 1
            continue
        if run:
            opened += 1
            open_blocks.append([opened, run])
            run = 0
        block = open_blocks[-1]
        letters.append(block[0])
        block[1] -= 1
        if block[1] == 0:
            open_blocks.pop()
    return NCPartition(tuple(letters))


def _dyck_words(n):
    if n == 0:
        yield []
        return
    for k in range(n):
        for inner in _dyck_words(k):
            for outer in _dyck_words(n - 1 - k):
                yield [1] + inner + [-1] + outer


def test_dyck_decoding_is_a_bijection_onto_nc_partitions():
    for n in range(8):
        decoded = [_nc_from_dyck(word) for word in _dyck_words(n)]
        assert sorted(decoded) == list(iter_nc(n))


large_partitions = st.builds(
    lambda n, rng: _nc_from_dyck(_uniform_dyck(n, rng)),
    st.integers(20, 40),
    st.randoms(use_true_random=False),
)


def _checked(image):
    assert is_canonical_nc(image.letters)
    assert is_noncrossing_pairwise(image.letters)
    return image


@settings(max_examples=60, deadline=None)
@given(large_partitions)
def test_large_partitions_exchange_and_involution(pi):
    for t1, t2 in F_PAIRS:
        image = _checked(map_f(pi, t1, t2))
        assert count_subword(image, t2) == count_subword(pi, t1)
        assert count_subword(image, t1) == count_subword(pi, t2)
        assert map_f(image, t1, t2) == pi
    for sigma, b in G_CASES:
        sig = parse_sequence(sigma) if sigma else ()
        p1, p2 = (2,) + sig + (1,) * b, (2,) * b + sig + (1,)
        image = _checked(map_g(pi, sigma, b))
        assert count_subword(image, p2) == count_subword(pi, p1)
        assert count_subword(image, p1) == count_subword(pi, p2)
        assert map_g(image, sigma, b) == pi
    for t1, t2 in E_PAIRS:
        image = _checked(map_equiv(pi, t1, t2))
        assert count_subword(image, t2) == count_subword(pi, t1)
    for a, rho, b in RR_CASES:
        lifted = tuple(v + 1 for v in parse_sequence(rho))
        p1, p2 = (1,) * a + lifted + (1,) * b, (1,) * b + lifted + (1,) * a
        image = _checked(map_runrev(pi, a, rho, b))
        assert count_subword(image, p2) == count_subword(pi, p1)
        assert count_subword(image, p1) == count_subword(pi, p2)
        assert map_runrev(image, a, rho, b) == pi
    image = _checked(map_descent_code(pi))
    assert map_descent_code(image) == pi
    for a, m in DC_EXCHANGE:
        p1, p2 = (1,) * a + tuple(range(2, m + 1)), tuple(range(1, m)) + (m,) * a
        assert count_subword(image, p2) == count_subword(pi, p1)
        assert count_subword(image, p1) == count_subword(pi, p2)


# ---------------------------------------------------------------------------
# Exact images, and the run-reversal kernel on its own
# ---------------------------------------------------------------------------


#: The parameter sets of criterion 10 and two more of map_g (b = 3, and a
#: two-letter sigma).
_IMAGE_MAPS = {
    "f-231-221": lambda pi: map_f(pi, "231", "221"),
    "f-2221-2341": lambda pi: map_f(pi, "2221", "2341"),
    "g--2": lambda pi: map_g(pi, "", 2),
    "g-3-2": lambda pi: map_g(pi, "3", 2),
    "g--3": lambda pi: map_g(pi, "", 3),
    "g-32-2": lambda pi: map_g(pi, "32", 2),
    "equiv-211-221": lambda pi: map_equiv(pi, "211", "221"),
    "equiv-211-231": lambda pi: map_equiv(pi, "211", "231"),
    "runrev-1-1-2": lambda pi: map_runrev(pi, 1, "1", 2),
    "runrev-2-1-1": lambda pi: map_runrev(pi, 2, "1", 1),
    "descent-code": map_descent_code,
}

#: SHA-256 of every image, hashed in enumeration order as "1,2,2,1;": of
#: the partitions of sizes 1-8 together, of size 9 and of size 10.  Sizes 9
#: and 10 reach the longer chains and the words with several map_f windows.
_PINNED_DIGESTS = {
    "f-231-221": (
        "98d6ff52bd66c5979f0ca3ef39aa792d18b90de8109cdfc1cd7faba010841ee1",
        "62d23bb413169a4b50b2f51e9fcf4c8ce01eda37cf71e0494185d7b950c4e8dc",
        "b895983b77edf6e295ddbb4a5c178cbb65a7c78dcb88d0b63d12d832e4d53631",
    ),
    "f-2221-2341": (
        "bcfedb01989b72daa4a14d09fc9271b5b755e4a2fe308886a4bdf04aa3cb4182",
        "accae7bacef7ef18f5c450d65a46f83e091929074fb595d16e2f5e333c17e228",
        "a39e9598ccc085254cd05d24236d9ce9bdbc34455e1e74c5003c67e6e33a5da2",
    ),
    "g--2": (
        "739e8893105b022ce3335c034ea326635171b2cbcda3cb6d4bbe03737ae6dd58",
        "cd6a451f2dffd15f03a7eba5a5cf87c8d3167e13fba7d72824757d2c7daabc32",
        "bb7f49e52759a8fa4642aa4978b0585cc98855e9ec6ece0cdbcfe2a22fc6dc3e",
    ),
    "g-3-2": (
        "e8de8dbb57beb8a66a8f95eebc115065d29619ff7f8df3bd3d31356efb435cf3",
        "08260e7c795207e01f84be149e071a2f6a453ba07eb00c1e0717fc9abd73c087",
        "fa1633c56aa68aa83bd3d096009d1ebf2f2fdf04c0033b0288b648d4973191c0",
    ),
    "g--3": (
        "739e8893105b022ce3335c034ea326635171b2cbcda3cb6d4bbe03737ae6dd58",
        "cd6a451f2dffd15f03a7eba5a5cf87c8d3167e13fba7d72824757d2c7daabc32",
        "bb7f49e52759a8fa4642aa4978b0585cc98855e9ec6ece0cdbcfe2a22fc6dc3e",
    ),
    "g-32-2": (
        "251535ca76f91d453668000bf524c12375f1d28c731d39ea70cebce7ae1f210c",
        "66302774b75e30f24c9e01c3e473b12f9cc93cf8f396b4a96f569805b52c3f43",
        "a63ff2624e419826927612f47a883c370072d049d5bb4d9bd695f6cdd307ae75",
    ),
    "equiv-211-221": (
        "739e8893105b022ce3335c034ea326635171b2cbcda3cb6d4bbe03737ae6dd58",
        "cd6a451f2dffd15f03a7eba5a5cf87c8d3167e13fba7d72824757d2c7daabc32",
        "bb7f49e52759a8fa4642aa4978b0585cc98855e9ec6ece0cdbcfe2a22fc6dc3e",
    ),
    "equiv-211-231": (
        "bb2254f29fe81e553c89dcffcd3c99039255e0cd14da017106e8e5cfd5762166",
        "664dad13aff7607f08a4f346e6c18ceab20c8304fc511a9c3927acb1442cdfdf",
        "c4c97a66f0bc8de20a811fca9fe9a94078ebe713ee3ad36faf2362905e7eca80",
    ),
    "runrev-1-1-2": (
        "652849176079fc25b9dad4c7eb79d734e9790311a9a75d5c12a64de6bab9f1be",
        "747f44fc9b41b2ea1f470c32cf875c1bdd1d550a11b594363e903e843b165518",
        "aa1859f96af05ef12eaa19ce47e97f129fa9ed4aa0283a1fff0a68c3fb84e401",
    ),
    "runrev-2-1-1": (
        "652849176079fc25b9dad4c7eb79d734e9790311a9a75d5c12a64de6bab9f1be",
        "747f44fc9b41b2ea1f470c32cf875c1bdd1d550a11b594363e903e843b165518",
        "aa1859f96af05ef12eaa19ce47e97f129fa9ed4aa0283a1fff0a68c3fb84e401",
    ),
    "descent-code": (
        "46c1d7d5732b5c04b70a230c961fced21830aa3a9c8ae8589d2407015505c693",
        "96084a64fe5d34f875437e7fc62dbfaf7276792714a28e10b6663f47ec4dfe7f",
        "e37f3fa8983a95fa02d509f9630d836ced1c10c02220994e19c216c566ba735d",
    ),
}


def _image_digest(apply, sizes):
    h = hashlib.sha256()
    for n in sizes:
        for pi in iter_nc(n):
            h.update((",".join(map(str, apply(pi).letters)) + ";").encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(_IMAGE_MAPS))
def test_images_match_their_pinned_digests(name):
    assert _image_digest(_IMAGE_MAPS[name], range(1, 9)) == _PINNED_DIGESTS[name][0]


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("name", list(_IMAGE_MAPS))
def test_images_at_sizes_9_and_10_match_their_pinned_digests(name, n):
    assert _image_digest(_IMAGE_MAPS[name], [n]) == _PINNED_DIGESTS[name][n - 8]


def test_no_map_standardises(monkeypatch):
    # Every occurrence test checks chain links; with the parameter caches
    # cleared, the maps reach the same images without standardising.
    maps = (
        [lambda pi, pair=pair: map_f(pi, *pair) for pair in F_PAIRS]
        + [lambda pi, case=case: map_g(pi, *case) for case in G_CASES]
        + [lambda pi, pair=pair: map_equiv(pi, *pair) for pair in E_PAIRS]
        + [lambda pi, case=case: map_runrev(pi, *case) for case in RR_CASES]
        + [map_descent_code]
    )
    partitions = list(_all_nc())
    before = [[apply(pi) for pi in partitions] for apply in maps]

    def forbidden(window):
        raise AssertionError(f"a bijection standardised {window!r}")

    assert "_standardise" not in vars(bijections)
    monkeypatch.setattr(core, "_standardise", forbidden)
    monkeypatch.setattr(stats, "_standardise", forbidden)
    for resolve in (
        bijections._chain_params,
        bijections._equiv_plan,
        bijections._runrev_rho,
    ):
        resolve.cache_clear()
    assert [[apply(pi) for pi in partitions] for apply in maps] == before


def _weakly_increasing_section(w, p):
    """From p, the maximal weakly increasing section of w, as links
    (letter, run length, ())."""
    end = p + 1
    while end < len(w) and w[end] >= w[end - 1]:
        end += 1
    return end, [(v, len(list(run)), ()) for v, run in itertools.groupby(w[p:end])]


def test_descent_code_map_is_the_run_reversal_of_sections():
    """Within a weakly increasing section each ascent goes to the running
    maximum + 1, so reversing the ascent/plateau code reverses the run
    lengths: the kernel of map_g and map_runrev, fed the sections, is
    map_descent_code."""
    for pi in _all_nc(10):
        image = bijections._reverse_runs(pi.letters, _weakly_increasing_section)
        assert image == map_descent_code(pi)


@pytest.mark.parametrize(
    "word,parse,message",
    [
        # a string found at position 1, inside the run 1,1
        ((1, 1, 2), lambda w, p: (p + 1, [(w[p], 1, ())]) if p == 1 else None,
         "not run-maximal on the left"),
        # links of total length 1 for a string of length 2
        ((1, 2), lambda w, p: (p + 2, [(w[p], 1, ())]),
         "changed the string length"),
        # two links of total length 2 for a string of length 4
        ((1, 2, 1, 2), lambda w, p: (4, [(1, 1, ()), (2, 1, ())]) if p == 0 else None,
         "changed the string length"),
    ],
    ids=["starts-inside-a-run", "links-short-of-the-span", "multi-link-short-of-the-span"],
)
def test_run_reversal_kernel_asserts_its_structure(word, parse, message):
    with pytest.raises(AssertionError, match=message):
        bijections._reverse_runs(word, parse)


# ---------------------------------------------------------------------------
# Every structural check fires when its claim is broken
# ---------------------------------------------------------------------------

# Occurrence windows of 231 at 1, 5, 9 and of 221 at 11.
_MANY_WINDOWS = (1, 2, 3, 1, 1, 4, 5, 1, 6, 7, 8, 6, 6, 1, 9)


@pytest.mark.parametrize(
    "word,rewrite,message",
    [
        # a rewrite that changes nothing: the next rescan still finds the
        # first window unexchanged
        (_MANY_WINDOWS, lambda w, start, length, target: list(w),
         "failed to persist"),
        # the same with one window: only the final scan follows the rewrite
        ((1, 2, 3, 1), lambda w, start, length, target: list(w),
         "not fully exchanged"),
        (_MANY_WINDOWS, lambda w, start, length, target: [0] * len(w),
         "intermediate word is not a canonical non-crossing sequence"),
    ],
    ids=["persistence", "final-exchange", "intermediate-canonical"],
)
def test_map_f_checks_fire(monkeypatch, word, rewrite, message):
    monkeypatch.setattr(bijections, "_convert_window", rewrite)
    with pytest.raises(AssertionError, match=message):
        map_f(word, "231", "221")


def test_window_conversion_checks_fire(monkeypatch):
    # A scan that reports a window the letters do not realize: 1,2,3 does
    # not end with its minimum.
    def bogus_scan(w, length, links1, links2):
        return [bijections.TauString(0, length, 0)]

    monkeypatch.setattr(bijections, "_scan_strings", bogus_scan)
    with pytest.raises(AssertionError, match="window does not end with its minimum"):
        map_f((1, 2, 3, 1), "231", "221")


@pytest.mark.parametrize(
    "call,message",
    [
        # windows of 111 at 0 and 1 in 1111
        (lambda: bijections._scan_strings(
            (1, 1, 1, 1), 3, _chain_links((1, 1, 1)), _chain_links((1, 1, 1))),
         "share more than one position"),
        # fresh letters 3 and 5 of the window 2,3,5,1
        (lambda: bijections._convert_window([2, 3, 5, 1], 0, 4, (2, 3, 4, 1)),
         "fresh letters are not consecutive values"),
        # 221 into 21 drops the letter 3, which also occurs before the window
        (lambda: bijections._convert_window([3, 2, 3, 1], 1, 3, (2, 1)),
         "letters slated for removal occur outside the window"),
        # ... and after it
        (lambda: bijections._convert_window([2, 3, 1, 3], 0, 3, (2, 1)),
         "letters slated for removal occur outside the window"),
        # 4 comes before the window 2,3,1, whose top is 3
        (lambda: bijections._convert_window([4, 2, 3, 1], 1, 3, (2, 3, 1)),
         "letters above the window's top occur before it"),
    ],
    ids=["overlapping-windows", "fresh-letters", "removed-before", "removed-after",
         "above-the-top"],
)
def test_window_kernels_assert_their_structure(call, message):
    with pytest.raises(AssertionError, match=message):
        call()


def test_maximal_run_string_check_fires(monkeypatch):
    # A parser whose string found at 1 reaches past the one found at 0.
    def overlapping(rho_links, w, p):
        return {0: (2, []), 1: (4, [])}.get(p)

    monkeypatch.setattr(bijections, "_parse_runstring", overlapping)
    with pytest.raises(AssertionError, match="maximal run strings are not disjoint"):
        bijections._maximal_runstring((), (1, 1, 1, 1), 0)


def test_descent_code_round_trip_check_fires(monkeypatch):
    # A decoder that returns a valid partition other than the one asked for.
    def wrong_decode(bottoms, codes):
        return NCPartition((1,) * sum(len(code) + 1 for code in codes))

    monkeypatch.setattr(bijections, "decode_descent_code", wrong_decode)
    with pytest.raises(AssertionError, match="descent-code round trip failed"):
        map_descent_code((1, 2, 3, 1))
