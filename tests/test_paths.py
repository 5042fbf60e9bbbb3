"""Snowflake paths/loops, escape and enfilade decompositions, loop checks."""

from fractions import Fraction

import pytest

from snowflake_groups import (
    BilipReport,
    BudgetExceeded,
    GroupElement,
    GroupParams,
    HPoint,
    PathWord,
    decompose_escapes,
    enfilade_decompose,
    geodesic_word_a_power,
    loop_bilip_constant,
    snowflake_loop,
    snowflake_path,
    verify_geodesic_loop,
)
from snowflake_groups import hnn_group
from snowflake_groups.hnn_group import reduce_chars
from snowflake_groups.paths import _check_depth
from snowflake_groups.words import invert_chars, parse_word

from conftest import bidirectional_dist


def test_snowflake_path_examples(p6):
    w = snowflake_path(p6, 1, "s")
    assert str(w) == "s a s^-1 t a t^-1"
    assert w.length == 6
    assert reduce_chars(p6.L, w.chars) == HPoint(6, 0)
    w = snowflake_path(p6, 2, "s")
    assert w.length == 16
    assert reduce_chars(p6.L, w.chars) == HPoint(36, 0)
    assert str(snowflake_path(p6, 1, "t")) == "t a t^-1 s a s^-1"


def test_snowflake_path_rejects_bad_depth(p6):
    with pytest.raises(ValueError):
        snowflake_path(p6, 0, "s")
    with pytest.raises(ValueError):
        snowflake_path(p6, 2, "u")
    # a path has 5 * 2^n - 4 letters, a loop twice that: MAX_LETTERS = 10^7
    # admits paths up to depth 20 and loops up to depth 19
    _check_depth(20, "path")
    _check_depth(19, "loop")
    with pytest.raises(ValueError, match="depth-21 snowflake path is longer than"):
        snowflake_path(p6, 21, "s")
    with pytest.raises(ValueError, match="depth-20 snowflake loop is longer than"):
        snowflake_loop(p6, 20)


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_snowflake_length_law(L):
    params = GroupParams(L)
    for n in range(1, 21):
        for flavor in ("s", "t"):
            assert snowflake_path(params, n, flavor).length == 5 * 2**n - 4


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_snowflake_path_is_geodesic_word_of_L_power(L):
    # sigma_{n,s} is the digit expansion of L^n = (0, ..., 0, 1) in base L,
    # and sigma_{n,t} its s <-> t image
    params = GroupParams(L)
    swap = str.maketrans("sStT", "tTsS")
    for n in range(1, 12):
        sigma = snowflake_path(params, n, "s").chars
        assert sigma == geodesic_word_a_power(params, L**n).chars
        assert snowflake_path(params, n, "t").chars == sigma.translate(swap)


@pytest.mark.parametrize("L", [6, 10])
def test_snowflake_endpoint_big_integers(L):
    params = GroupParams(L)
    for n in (1, 2, 3, 5, 8, 11):
        assert reduce_chars(L, snowflake_path(params, n, "s").chars) == HPoint(L**n, 0)


def test_snowflake_loop_examples(p6):
    assert snowflake_loop(p6, 1).length == 12
    assert snowflake_loop(p6, 2).length == 32
    for n in (1, 2, 3, 6):
        assert reduce_chars(p6.L, snowflake_loop(p6, n).chars) == (0, 0)


# ---------------------------------------------------------------------------
# escapes


def test_decompose_sigma1(p6):
    segs = decompose_escapes(p6, snowflake_path(p6, 1, "s"))
    assert [s.kind for s in segs] == ["x-escape", "y-escape"]
    assert [(s.flavor, s.exponent) for s in segs] == [("x", 1), ("y", 1)]


def test_decompose_toral(p6):
    segs = decompose_escapes(p6, PathWord(p6, "aaa"))
    assert len(segs) == 1 and segs[0].kind == "toral"
    assert (segs[0].flavor, segs[0].exponent) == ("a", 3)


def test_trace_single_escapes(p6):
    segs = decompose_escapes(p6, PathWord(p6, parse_word("s a^5 s^-1")))
    assert (segs[0].flavor, segs[0].exponent) == ("x", 5)
    segs = decompose_escapes(p6, PathWord(p6, parse_word("t a^-2 t^-1")))
    assert (segs[0].flavor, segs[0].exponent) == ("y", -2)


def test_decompose_sigma2(p6):
    segs = decompose_escapes(p6, snowflake_path(p6, 2, "s"))
    assert [(s.flavor, s.exponent) for s in segs] == [("x", 6), ("y", 6)]


def test_decompose_mixed(p6):
    # a-escapes come in two shapes: t^-1 (y-path) t and s^-1 (x-path) s
    w = PathWord(p6, parse_word("a a s a^5 s^-1 a^-1 t^-1 y t s^-1 x^2 s"))
    segs = decompose_escapes(p6, w)
    kinds = [s.kind for s in segs]
    assert kinds == ["toral", "x-escape", "toral", "a-escape", "a-escape"]
    assert [(segs[i].flavor, segs[i].exponent) for i in (1, 3, 4)] == [("x", 5), ("a", 1), ("a", 2)]


def test_decompose_keeps_no_prefix_keys(p6, monkeypatch):
    # one fold that keeps only the visits to H: the escapes f sigma_n f^-1
    # of the benchmark and their insides, and the two-level escape
    from snowflake_groups import paths

    def refuse(*args):
        raise AssertionError("decompose_escapes stored every prefix key")

    monkeypatch.setattr(paths, "prefix_keys", refuse)
    monkeypatch.setattr(PathWord, "vertex_keys", refuse)
    fields = lambda segs: [(s.kind, s.flavor, s.exponent, s.start, s.end) for s in segs]  # noqa: E731
    for n in range(4, 12):
        for f, flavor, other in (("s", "x", "y"), ("t", "y", "x")):
            sigma = snowflake_path(p6, n, f).chars
            end, half = len(sigma), len(sigma) // 2
            segs = decompose_escapes(p6, PathWord(p6, f + sigma + f.upper()))
            assert fields(segs) == [(f"{flavor}-escape", flavor, 6**n, 0, end + 2)]
            assert fields(decompose_escapes(p6, PathWord(p6, sigma))) == [
                (f"{flavor}-escape", flavor, 6 ** (n - 1), 0, half),
                (f"{other}-escape", other, 6 ** (n - 1), half, end),
            ]
    w = PathWord(p6, parse_word("s^-1 a s a^9 s^-1 a^-1 s"))
    assert fields(decompose_escapes(p6, w)) == [("a-escape", "a", 9, 0, 15)]
    assert fields(decompose_escapes(p6, PathWord(p6, w.chars[1:-1]))) == [
        ("toral", "a", 1, 0, 1),
        ("x-escape", "x", 9, 1, 12),
        ("toral", "a", -1, 12, 13),
    ]


@pytest.mark.parametrize(
    "word, expected",
    [
        # toral runs at both ends, one of them no pure power
        ("a x s a s^-1 y", [("toral", None, None, 0, 2), ("x-escape", "x", 1, 2, 5), ("toral", "y", 1, 5, 6)]),
        # a toral run between two escapes
        ("s a s^-1 a x t a t^-1",
         [("x-escape", "x", 1, 0, 3), ("toral", None, None, 3, 5), ("y-escape", "y", 1, 5, 8)]),
    ],
)
def test_decompose_toral_runs_between_escapes(p6, word, expected):
    segs = decompose_escapes(p6, PathWord(p6, parse_word(word)))
    assert [(s.kind, s.flavor, s.exponent, s.start, s.end) for s in segs] == expected


def test_decompose_rejects_open_path(p6):
    with pytest.raises(ValueError):
        decompose_escapes(p6, PathWord(p6, "sa"))


def test_trace_rejects_toral(p6):
    # only an escape has a trace: a toral piece is none
    segs = decompose_escapes(p6, PathWord(p6, "a"))
    assert segs[0].kind == "toral" and not segs[0].is_escape()


# ---------------------------------------------------------------------------
# enfilades


def test_enfilade_flat_escape(p6):
    dec = enfilade_decompose(p6, PathWord(p6, parse_word("s a^5 s^-1")), 4)
    assert dec.depth == 0
    assert str(dec.end) == "a^5"
    assert dec.exponents == (5,)
    assert dec.flavors == ("x", "a")
    assert dec.reassemble().chars == "s" + "a" * 5 + "S"


def test_enfilade_snowflake_interior_too_short(p6):
    # interior escapes of sigma_1 have length 3 < (3/4) * 6
    w = PathWord(p6, "s" + snowflake_path(p6, 1, "s").chars + "S")
    dec = enfilade_decompose(p6, w, 4)
    assert dec.depth == 0
    assert dec.end.chars == snowflake_path(p6, 1, "s").chars


def test_enfilade_two_levels(p6):
    # s^-1 a (s a^9 s^-1) a^-1 s is an a-escape whose core x-escape
    # dominates: 11 >= (3/4) * 13
    w = PathWord(p6, parse_word("s^-1 a s a^9 s^-1 a^-1 s"))
    dec = enfilade_decompose(p6, w, 4)
    assert dec.depth == 1
    assert dec.epsilons == ("S", "s")
    assert str(dec.end) == "a^9"
    assert dec.exponents == (9, 9)
    assert dec.flavors == ("a", "x", "a")
    assert str(dec.alphas[0]) == "a" and str(dec.betas[0]) == "a^-1"
    assert dec.reassemble().chars == w.chars


def test_enfilade_sign_coherence_on_geodesic_escapes(p6):
    # sub-escapes of geodesic (1-biLipschitz) loops have same-sign exponents
    for n in (2, 3, 4):
        sigma = snowflake_path(p6, n, "s")
        escape = PathWord(p6, sigma.chars[: len(sigma.chars) // 2])  # the x-escape half
        segs = decompose_escapes(p6, escape)
        assert len(segs) == 1 and segs[0].is_escape()
        dec = enfilade_decompose(p6, segs[0].word, 4)
        signs = {1 if m > 0 else -1 for m in dec.exponents if m}
        assert len(signs) <= 1
        assert dec.reassemble().chars == segs[0].word.chars


def test_enfilade_end_dominance(p6):
    # |gamma'_n| >= (R - 3)/R * |gamma| on 1-biLipschitz enfilade inputs
    from fractions import Fraction

    cases = [
        PathWord(p6, parse_word("s a^5 s^-1")),
        PathWord(p6, parse_word("s^-1 a s a^9 s^-1 a^-1 s")),
        PathWord(p6, "s" + snowflake_path(p6, 2, "s").chars + "S"),
    ]
    for R in (Fraction(4), Fraction(7, 2), Fraction(5)):
        for w in cases:
            dec = enfilade_decompose(p6, w, R)
            assert dec.end.length >= (R - 3) / R * w.length


def test_enfilade_rejects_bad_inputs(p6):
    with pytest.raises(ValueError):
        enfilade_decompose(p6, PathWord(p6, "aaa"), 4)  # toral, not an escape
    with pytest.raises(ValueError):
        enfilade_decompose(p6, PathWord(p6, parse_word("s a^5 s^-1")), 2)  # R <= 2
    with pytest.raises(ValueError):
        # two escapes, not one
        enfilade_decompose(p6, snowflake_path(p6, 1, "s"), 4)


# ---------------------------------------------------------------------------
# loop verification


def test_snowflake_loops_are_geodesic(p6):
    assert verify_geodesic_loop(p6, snowflake_loop(p6, 1))
    assert verify_geodesic_loop(p6, snowflake_loop(p6, 2))


def test_backtrack_loop_is_not_geodesic(p6):
    loop = PathWord(p6, "a" * 12 + "A" * 12)
    report = verify_geodesic_loop(p6, loop)
    assert not report
    assert report.witness == (0, 12) and report.distance == 8  # |a^12| = 8
    assert verify_geodesic_loop(p6, snowflake_loop(p6, 1)).witness is None


def test_length_two_loop_is_not_geodesic(p6):
    # the loop retraces its only edge; its two vertices are at distance 1
    for word in ("sS", "aA", "Tt"):
        report = verify_geodesic_loop(p6, PathWord(p6, word))
        assert not report and report.witness is None and report.distance is None, word
    assert verify_geodesic_loop(p6, PathWord(p6, ""))


def test_verify_loop_searches_to_half_less_two(p6, monkeypatch):
    # d has the parity of |loop|/2 = h, so the searches and the line table
    # stop at h - 2; the witness and distance are those of searching to
    # h - 1.  A loop of length 2 is answered before any table is built.
    from snowflake_groups import paths

    line_table, tree_dist, reaches, caps = paths._line_table, paths._tree_dist, [], []

    def record_table(L, c):
        reaches.append(c)
        return line_table(L, c)

    def record_search(L, table, key, cap):
        caps.append(cap)
        return tree_dist(L, table, key, cap)

    monkeypatch.setattr(paths, "_line_table", record_table)
    monkeypatch.setattr(paths, "_tree_dist", record_search)
    cases = [
        (parse_word("a^20 a^-20"), (False, (0, 20), 12)),
        (parse_word("a^12 a^-12"), (False, (0, 12), 8)),
        *((snowflake_loop(p6, n).chars, (True, None, None)) for n in (1, 2, 3)),
    ]
    for chars, expected in cases:
        reaches.clear()
        caps.clear()
        report = verify_geodesic_loop(p6, PathWord(p6, chars))
        assert (report.geodesic, report.witness, report.distance) == expected
        half = len(chars) // 2
        assert reaches == [half - 2] and set(caps) == {half - 2}
        if report.geodesic:
            assert len(caps) == half
    reaches.clear()
    assert not verify_geodesic_loop(p6, PathWord(p6, "sS")) and reaches == []


def test_tree_dist_rules_out_a_cap_of_the_other_parity(p6, ball6_r6):
    # a, s, t -> 1 is a homomorphism to Z/2 for even L, so |g| has the
    # parity of g and searching to c rules out no more than searching to
    # c - 1 when c has the other parity
    import random

    rng = random.Random(2701)
    keys = rng.sample(sorted(ball6_r6.distances), 300)
    table = hnn_group._line_table(6, 8)
    for key in keys:
        parity = GroupElement(p6, key).parity()
        assert parity == ball6_r6.distances[key] % 2, key
        searched = [hnn_group._tree_dist(6, table, key, c) for c in range(9)]
        for c in range(1, 9):
            if c % 2 != parity:
                assert searched[c] == searched[c - 1], (key, c)


def test_non_geodesic_loop_stops_early(p6):
    # |a^20| = 12: found at the first antipodal pair
    loop = PathWord(p6, parse_word("a^20 a^-20"))
    report = verify_geodesic_loop(p6, loop)
    assert not report
    assert report.witness == (0, 20) and report.distance == 12


def test_verify_loop_reads_goals_off_the_word(p6, monkeypatch):
    # each goal g_i^-1 g_(i+h) is the word's letters i to i + h, reduced:
    # the check stores no vertex list, so it needs no prefix keys
    from snowflake_groups import paths

    def refuse(*args):
        raise AssertionError("verify_geodesic_loop stored the vertices of the loop")

    monkeypatch.setattr(paths, "prefix_keys", refuse)
    monkeypatch.setattr(PathWord, "vertex_keys", refuse)
    assert verify_geodesic_loop(p6, snowflake_loop(p6, 2))
    report = verify_geodesic_loop(p6, PathWord(p6, "a" * 12 + "A" * 12))
    assert (report.geodesic, report.witness, report.distance) == (False, (0, 12), 8)


@pytest.mark.parametrize("check", [verify_geodesic_loop, lambda p, w: loop_bilip_constant(p, w, 3)])
def test_loop_checks_refuse_open_or_weighted_words(p6, check):
    with pytest.raises(ValueError, match="not a closed loop"):
        check(p6, PathWord(p6, "aaaa"))
    with pytest.raises(ValueError, match="x/y edges"):
        check(p6, PathWord(p6, "xX"))


def test_verify_loop_budget(p6, monkeypatch):
    # the line table for cap 14 (half the loop less 2) holds 43 points, no
    # fewer than the largest layer
    loop = snowflake_loop(p6, 2)
    monkeypatch.setattr(hnn_group, "MAX_POINTS", 43)
    assert verify_geodesic_loop(p6, loop)
    monkeypatch.setattr(hnn_group, "MAX_POINTS", 40)
    with pytest.raises(BudgetExceeded) as info:
        verify_geodesic_loop(p6, loop)
    assert info.value.frontier == 43  # refused before it is stored
    monkeypatch.setattr(hnn_group, "MAX_POINTS", 20)
    with pytest.raises(BudgetExceeded) as info:
        verify_geodesic_loop(p6, loop)
    assert 20 < info.value.frontier <= 20 + 2 * 6 - 1


def test_loop_bilip_snowflake(p6):
    report = loop_bilip_constant(p6, snowflake_loop(p6, 1), 12)
    assert report.embedded and report.complete
    assert report.constant == Fraction(1)


def test_loop_bilip_mixed_geodesic_loop(p6):
    loop = PathWord(p6, "a" * 6 + invert_chars(snowflake_path(p6, 1, "s").chars))
    report = loop_bilip_constant(p6, loop, 6)
    assert report.embedded and report.constant == Fraction(1)


def test_loop_bilip_degenerate(p6):
    report = loop_bilip_constant(p6, PathWord(p6, "sS"), 2)
    assert not report.embedded
    assert report.repeated_at == (1, 0)  # edge 1 retraces edge 0
    # snowflake loop 1 read twice is back at vertex 0 after its 12 letters
    report = loop_bilip_constant(p6, PathWord(p6, snowflake_loop(p6, 1).chars * 2), 12)
    assert report == BilipReport(False, True, None, None, repeated_at=(0, 12))
    # the empty loop has no pair to measure: constant 1, with no witness
    assert loop_bilip_constant(p6, PathWord(p6, ""), 3) == BilipReport(True, True, Fraction(1), None)


def test_loop_bilip_nontrivial_constant(p6):
    # a^12 against the length-8 geodesic for a^12: the worst pair is a^6
    # against a^12 t a^-1 (loop distance 8, graph distance 4: a^6 t a^-1
    # rewrites to s a s^-1 t)
    geo = PathWord(p6, parse_word("s a^2 s^-1 t a^2 t^-1"))
    loop = PathWord(p6, "a" * 12 + invert_chars(geo.chars))
    report = loop_bilip_constant(p6, loop, 10)
    assert report.embedded and report.complete
    assert report.constant == Fraction(2)
    assert report.witness == (6, 14)


def test_loop_bilip_incomplete_under_cap(p6):
    loop = snowflake_loop(p6, 2)
    report = loop_bilip_constant(p6, loop, 3)
    assert not report.complete
    assert report.constant >= 1  # certified lower bound
    # a geodesic loop one below half: only the antipodal pairs pass the cap
    report = loop_bilip_constant(p6, snowflake_loop(p6, 1), 5)
    assert report == BilipReport(True, False, Fraction(1), (0, 2))
    # at cap 1 every pair (loop distance >= 2) is past the cap: no witness
    report = loop_bilip_constant(p6, snowflake_loop(p6, 1), 1)
    assert report == BilipReport(True, False, Fraction(1), None)


def _reference_bilip(params, loop, cap, exact):
    """loop_bilip_constant's scan of an embedded loop, searching every pair
    to min(cap, d_loop).  |g_i^-1 g_j| comes from one bidirectional search
    per distinct goal, memoized in `exact`; it runs to d_loop and never
    fails, as both arcs of the loop join g_i to g_j."""
    keys = loop.vertex_keys()[:-1]
    n = len(keys)
    best, witness, complete = Fraction(0), None, True
    for i in range(n):
        for j in range(i + 1, n):
            d_loop = min(j - i, n - (j - i))
            if d_loop <= 1:
                continue
            goal = (GroupElement(params, keys[i]).inverse() * GroupElement(params, keys[j])).key
            if goal not in exact:
                exact[goal] = bidirectional_dist(params.L, goal, d_loop)
            d = exact[goal]
            assert d is not None and d <= d_loop, (i, j)
            if d > cap:
                complete = False
            elif Fraction(d_loop, d) > best:
                best, witness = Fraction(d_loop, d), (i, j)
    return BilipReport(True, complete, best if witness else Fraction(1), witness)


@pytest.mark.parametrize(
    "word",
    [
        "a^12 t a^-2 t^-1 s a^-2 s^-1",
        "s a^2 s^-1 t a^2 t^-1 s a^-2 s^-1 t a^-2 t^-1",
        "s a s^-1 t a t^-1 a t a^-1 t^-1 s a^-1 s^-1 a^-1",
        "a^18 t a^-3 t^-1 s a^-3 s^-1",
        "s a^2 s^-1 t a^2 t^-1 a t a^-2 t^-1 s a^-2 s^-1 a^-1",
        "s a s^-1 t a t^-1 a^2 t a^-1 t^-1 s a^-1 s^-1 a^-2",
        "s a s^-1 t a t^-1 s a^-1 s^-1 t a^-1 t^-1",
        "a^6 t a^-1 t^-1 s a^-1 s^-1",
    ],
)
def test_loop_bilip_matches_pair_dist_scan(p6, word):
    # the same loop rotated, reversed and with s <-> t swapped
    chars = parse_word(word)
    swapped = chars.translate(str.maketrans("sStT", "tTsS"))
    exact = {}
    for variant in (chars, chars[5:] + chars[:5], invert_chars(chars), swapped):
        loop = PathWord(p6, variant)
        half = len(variant) // 2
        for cap in (3, half - 2, half):
            expected = _reference_bilip(p6, loop, cap, exact)
            assert loop_bilip_constant(p6, loop, cap) == expected, (variant, cap)


def test_loop_bilip_searches_a_pair_only_while_it_could_raise_the_constant(p6, monkeypatch):
    # with cap >= d_loop every pair is within its cap (both arcs join it, so
    # d <= d_loop); once best = num/den is set, a pair raises it only if
    # d <= (d_loop den - 1) // num.  |g_i^-1 g_j| has the parity of j - i,
    # so the bound drops to that parity.  A goal is searched once, and again
    # only above the cap of an earlier miss: a pair whose goal's searches
    # settle it at its bound makes no call.  The scan is replayed pair by
    # pair against the recorded calls.
    from snowflake_groups import paths

    tree_dist, calls = paths._tree_dist, []

    def record(L, table, key, cap):
        d = tree_dist(L, table, key, cap)
        calls.append((key, cap, d))
        return d

    monkeypatch.setattr(paths, "_tree_dist", record)
    cases = [
        # 159 calls and a cap sum of 567 with one search per pair to its
        # bound of either parity; 980 when every pair runs to d_loop
        ("a^12 t a^-2 t^-1 s a^-2 s^-1", 10, BilipReport(True, True, Fraction(2), (6, 14)), (99, 311)),
        ("a^18 t a^-3 t^-1 s a^-3 s^-1", 14, BilipReport(True, True, Fraction(13, 5), (6, 21)), (193, 613)),
        # one goal is searched again, above its first miss
        ("s a s^-1 t a t^-1 a^2 t a^-1 t^-1 s a^-1 s^-1 a^-2", 9,
         BilipReport(True, True, Fraction(4), (3, 11)), (53, 117)),
        # a cap below half the loop: the far pairs run to the cap's parity
        ("a^18 t a^-3 t^-1 s a^-3 s^-1", 7, BilipReport(True, False, Fraction(13, 5), (6, 21)), (193, 955)),
    ]
    for word, cap, report, totals in cases:
        calls.clear()
        loop = PathWord(p6, parse_word(word))
        assert loop_bilip_constant(p6, loop, cap) == report, word
        table = hnn_group._line_table(6, cap)
        n, searched, last = len(loop.chars), iter(calls), {}
        best, witness, complete = Fraction(0), None, True
        for i in range(n):
            for j in range(i + 1, n):
                d_loop = min(j - i, n - (j - i))
                if d_loop <= 1:
                    continue
                bound = min(cap, d_loop)
                if cap >= d_loop and witness is not None:
                    bound = (d_loop * best.denominator - 1) // best.numerator
                bound -= (bound - d_loop) % 2
                answer = None
                if bound >= 1:
                    key = reduce_chars(6, loop.chars[i:j])
                    searched_to, d = last.get(key, (0, None))  # the goal's last search
                    if d is None and searched_to < bound:  # unsettled: the next call is this pair's
                        got, got_cap, d = next(searched)
                        assert got == key and got_cap <= bound and (got_cap - d_loop) % 2 == 0, (i, j)
                        assert got_cap > searched_to, (i, j)  # again only above an earlier miss
                        last[key] = got_cap, d
                    answer = d if d is not None and d <= bound else None
                    assert answer == tree_dist(6, table, key, bound), (word, i, j, bound)
                if answer is None:
                    complete = complete and cap >= d_loop
                elif Fraction(d_loop, answer) > best:
                    best, witness = Fraction(d_loop, answer), (i, j)
        assert next(searched, None) is None, word
        assert BilipReport(True, complete, best, witness) == report, word
        assert (len(calls), sum(c for _, c, _ in calls)) == totals, word
