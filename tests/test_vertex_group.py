"""Distances, geodesic expressions and words, and line geometry in H."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowflake_groups import (
    GroupParams,
    HPoint,
    closest_points_on_a_line,
    dist_a_power,
    dist_h,
    dist_table,
    geodesic_expression,
    geodesic_word_a_power,
    geodesic_word_h,
    project_to_x_line,
    reduce_word,
    xy_line_intersection,
)
from snowflake_groups import vertex_group
from snowflake_groups.hnn_group import reduce_chars
from snowflake_groups.vertex_group import (
    BudgetExceeded,
    _a_ball,
    _geodesic_chars,
    _h_route,
    _routes,
    _scan,
    _splits,
)
from snowflake_groups.words import power_chars


def test_params_examples():
    p = GroupParams(6)
    assert p.alpha == pytest.approx(math.log2(6))
    assert p.C == 26  # 2 + max(24, 3^1.5)
    p = GroupParams(10)
    assert p.alpha == pytest.approx(3.3219, abs=1e-4)
    assert p.C == 34  # 2 + max(32, 5^1.5)


@pytest.mark.parametrize("bad", [5, 4, 7, 0, -6, 9])
def test_params_rejects_bad_l(bad):
    with pytest.raises(ValueError):
        GroupParams(bad)


@pytest.mark.parametrize("gen", ["s", "t", "A", ""])
def test_dist_power_refuses_other_generators(p6, gen):
    with pytest.raises(ValueError) as info:
        HPoint.generator(p6, gen, 3)
    assert str(info.value) == f"not an H generator: {gen!r}"


def test_dist_a_power_examples(p6, p10):
    assert dist_a_power(p10, 9) == 7  # 6 + L - 9
    assert dist_a_power(p10, 20) == 8  # 4 + 2|a^2|
    assert dist_a_power(p6, 0) == 0
    assert dist_a_power(p6, 11) == 9  # min(|a^6|+5, |a^12|+1)
    assert dist_a_power(p10, 36) == 16  # witness sequence instance


def test_dist_a_power_snowflake_lengths(p6, p10):
    # |a^(L^n)| = 5 * 2^n - 4
    for params in (p6, p10):
        for n in range(1, 8):
            assert dist_a_power(params, params.L**n) == 5 * 2**n - 4


def test_dist_power_examples(p6, p10):
    for m in (-37, -6, 0, 1, 36, 10**40 + 3):
        assert dist_h(p6, HPoint.generator(p6, "a", m)) == dist_a_power(p6, m), m
    assert dist_h(p6, HPoint(0, 1)) == 3
    assert dist_h(p6, HPoint.generator(p6, "y", 1)) == 3
    assert dist_h(p6, HPoint.generator(p6, "y", 0)) == 0
    assert dist_h(p10, HPoint(0, 20)) == 10


def test_dist_h_examples(p6, p10):
    assert dist_h(p6, HPoint(6, 0)) == 6  # x y = a^6
    assert dist_h(p6, HPoint(0, 0)) == 0
    assert dist_h(p6, HPoint(0, 2)) == 4  # |x^2| = 2 + |a^2|
    assert dist_h(p10, HPoint(12, 0)) == 8


def test_dist_h_matches_dist_a_on_a_line(p6, p10):
    for params in (p6, p10):
        for m in range(-60, 61):
            assert dist_h(params, HPoint(m, 0)) == dist_a_power(params, m)


def test_hpoint_conversion_law(p6):
    # (l, m, n) -> (l + Ln, m - n)
    assert HPoint.from_xyz(p6, 1, 2, 3) == HPoint(19, -1)
    assert HPoint.from_xyz(p6, 0, 1, 1) == HPoint(6, 0)
    y = HPoint.generator(p6, "y", 1)
    x = HPoint.generator(p6, "x", 1)
    assert x * y == HPoint(6, 0)


def test_dist_table_matches_recursion(p6, p10):
    for params in (p6, p10):
        table = dist_table(params, 500)
        for m in range(501):
            assert table[m] == dist_a_power(params, m)


def _reference_dist_a(L):
    """|a^m| by the recursive guard DP with a memo: the reference oracle."""
    memo = {}

    def dist(m):
        if m <= 3 + L // 2:
            return m
        if m <= L:
            return 6 + L - m
        if m not in memo:
            q, r = divmod(m, L)
            val = 4 + 2 * dist(q)
            if r:
                val = min(val + r, 4 + 2 * dist(q + 1) + L - r)
            memo[m] = val
        return memo[m]

    def expr_digits(m):
        if m <= L // 2 + 2:
            return [m]
        q, r = divmod(m, L)
        len_low = (4 + 2 * dist(q) if q else 0) + r
        len_high = 4 + 2 * dist(q + 1) + (L - r)
        if len_low < len_high or (len_low == len_high and r <= L // 2):
            assert q > 0
            return [r] + expr_digits(q)
        return [r - L] + expr_digits(q + 1)

    return dist, expr_digits


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_dist_a_power_matches_reference_on_large_m(L):
    params = GroupParams(L)
    dist, expr_digits = _reference_dist_a(L)
    rng = random.Random(f"large-m-{L}")
    for _ in range(500):
        m = rng.randrange(1, 10**300)
        assert dist_a_power(params, m) == dist_a_power(params, -m) == dist(m), m
        assert geodesic_expression(params, m).digits == tuple(expr_digits(m)), m


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_dist_a_power_matches_table_and_reference(L):
    params = GroupParams(L)
    dist, expr_digits = _reference_dist_a(L)
    table = dist_table(params, 2 * 10**5)
    for m in range(2 * 10**5 + 1):
        assert dist_a_power(params, m) == table[m] == dist(m), m
    for m in range(1, 30_000):
        assert geodesic_expression(params, m).digits == tuple(expr_digits(m)), m


@pytest.mark.parametrize("L", [6, 8, 10, 12, 14, 10**30])
def test_scan_step_is_the_guard_routes(L):
    # one step of _scan from the prefix p to m = pL + r is the specialisation
    # of _routes at hi = lo + e: the shorter route, and the e of m; the run
    # turns where _routes says
    dist, _ = _reference_dist_a(L)
    if L < 100:
        prefixes, residues = range(1, 4 * L), range(L)
    else:
        prefixes = [1, 2, 7, L // 2, L // 2 + 3, L // 2 + 4, L - 5, L - 1, L, L + 1, 3 * L + 7, L * L - 1]
        rng = random.Random("scan-step")
        residues = sorted({0, 1, L // 2 - 2, L // 2 - 1, L // 2, L // 2 + 1, L // 2 + 2, L - 1, *(rng.randrange(L) for _ in range(200))})
    steps = set()
    for p in prefixes:
        lo, e = dist(p), dist(p + 1) - dist(p)
        steps.add(e)
        for r in residues:
            low, high, k = _routes(L, lo, lo + e)
            low, high = low + r, high - r  # the routes to a^(pL + r)
            assert (low < high) == (r < k), (p, r)  # the run climbs below k
            _, cuts, got = _scan(L, p * L + r)
            assert (got, cuts[-1] - L // 2) == (min(low, high), min(low + 1, high - 1) - min(low, high)), (p, r)
    assert steps == {1, -1}


@pytest.mark.parametrize("L", [6, 8, 10, 12, 14])
def test_dist_a_and_expression_match_reference_below_L_cubed(L):
    # every top digit on both sides of L/2 + 2, and every carry into r = L
    params = GroupParams(L)
    dist, expr_digits = _reference_dist_a(L)
    assert dist_a_power(params, 0) == 0
    for m in range(1, L**3 + 2 * L):
        assert dist_a_power(params, m) == dist_a_power(params, -m) == dist(m), m
        assert geodesic_expression(params, m).digits == tuple(expr_digits(m)), m


@pytest.mark.parametrize("L", [6, 12])
def test_h_route_matches_brute_minimum_near_zero(L):
    # |a^u x^v| and the route (d, q, p) that geodesic_word_h spells, against
    # a brute minimum over _splits; mixed signs put q = -1 and v + q in {-1, 0}
    params = GroupParams(L)
    dist, _ = _reference_dist_a(L)

    def g(k):
        return 2 + dist(abs(k)) if k else 0

    corners = ties = 0
    for u in range(-3 * L, L + 1):
        for v in range(-3, 4):
            routes = [(abs(p) + g(v + q) + g(q), q, p) for q, p in _splits(L, u)]
            d, q, p = min(routes)
            assert _h_route(L, u, v) == (d, q, p), (u, v)
            assert dist_h(params, HPoint(u, v)) == d
            spelled = _geodesic_chars(params, "x", v + q) + _geodesic_chars(params, "y", q) + power_chars("a", p)
            assert geodesic_word_h(params, HPoint(u, v)).chars == spelled, (u, v)
            corners += q == -1 and v + q in (-1, 0)
            ties += len(routes) == 2 and routes[0][0] == routes[1][0]
    assert corners and ties


def test_dist_table_short(p6, p10):
    assert dist_table(p6, 0) == [0]
    assert dist_table(p6, 1) == [0, 1]
    assert dist_table(p10, 11) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 7]


@pytest.mark.parametrize("L", [6, 8, 12, 100, 1000, 10**6, 10**30])
def test_dist_table_matches_dist_a_at_every_cut(L):
    # each m_max of the first runs, then one that ends in the middle of a
    # run; at L = 1000 one of 200 runs, whose distinct runs outgrow a step
    # (65 runs), so the run dict is emptied once; at L = 10^6 and 10^30
    # only the first 40 lengths, which must cost nothing in L
    params = GroupParams(L)
    for m_max in range(3 * L if L <= 100 else 40):
        assert dist_table(params, m_max) == [dist_a_power(params, m) for m in range(m_max + 1)], m_max
    if L <= 1000:
        m_max = 3000 * L + L // 2 if L <= 100 else 200 * L
        assert dist_table(params, m_max) == [dist_a_power(params, m) for m in range(m_max + 1)]


def test_dist_table_shares_its_lengths(p6):
    # every entry is one of a pool of ints, one object per distinct length
    table = dist_table(p6, 10**5)
    assert len({id(d) for d in table}) <= max(table) + 1


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_a_ball_matches_dist_table(L):
    # S(r) = {m >= 0 : |a^m| <= r} against a scan; |a^m| >= m^(1/alpha),
    # so S(39) lies below 39^alpha
    params = GroupParams(L)
    table = dist_table(params, int(39**params.alpha) + 1)
    for r in range(-1, 40):
        assert _a_ball(L, r, 10**6) == {m: d for m, d in enumerate(table) if d <= r}, r
    with pytest.raises(BudgetExceeded) as info:
        _a_ball(L, 39, 100)
    assert 100 < info.value.frontier <= 100 + 2 * L - 1


def _a_ball_per_entry(L, r):
    """S(r) as _a_ball reads it, one entry of each run of L at a time."""
    if r < 0:
        return {}
    level = _a_ball_per_entry(L, (r - 4) // 2)
    out = {}
    for q in sorted({0, *level, *(k - 1 for k in level if k)}):
        lo, hi = (level.get(q, r + 1), level.get(q + 1, r + 1)) if q else (0, 1)
        low, high, _ = _routes(L, lo, hi)
        for i in range(L):
            d = low + i if low + i < high - i else high - i
            if d <= r:
                out[q * L + i] = d
    return out


@pytest.mark.parametrize("L", [6, 8, 12, 1000])
def test_a_ball_matches_per_entry_reference(L):
    for r in range(-1, 41):
        assert list(_a_ball(L, r, 10**6).items()) == list(_a_ball_per_entry(L, r).items()), r


def _rebase(m, L, base):
    """m >= 0 with its balanced base-L digits (-L/2 < d <= L/2) read in base."""
    out, place = 0, 1
    while m:
        d = m % L
        d -= L if 2 * d > L else 0
        out, place, m = out + d * place, place * base, (m - d) // L
    return out


def test_a_ball_at_huge_L():
    # for L far above r, S(r) keeps its balanced digits as L grows: S(r) at
    # L = 10^30, read in a few runs of a few points each, is S(r) at L = 1000
    big = 10**30
    params = GroupParams(big)
    for r in range(41):
        ball = _a_ball(big, r, 10**6)
        assert ball == {_rebase(m, 1000, big): d for m, d in _a_ball(1000, r, 10**6).items()}, r
        assert all(dist_a_power(params, m) == d for m, d in ball.items()), r


def test_oracle_equivalence_small_ball(p6, ball6_r6):
    seen = 0
    for h, d in ball6_r6.h_elements():
        assert dist_h(p6, h) == d
        seen += 1
    assert seen > 20


@settings(max_examples=150, deadline=None)
@given(m=st.integers(min_value=-(10**9), max_value=10**9))
def test_dist_symmetry(m):
    params = GroupParams(6)
    assert dist_a_power(params, m) == dist_a_power(params, -m)
    assert dist_h(params, HPoint(0, m)) == dist_h(params, HPoint.generator(params, "y", m))


@settings(max_examples=100, deadline=None)
@given(ell=st.integers(min_value=-(10**6), max_value=10**6))
def test_dist_unit_steps(ell):
    params = GroupParams(8)
    assert abs(dist_a_power(params, ell) - dist_a_power(params, ell + 1)) == 1


@settings(max_examples=100, deadline=None)
@given(q=st.integers(min_value=1, max_value=10**6))
def test_dist_multiple_steps(q):
    params = GroupParams(10)
    d1 = dist_a_power(params, q * 10)
    d2 = dist_a_power(params, (q + 1) * 10)
    assert abs(d1 - d2) == 2


@settings(max_examples=120, deadline=None)
@given(
    u1=st.integers(-3000, 3000),
    v1=st.integers(-8, 8),
    u2=st.integers(-3000, 3000),
    v2=st.integers(-8, 8),
)
def test_dist_h_triangle_inequality(u1, v1, u2, v2):
    params = GroupParams(6)
    h1, h2 = HPoint(u1, v1), HPoint(u2, v2)
    assert dist_h(params, h1 * h2) <= dist_h(params, h1) + dist_h(params, h2)


def test_distortion_bounds_sampled(p6, p10):
    for params in (p6, p10):
        for m in list(range(1, 2000)) + [10**6, 10**9 + 7]:
            r = dist_a_power(params, m) / params.root(m)
            assert 1 <= r < params.C
            if m > 1:
                assert r > 1


# ---------------------------------------------------------------------------
# geodesic expressions


def test_expression_examples(p6, p10):
    e = geodesic_expression(p10, 36)
    assert e.digits == (-4, 4)
    assert e.path_length() == 16 == dist_a_power(p10, 36)
    e = geodesic_expression(p6, 5)
    assert e.digits == (5,) and e.path_length() == 5
    e = geodesic_expression(p10, 100)
    assert e.digits == (0, 0, 1)
    assert e.path_length() == 16 == dist_a_power(p10, 100)


def test_expression_rejects_zero(p6):
    with pytest.raises(ValueError):
        geodesic_expression(p6, 0)


def _check_digit_bounds(params, e, m):
    digits = e.digits if m > 0 else tuple(-d for d in e.digits)
    top = digits[-1]
    assert 0 < top <= params.L // 2 + 2
    assert all(abs(d) <= params.L // 2 for d in digits[:-1])


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_expression_soundness_range(L):
    params = GroupParams(L)
    for m in list(range(1, 1500)) + [L**6 + 3, -(L**5) + 17, 10**7 + 1]:
        for mm in (m, -m):
            e = geodesic_expression(params, mm)
            assert e.value() == mm
            assert e.path_length() == dist_a_power(params, mm)
            _check_digit_bounds(params, e, mm)
            j = len(e.digits) - 1
            if j >= 1:
                assert abs(j - math.log(abs(mm)) / math.log(L)) < 1
                assert 5 * 2**j - 4 <= e.path_length() <= (L + 6) * 2**j - 4


def test_geodesic_word_a_power_examples(p6, p10):
    w = geodesic_word_a_power(p6, 6)
    assert str(w) == "s a s^-1 t a t^-1"
    assert w.length == 6
    assert str(geodesic_word_a_power(p6, 1)) == "a"
    w = geodesic_word_a_power(p10, 36)
    assert w.length == 16
    assert reduce_chars(p10.L, w.chars) == HPoint(36, 0)
    assert geodesic_word_a_power(p6, 0).chars == ""


def test_geodesic_word_refused_past_max_letters(p6, monkeypatch):
    # refused from its length, before it is spelled
    with pytest.raises(ValueError, match="longer than 10000000 letters"):
        geodesic_word_a_power(p6, 10**21)  # |a^(10^21)| = 734426360
    with pytest.raises(ValueError, match="longer than 10000000 letters"):
        geodesic_word_h(p6, HPoint(0, 10**21))
    # x- and y-escapes of 6 310 082 and 4 900 002 letters: each within the
    # limit, the word of 11 210 084 letters not
    h = HPoint(12955520674908624, 2159253445818104)
    assert dist_h(p6, h) == 11_210_084
    with pytest.raises(ValueError, match="longer than 10000000 letters"):
        geodesic_word_h(p6, h)
    # a^(2 * 10^7) is one digit at L = 10^8: no doubling, its length is checked
    with pytest.raises(ValueError, match="longer than 10000000 letters"):
        geodesic_word_a_power(GroupParams(10**8), 2 * 10**7)
    monkeypatch.setattr(vertex_group, "MAX_LETTERS", 16)
    assert geodesic_word_a_power(p6, 36).length == 16  # at the limit
    assert geodesic_word_a_power(GroupParams(100), 16).length == 16  # one digit
    for params, m in ((p6, 37), (GroupParams(100), 17)):  # |a^m| = 17
        with pytest.raises(ValueError, match="longer than 16 letters"):
            geodesic_word_a_power(params, m)


@pytest.mark.parametrize("L", [6, 10])
def test_geodesic_word_a_power_sound(L):
    params = GroupParams(L)
    for m in list(range(-300, 301)) + [L**4 + 7, -(L**3) - 11]:
        w = geodesic_word_a_power(params, m)
        assert w.length == dist_a_power(params, m)
        assert reduce_chars(L, w.chars) == HPoint(m, 0)


def test_geodesic_word_h_examples(p6, p10):
    w = geodesic_word_h(p6, HPoint(0, 1))
    assert str(w) == "s a s^-1" and w.length == 3
    assert geodesic_word_h(p6, HPoint(0, 0)).chars == ""
    w = geodesic_word_h(p10, HPoint(12, 0))
    assert w.length == 8
    assert reduce_chars(p10.L, w.chars) == HPoint(12, 0)
    # passes through x y before the a-tail
    assert w.chars.startswith("s")


def test_geodesic_word_h_escape_shape(p6):
    # x-escape, then y-escape, then an a-path shorter than L
    # (exponent below L except the small-L corner cases)
    for u in range(-40, 41):
        for v in range(-4, 5):
            w = geodesic_word_h(p6, HPoint(u, v))
            assert w.length == dist_h(p6, HPoint(u, v))
            assert reduce_chars(p6.L, w.chars) == HPoint(u, v)
            # the trailing a-run is short except the documented corner cases
            run = 0
            for ch in reversed(w.chars):
                if ch in ("a", "A"):
                    run += 1
                else:
                    break
            if abs(u) > 10 or v != 0:
                assert run < p6.L or w.chars[0] in "st"


def test_l6_corner_cases_prefer_escapes(p6):
    # |a^l| = l for l <= 10, but the emitted geodesic uses escapes once l >= 6
    for ell in range(6, 11):
        w = geodesic_word_h(p6, HPoint(ell, 0))
        assert w.length == ell == dist_a_power(p6, ell)
        assert w.chars.startswith("s")


# ---------------------------------------------------------------------------
# lines, intersections, projections


def test_closest_points_examples(p6):
    assert closest_points_on_a_line(p6, HPoint(0, 1)) == (HPoint(0, 0), HPoint(6, 0))
    assert closest_points_on_a_line(p6, HPoint(3, 1)) == (HPoint(3, 0), HPoint(9, 0))
    with pytest.raises(ValueError):
        closest_points_on_a_line(p6, HPoint(5, 0))


def test_closest_points_equidistant(p6):
    for u in range(-12, 13, 3):
        for v in (-2, -1, 1, 2):
            h = HPoint(u, v)
            pa, pb = closest_points_on_a_line(p6, h)
            da = dist_h(p6, h.inverse() * pa)
            db = dist_h(p6, h.inverse() * pb)
            assert da == db
            # and nothing on <a> is closer
            best = min(dist_h(p6, h.inverse() * HPoint(k, 0)) for k in range(u - 40, u + 41))
            assert best == da


def test_xy_line_intersection_examples(p6):
    assert xy_line_intersection(p6, HPoint(2, 0)) == (-2, HPoint(0, 0))
    assert xy_line_intersection(p6, HPoint(0, 0)) == (0, HPoint(0, 0))
    # tie |3| = |-3| broken toward positive ell
    assert xy_line_intersection(p6, HPoint(3, 0)) == (3, HPoint(0, 1))


def test_xy_line_intersection_is_intersection(p6, p10):
    for params in (p6, p10):
        for u in range(-15, 16):
            for v in range(-2, 3):
                h = HPoint(u, v)
                ell, pt = xy_line_intersection(params, h)
                assert abs(ell) <= params.L // 2
                # pt lies on <x>
                assert pt.u == 0
                # and on h a^ell <y>: (h a^ell)^-1 pt is a y-power
                diff = (h * HPoint(ell, 0)).inverse() * pt
                assert diff.as_power(params)[0] in ("y", "a")


def test_project_to_x_line(p6, p10):
    assert project_to_x_line(p6, 6) == HPoint(0, 1)
    assert project_to_x_line(p6, 0) == HPoint(0, 0)
    assert project_to_x_line(p10, -20) == HPoint(0, -2)
    with pytest.raises(ValueError):
        project_to_x_line(p6, 7)


def test_projection_is_closest(p6):
    for q in range(-5, 6):
        p = 6 * q
        proj = project_to_x_line(p6, p)
        dp = dist_h(p6, HPoint(-p, 0) * proj)
        for k in range(q - 8, q + 9):
            d = dist_h(p6, HPoint(-p, 0) * HPoint(0, k))
            assert d >= dp
            if k != proj.v:
                assert d > dp  # uniqueness


def test_plane_lower_bound(p6, p10):
    # |a^l x^m y^n| >= |m+q|^(1/alpha) + |n+q|^(1/alpha) - 5
    for params in (p6, p10):
        L = params.L
        for ell in range(-3 * L, 3 * L + 1, 3):
            for m in range(-6, 7, 2):
                for n in range(-6, 7, 3):
                    h = HPoint.from_xyz(params, ell, m, n)
                    d = dist_h(params, h)
                    for q in {ell // L, ell // L + 1}:
                        r = ell - q * L
                        if abs(r) < L:
                            bound = params.root(m + q) + params.root(n + q) - 5
                            assert d >= bound - 1e-9
