"""Acceptance criteria, one test per criterion.

Each test prints a single `[acceptance N] PASS ...` line (visible with
pytest -s; a failed assertion fails the test).  Tolerances are pinned
here and nowhere else: exact integer equality unless a float tolerance is
stated inline.
"""

import random
import time

from snowflake_groups import (
    GroupParams,
    HPoint,
    bfs_ball,
    dist_a_power,
    dist_h,
    dist_table,
    eq42_limit,
    fill_bigon,
    fill_diamond,
    fill_triangle,
    find_central_region,
    gap_checks,
    geodesic_expression,
    mn_sequence,
    reduce_word,
    snowflake_hnn_tree,
    snowflake_loop,
    subdivide_snowflake,
    verify_geodesic_loop,
)
from snowflake_groups.filling import f_at_edge_point, f_at_vertex
from snowflake_groups.hnn_group import reduce_chars
from snowflake_groups.vertex_group import _expand_digits

from conftest import right_fold_key
from test_filling import jitter_pool, random_bigon, random_diamond, random_triangle


def _report(n, text):
    print(f"[acceptance {n}] PASS {text}")


def test_acceptance_1_snowflake_length_law():
    t0 = time.time()
    for L in (6, 8, 10, 12):
        params = GroupParams(L)
        for n in range(1, 21):
            assert dist_a_power(params, L**n) == 5 * 2**n - 4
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"|a^(L^n)| = 5*2^n - 4 for n=1..20, L in 6,8,10,12 ({elapsed:.2f}s)")


def test_acceptance_2_oracle_equivalence():
    t0 = time.time()
    params = GroupParams(6)
    ball = bfs_ball(params, 10)
    h_checked = 0
    for h, d in ball.h_elements():
        assert dist_h(params, h) == d
        h_checked += 1
    parity_checked = 0
    for key, d in ball.distances.items():
        p = key[0] + key[1]
        for i in range(2, len(key), 3):
            p += 1 + key[i + 1] + key[i + 2]
        assert (p - d) % 2 == 0
        parity_checked += 1
    elapsed = time.time() - t0
    _report(
        2,
        f"radius-10 ball: {h_checked} H elements match dist_h, "
        f"{parity_checked} parities match ({elapsed:.0f}s)",
    )
    assert elapsed < 60


def test_acceptance_3_geodesic_loops():
    t0 = time.time()
    params = GroupParams(6)
    loop1 = snowflake_loop(params, 1)
    loop2 = snowflake_loop(params, 2)
    loop3 = snowflake_loop(params, 3)
    assert loop1.length == 12 and loop2.length == 32 and loop3.length == 72
    assert verify_geodesic_loop(params, loop1)
    assert verify_geodesic_loop(params, loop2)
    assert verify_geodesic_loop(params, loop3)
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(
        3, f"snowflake loops 1 (12/6), 2 (32/16) and 3 (72/36) are geodesic ({elapsed:.1f}s)"
    )


def test_acceptance_4_distortion_bounds():
    t0 = time.time()
    for L in (6, 10):
        params = GroupParams(L)
        table = dist_table(params, 10**6)
        C = params.C
        root = params.root
        assert table[1] == 1 and root(1) == 1.0
        for m in range(2, 10**6 + 1):
            r = table[m] / root(m)
            assert 1 + 1e-10 < r < C - 1e-10, (L, m, r)
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(4, f"1 <= |a^m|/m^(1/alpha) < C for m <= 10^6, L in 6,10 ({elapsed:.0f}s)")


def test_acceptance_5_witness_sequence():
    for L in (6, 10):
        params = GroupParams(L)
        for row in mn_sequence(params, 25):
            assert row.dist == row.predicted
    params10 = GroupParams(10)
    rows = mn_sequence(params10, 40)
    assert abs(rows[40].ratio - eq42_limit(params10)) < 1e-3
    for L in (6, 10, 12):
        report = gap_checks(GroupParams(L))
        assert report.gap_ratio > (L + 6) / 10
    _report(5, "m_n closed form exact to n=25; ratio(40) within 1e-3; gap checks hold")


def test_acceptance_6_geodesic_expressions():
    t0 = time.time()
    params = GroupParams(10)
    L = params.L
    table = dist_table(params, 10**5)
    for m in range(1, 10**5 + 1):
        e = geodesic_expression(params, m)
        assert e.path_length() == table[m], m
        digits = e.digits
        assert 0 < digits[-1] <= L // 2 + 2, m
        assert all(abs(d) <= L // 2 for d in digits[:-1]), m
        chars = _expand_digits(digits)
        assert len(chars) == table[m], m
        assert reduce_chars(L, chars) == (m, 0), m
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(6, f"expressions+words sound for m <= 10^5 at L=10 ({elapsed:.0f}s)")


def test_acceptance_7_filling_primitives():
    t0 = time.time()
    params = GroupParams(6)
    C, a, L = params.C, params.alpha, params.L
    max_exp, max_parts = L * L, 2 * L  # E <= 36, segments <= 12
    jitters = jitter_pool(params, 2) + [HPoint(0, 0)] * 4
    violations = 0

    def check(diagram, subs, lam, E, D, area_bound, mesh_bound, exp_bound):
        nonlocal violations
        ok = (
            diagram.area <= area_bound
            and diagram.mesh <= mesh_bound
            and diagram.boundaries_trivial()
            and all(len(s.exponents) <= lam for s in subs)
            and all(s.max_exponent() <= exp_bound for s in subs)
        )
        if not ok:
            violations += 1

    rng = random.Random("acceptance-7")
    for _ in range(200):
        poly, split = random_bigon(params, rng, max_exp, max_parts, jitters)
        assert poly.D <= 5
        E = max(max(abs(e) for e in split), 1)
        diagram, sub = fill_bigon(params, poly, split)
        check(
            diagram, [sub], len(split), E, poly.D,
            len(split),
            2 * (2 * C + 1) * poly.D + 2 * C * E ** (1 / a),
            E + L * poly.D**a,
        )
    for _ in range(200):
        poly, split = random_triangle(params, rng, max_exp, max_parts, jitters)
        assert poly.D <= 5
        E = max(max(abs(e) for e in split), 1)
        lam = len(split)
        diagram, sx, sy = fill_triangle(params, poly, split)
        check(
            diagram, [sx, sy], lam, E, poly.D,
            (lam * lam + 9 * lam + 6) / 2,
            4 * C + (6 * C + 2) * poly.D + 2 * C * E ** (1 / a),
            1 + E / L + poly.D**a,
        )
    for _ in range(200):
        poly, sub_x, sub_y = random_diamond(params, rng, max_exp, max_parts, jitters)
        assert poly.D <= 5
        E = max(max(abs(e) for e in sub_x + sub_y), 1)
        lam = max(len(sub_x), len(sub_y))
        diagram, s2, s3 = fill_diamond(params, poly, sub_x, sub_y)
        check(
            diagram, [s2, s3], lam, E, poly.D,
            lam * lam + 4 * lam + 4,
            3 * L + (8 * C + 2) * poly.D + 4 * C * E ** (1 / a),
            E + 2 * L * poly.D**a,
        )
    elapsed = time.time() - t0
    assert violations == 0
    _report(7, f"600 random fillings satisfy the stated bounds ({elapsed:.0f}s)")


def test_acceptance_8_snowflake_subdivision():
    params = GroupParams(6)
    counts = set()
    for p in range(4, 8):
        diagram = subdivide_snowflake(params, p, 6)
        half = 5 * 2**p - 4
        assert diagram.mesh <= half
        assert diagram.boundaries_trivial()
        counts.add(diagram.area)
    assert len(counts) == 1
    count = counts.pop()
    assert count <= 10 * 6**3
    _report(8, f"p=4..7 subdivisions: cells <= half the loop, stable count {count}")


def test_acceptance_9_central_region():
    params = GroupParams(6)
    for p in range(1, 8):
        tree = snowflake_hnn_tree(params, p)
        loc = find_central_region(tree)
        assert loc.kind == "vertex" and loc.node == "center"
        assert loc.f_value <= 0
        from fractions import Fraction

        for v in tree.arcs:
            if v != "center":
                assert f_at_vertex(tree, v) > 0
        for a, b, length in tree.edges:
            assert f_at_edge_point(tree, (a, b), Fraction(length, 2)) > 0
    _report(9, "central region is the central diamond, unique, for p = 1..7")


def test_acceptance_10_normal_form_engine():
    t0 = time.time()
    params = GroupParams(6)
    rng = random.Random("acceptance-10")
    alphabet = "aAsStT"
    failures = 0
    words = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        for _ in range(10_000)
    ]
    for w in words:
        gl = reduce_word(params, w)
        if gl.key != right_fold_key(params.L, w) or not (gl * gl.inverse()).is_identity():
            failures += 1
    for _ in range(2_000):
        g1, g2, g3 = (
            reduce_word(params, rng.choice(words)) for _ in range(3)
        )
        if ((g1 * g2) * g3).key != (g1 * (g2 * g3)).key:
            failures += 1
    elapsed = time.time() - t0
    assert failures == 0
    _report(10, f"10^4 words: confluence, inverses, associativity ({elapsed:.0f}s)")
