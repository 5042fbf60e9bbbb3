"""Snapping, the primitive fillings, snowflake subdivision, dual trees."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from snowflake_groups import (
    ApproxPolygon,
    GroupParams,
    HnnDualTree,
    HPoint,
    InvariantViolation,
    area_budget,
    dist_h,
    fill_bigon,
    fill_diamond,
    fill_triangle,
    filling,
    find_central_region,
    geodesic_word_h,
    snap_diamond,
    snap_triangle,
    snowflake_hnn_tree,
    subdivide_snowflake,
)
from snowflake_groups.filling import (
    _bigon_cells,
    _corner_paths,
    _round_to_multiples,
    cap_depth,
    f_at_edge_point,
    f_at_vertex,
    polygon_from_json,
)
from snowflake_groups import words
from snowflake_groups.hnn_group import reduce_chars
from snowflake_groups.vertex_group import _geodesic_chars
from snowflake_groups.words import PathWord, free_reduce, invert_chars

from conftest import reference_free_reduce


def fpoint(params, flavor, k):
    if k == 0:
        return HPoint(0, 0)
    return HPoint.generator(params, flavor, k)


# ---------------------------------------------------------------------------
# random polygon generation (jittered true polygons)


def jitter_pool(params, radius):
    """All h in H with |h| <= radius (small radius)."""
    pool = []
    for u in range(-radius - 2 * params.L, radius + 2 * params.L + 1):
        for v in range(-3, 4):
            if dist_h(params, HPoint(u, v)) <= radius:
                pool.append(HPoint(u, v))
    return pool


def random_split(rng, total, max_parts, max_exp):
    """A same-sign split of `total` into at most max_parts parts of size <= max_exp."""
    sign = 1 if total >= 0 else -1
    left = abs(total)
    need = -(-left // max_exp) if left else 1  # ceil
    k = rng.randint(max(1, need), max_parts)
    parts = [0] * k
    for i in range(k):
        room = left - (k - 1 - i) * 0  # remaining slots may take zero
        hi = min(max_exp, left)
        lo = max(0, left - (k - 1 - i) * max_exp)
        parts[i] = rng.randint(lo, hi)
        left -= parts[i]
    assert left == 0
    rng.shuffle(parts)
    return [sign * p for p in parts]


def measured_polygon(params, kind, corners, flavors, exps, corner_paths=None):
    poly = ApproxPolygon(kind, corners, flavors, exps, 0, corner_paths)
    D = max(poly.gaps(params))
    if corner_paths is not None:
        D = max(D, max(cp.length for cp in corner_paths))
    return ApproxPolygon(kind, corners, flavors, exps, D, corner_paths)


def random_bigon(params, rng, max_exp, max_parts, jitters):
    flavor = rng.choice("axy")
    split = random_split(rng, rng.choice([-1, 1]) * rng.randint(1, max_parts * max_exp), max_parts, max_exp)
    m0 = sum(split)
    g0 = HPoint(rng.randint(-20, 20), rng.randint(-2, 2))
    g1 = g0 * fpoint(params, flavor, m0) * rng.choice(jitters)
    g0j = g0 * rng.choice(jitters)
    poly = measured_polygon(params, "bigon", (g0j, g1), (flavor, flavor), (m0, -m0))
    return poly, split


def random_triangle(params, rng, max_exp, max_parts, jitters):
    L = params.L
    m = rng.choice([-1, 1]) * rng.randint(1, max_parts * max_exp // L)
    g0 = HPoint(rng.randint(-20, 20), rng.randint(-2, 2))
    g1 = g0 * fpoint(params, "x", m)
    g2 = g1 * fpoint(params, "y", m)
    corners = tuple(g * rng.choice(jitters) for g in (g0, g1, g2))
    poly = measured_polygon(params, "triangle", corners, ("x", "y", "a"), (m, m, -L * m))
    return poly, random_split(rng, -L * m, max_parts, max_exp)


def random_diamond(params, rng, max_exp, max_parts, jitters):
    m = rng.choice([-1, 1]) * rng.randint(1, max_parts * max_exp)
    n = rng.choice([-1, 1]) * rng.randint(1, max_parts * max_exp)
    g1 = HPoint(rng.randint(-20, 20), rng.randint(-2, 2))
    h1 = g1 * fpoint(params, "x", m)
    g2 = h1 * fpoint(params, "y", n)
    h2 = g2 * fpoint(params, "x", -m)
    corners = tuple(g * rng.choice(jitters) for g in (g1, h1, g2, h2))
    poly = measured_polygon(params, "diamond", corners, ("x", "y", "x", "y"), (m, n, -m, -n))
    return (
        poly,
        random_split(rng, m, max_parts, max_exp),
        random_split(rng, n, max_parts, max_exp),
    )


def subdivision_ok(params, sub, flavor, side_start, side_end):
    # the segments' exponents add up to the whole side
    assert side_start * HPoint.generator(params, flavor, sum(sub.exponents)) == side_end


# ---------------------------------------------------------------------------
# snapping


def test_snap_true_triangle_is_identity(p6):
    g0 = HPoint(3, -1)
    g1 = g0 * fpoint(p6, "x", 4)
    g2 = g1 * fpoint(p6, "y", 4)
    tri = ApproxPolygon("triangle", (g0, g1, g2), ("x", "y", "a"), (4, 4, -24), 0)
    snapped = snap_triangle(p6, tri)
    assert snapped.corners == tri.corners
    assert snapped.exponents == tri.exponents
    assert not any(snapped.gaps(p6))


def test_snap_perturbed_triangle(p6):
    g0 = HPoint(0, 0)
    g1 = HPoint(0, 1) * HPoint(1, 0)  # x shifted by a
    g2 = HPoint(6, 0)
    tri = measured_polygon(p6, "triangle", (g0, g1, g2), ("x", "y", "a"), (1, 1, -6))
    assert tri.D <= 2
    snapped = snap_triangle(p6, tri)
    assert not any(snapped.gaps(p6))
    bound = 2 * tri.D + p6.L
    for old, new in zip(tri.corners, snapped.corners):
        assert dist_h(p6, old.inverse() * new) <= bound


def test_snap_degenerate_exponent(p6):
    tri = measured_polygon(
        p6, "triangle", (HPoint(0, 0), HPoint(1, 0), HPoint(2, 0)), ("x", "y", "a"), (0, 0, 0)
    )
    snapped = snap_triangle(p6, tri)
    assert snapped.exponents == (0, 0, 0)


def test_snap_true_diamond_is_identity(p6):
    g1 = HPoint(-2, 1)
    h1 = g1 * fpoint(p6, "x", 3)
    g2 = h1 * fpoint(p6, "y", 2)
    h2 = g2 * fpoint(p6, "x", -3)
    dia = ApproxPolygon("diamond", (g1, h1, g2, h2), ("x", "y", "x", "y"), (3, 2, -3, -2), 0)
    snapped = snap_diamond(p6, dia)
    assert snapped.corners == dia.corners and snapped.exponents == dia.exponents


def test_snap_perturbed_diamond(p6):
    rng = random.Random(1)
    jit = jitter_pool(p6, 2)
    for _ in range(40):
        dia, _, _ = random_diamond(p6, rng, 6, 6, jit)
        snapped = snap_diamond(p6, dia)
        assert not any(snapped.gaps(p6))
        for old, new in zip(dia.corners, snapped.corners):
            assert 2 * dist_h(p6, old.inverse() * new) <= 2 * dia.D + 3 * p6.L


def test_snap_zero_diamond(p6):
    dia = measured_polygon(
        p6,
        "diamond",
        (HPoint(0, 0), HPoint(1, 0), HPoint(1, 0), HPoint(0, 0)),
        ("x", "y", "x", "y"),
        (0, 0, 0, 0),
    )
    snapped = snap_diamond(p6, dia)
    assert snapped.exponents == (0, 0, 0, 0)


_TRIANGLE = ApproxPolygon("triangle", (HPoint(0, 0), HPoint(0, 2), HPoint(12, 0)), ("x", "y", "a"), (2, 2, -12), 0)
_DIAMOND = ApproxPolygon(
    "diamond", (HPoint(0, 0), HPoint(0, 2), HPoint(12, 0), HPoint(12, -2)), ("x", "y", "x", "y"), (2, 2, -2, -2), 0
)


@pytest.mark.parametrize(
    "call, err",
    [
        (lambda p: snap_triangle(p, _DIAMOND), "snap_triangle needs a triangle"),
        (lambda p: snap_diamond(p, _TRIANGLE), "snap_diamond needs a diamond"),
        (lambda p: fill_diamond(p, _TRIANGLE, [2], [2]), "fill_diamond needs a diamond"),
        (lambda p: fill_bigon(p, _TRIANGLE, [2]), "fill_bigon needs a bigon"),
        (lambda p: fill_triangle(p, _DIAMOND, [2]), "fill_triangle needs a triangle"),
    ],
    ids=["snap_triangle", "snap_diamond", "fill_diamond", "fill_bigon", "fill_triangle"],
)
def test_wrong_kind_refused(p6, call, err):
    with pytest.raises(ValueError) as info:
        call(p6)
    assert str(info.value) == err


# ---------------------------------------------------------------------------
# worked filling instances


def test_fill_bigon_parallel_a_lines(p6):
    # parallel a-lines at distance 3, one side a^12 in two exponent-6 pieces
    poly = measured_polygon(
        p6, "bigon", (HPoint(0, 0), HPoint(12, 1)), ("a", "a"), (12, -12)
    )
    assert poly.D == 3
    diagram, sub = fill_bigon(p6, poly, [6, 6])
    assert diagram.area <= 2
    C, a = p6.C, p6.alpha
    assert diagram.mesh <= 2 * (2 * C + 1) * poly.D + 2 * C * 6 ** (1 / a)
    assert diagram.boundaries_trivial()
    assert sum(sub.exponents) == -12
    assert sub.max_exponent() <= 6 + p6.L * poly.D**a
    subdivision_ok(p6, sub, "a", poly.corners[1], poly.corners[1] * HPoint(-12, 0))


def test_fill_bigon_zero_offset(p6):
    poly = ApproxPolygon("bigon", (HPoint(0, 0), HPoint(10, 0)), ("a", "a"), (10, -10), 0)
    diagram, sub = fill_bigon(p6, poly, [5, 5])
    assert diagram.area <= 2
    assert diagram.boundaries_trivial()
    assert tuple(sub.exponents) == (-5, -5)


@pytest.mark.parametrize(
    "kind, side",
    [("bigon", "side 0"), ("triangle", "a-side"), ("diamond", "x-side"), ("diamond", "y-side")],
    ids=["bigon", "triangle-a", "diamond-x", "diamond-y"],
)
@pytest.mark.parametrize("bad", [[5, 4], []], ids=["wrong-sum", "empty"])
def test_fill_rejects_wrong_totals(p6, kind, side, bad):
    # every given side is checked against its exponent (10, -12, 2 and 2)
    # before any cell is built; the message names the side
    if kind == "bigon":
        poly = ApproxPolygon("bigon", (HPoint(0, 0), HPoint(10, 0)), ("a", "a"), (10, -10), 0)
        fill = lambda bad: fill_bigon(p6, poly, bad)
    elif kind == "triangle":
        corners = (HPoint(0, 0), HPoint(0, 2), HPoint(12, 0))
        poly = ApproxPolygon("triangle", corners, ("x", "y", "a"), (2, 2, -12), 0)
        fill = lambda bad: fill_triangle(p6, poly, bad)
    else:
        corners = (HPoint(0, 0), HPoint(0, 2), HPoint(12, 0), HPoint(12, -2))
        poly = ApproxPolygon("diamond", corners, ("x", "y", "x", "y"), (2, 2, -2, -2), 0)
        good = [1, 1]
        fill = lambda bad: fill_diamond(p6, poly, *((bad, good) if side == "x-side" else (good, bad)))
    with pytest.raises(ValueError, match=f"^{side} subdivision sums to {sum(bad)}, expected"):
        fill(bad)


def test_round_to_multiples_checks_order():
    # 10 rounds up to 12 and 3 down to 0: not monotone, so no grid exists
    with pytest.raises(InvariantViolation):
        _round_to_multiples(6, [0, 10, 3, 12])
    assert _round_to_multiples(6, [0, 4, 9, 12]) == [0, 6, 6, 12]  # 9: the tie goes to 6


def test_fill_triangle_lambda_two_area(p6):
    g0 = HPoint(0, 0)
    g1 = g0 * fpoint(p6, "x", 2)
    g2 = g1 * fpoint(p6, "y", 2)
    tri = ApproxPolygon("triangle", (g0, g1, g2), ("x", "y", "a"), (2, 2, -12), 0)
    diagram, sx, sy = fill_triangle(p6, tri, [-6, -6])
    assert diagram.area <= (2**2 + 9 * 2 + 6) // 2  # 14
    assert diagram.boundaries_trivial()
    assert sum(sx.exponents) == 2 and sum(sy.exponents) == 2


def test_fill_triangle_grid_counts(p6):
    # true triangle, a-side exponent L^2 split into L pieces:
    # (L^2 - L)/2 diamonds and L small triangles in the grid
    L = p6.L
    g0 = HPoint(0, 0)
    g1 = g0 * fpoint(p6, "x", L)
    g2 = g1 * fpoint(p6, "y", L)
    tri = ApproxPolygon("triangle", (g0, g1, g2), ("x", "y", "a"), (L, L, -L * L), 0)
    diagram, sx, sy = fill_triangle(p6, tri, [-L] * L)
    # L cells for the (degenerate) a-side bigon and the (L^2 - L)/2 + L grid
    # cells; the outer-side bigon cells are freely trivial and left out, and
    # there are no strip or corner cells
    assert diagram.area == L + ((L * L - L) // 2 + L)
    words = [c.boundary.chars for c in diagram.cells]
    gw = lambda k: geodesic_word_h(p6, HPoint(k, 0)).chars
    tri_word = gw(-L) + "s" + gw(1) + "S" + "t" + gw(1) + "T"
    dia_word = "s" + gw(1) + "S" + "t" + gw(-1) + "T" + "s" + gw(-1) + "S" + "t" + gw(1) + "T"
    # the a-bigon's L degenerate quads spell the same word as the L grid
    # triangles (a^L = xy makes geo_a(L) and geo_x(1) geo_y(1) coincide)
    assert words.count(tri_word) == 2 * L
    assert words.count(dia_word) == (L * L - L) // 2
    assert diagram.area <= (L * L + 9 * L + 6) // 2
    assert diagram.boundaries_trivial()
    assert list(sx.exponents) == [1] * L and list(sy.exponents) == [1] * L


def test_fill_diamond_true_grid(p6):
    g1 = HPoint(0, 0)
    h1 = g1 * fpoint(p6, "x", 2)
    g2 = h1 * fpoint(p6, "y", 2)
    h2 = g2 * fpoint(p6, "x", -2)
    dia = ApproxPolygon("diamond", (g1, h1, g2, h2), ("x", "y", "x", "y"), (2, 2, -2, -2), 0)
    diagram, s2, s3 = fill_diamond(p6, dia, [1, 1], [1, 1])
    assert diagram.area <= 2**2 + 4 * 2 + 4  # 16
    assert diagram.boundaries_trivial()
    assert sum(s2.exponents) == -2 and sum(s3.exponents) == -2
    # the interior is exactly 2 x 2 unit diamonds
    gw = lambda k, f: geodesic_word_h(p6, fpoint(p6, f, k)).chars
    unit = gw(1, "x") + gw(1, "y") + gw(-1, "x") + gw(-1, "y")
    assert [c.boundary.chars for c in diagram.cells].count(unit) == 4


# ---------------------------------------------------------------------------
# randomized bounds (small-scale version of acceptance criterion 7)


@pytest.mark.parametrize("kind", ["bigon", "triangle", "diamond"])
def test_fill_bounds_randomized(p6, kind):
    rng = random.Random(f"fill-{kind}")
    jitters = jitter_pool(p6, 2) + [HPoint(0, 0)] * 6
    C, a, L = p6.C, p6.alpha, p6.L
    for _ in range(30):
        if kind == "bigon":
            poly, split = random_bigon(p6, rng, 12, 8, jitters)
            diagram, sub = fill_bigon(p6, poly, split)
            subs, lam = [sub], len(split)
            E = max(max(abs(e) for e in split), 1)
            mesh_bound = 2 * (2 * C + 1) * poly.D + 2 * C * E ** (1 / a)
            exp_bound = E + L * poly.D**a
            area_bound = lam
        elif kind == "triangle":
            poly, split = random_triangle(p6, rng, 12, 8, jitters)
            diagram, sx, sy = fill_triangle(p6, poly, a_subdivision=split)
            subs, lam = [sx, sy], len(split)
            E = max(max(abs(e) for e in split), 1)
            mesh_bound = 4 * C + (6 * C + 2) * poly.D + 2 * C * E ** (1 / a)
            exp_bound = 1 + E / L + poly.D**a
            area_bound = (lam * lam + 9 * lam + 6) / 2
        else:
            poly, sx_in, sy_in = random_diamond(p6, rng, 12, 8, jitters)
            diagram, s2, s3 = fill_diamond(p6, poly, sx_in, sy_in)
            subs, lam = [s2, s3], max(len(sx_in), len(sy_in))
            E = max(max(abs(e) for e in sx_in + sy_in), 1)
            mesh_bound = 3 * L + (8 * C + 2) * poly.D + 4 * C * E ** (1 / a)
            exp_bound = E + 2 * L * poly.D**a
            area_bound = lam * lam + 4 * lam + 4
        assert diagram.area <= area_bound
        assert diagram.mesh <= mesh_bound
        assert diagram.boundaries_trivial()
        for sub in subs:
            assert len(sub.exponents) <= lam
            assert sub.max_exponent() <= exp_bound
        # each returned subdivision runs along its polygon side, start to end
        sides = {"bigon": (1,), "triangle": (0, 1), "diamond": (2, 3)}[kind]
        for sub, i in zip(subs, sides):
            start = poly.corners[i]
            end = start * fpoint(p6, poly.flavors[i], poly.exponents[i])
            subdivision_ok(p6, sub, poly.flavors[i], start, end)


@pytest.mark.parametrize("L", [6, 8])
def test_no_cell_is_freely_trivial(L):
    # such a cell encloses nothing (its 1-chain is zero) and must not count
    # toward the area; the jittered corners make corner and strip cells
    # that cancel letter by letter if they are kept
    params = GroupParams(L)
    rng = random.Random(f"free-{L}")
    jitters = jitter_pool(params, 2) + [HPoint(0, 0)] * 6
    diagrams = [subdivide_snowflake(params, p, L) for p in (2, 3, 4)]
    for _ in range(20):
        poly, split = random_bigon(params, rng, 12, 8, jitters)
        diagrams.append(fill_bigon(params, poly, split)[0])
        poly, split = random_triangle(params, rng, 12, 8, jitters)
        diagrams.append(fill_triangle(params, poly, split)[0])
        poly, sx, sy = random_diamond(params, rng, 12, 8, jitters)
        diagrams.append(fill_diamond(params, poly, sx, sy)[0])
    for diagram in diagrams:
        for cell in diagram.cells:
            assert reference_free_reduce(cell.boundary.chars), str(cell.boundary)


def test_fill_with_explicit_corner_paths(p6):
    # corner paths may be any short paths, not just geodesics
    g0 = HPoint(0, 0)
    g1 = HPoint(12, 0) * HPoint(1, 0)
    cp0 = PathWord(p6, geodesic_word_h(p6, HPoint(1, 0)).chars + "aA")
    cp1 = PathWord(p6, geodesic_word_h(p6, HPoint(-1, 0)).chars + "sS")
    poly = ApproxPolygon("bigon", (g0, g1), ("a", "a"), (12, -12), 3, (cp0, cp1))
    diagram, sub = fill_bigon(p6, poly, [6, 6])
    assert diagram.boundaries_trivial()
    assert sum(sub.exponents) == -12


def test_fill_rejects_wrong_corner_path(p6):
    bad = PathWord(p6, "a")
    poly = ApproxPolygon("bigon", (HPoint(0, 0), HPoint(12, 0)), ("a", "a"), (12, -12), 2, (bad, bad))
    with pytest.raises(ValueError):
        fill_bigon(p6, poly, [6, 6])


def test_polygon_json_roundtrip(p6):
    corners = (HPoint(0, 0), HPoint(0, 2), HPoint(12, 0))
    poly = ApproxPolygon("triangle", corners, ("x", "y", "a"), (2, 2, -12), 1)
    data = {"kind": "triangle", "corners": [[0, 0], [0, 2], [12, 0]], "flavors": ["x", "y", "a"],
            "exponents": [2, 2, -12], "D": 1}
    assert polygon_from_json(p6, data) == poly
    data["corner_paths"] = ["x^-2 s s^-1", "a^12 x^-2", "1"]
    paths = tuple(PathWord(p6, c) for c in ("XXsS", "a" * 12 + "XX", ""))
    assert polygon_from_json(p6, data) == ApproxPolygon("triangle", corners, ("x", "y", "a"), (2, 2, -12), 1, paths)


# ---------------------------------------------------------------------------
# diagrams: shared spellings and distinct boundary words


def _cells_digest(diagram):
    """sha256 over the cells' words, in order."""
    h = hashlib.sha256()
    for c in diagram.cells:
        h.update(f"{c.boundary.chars}\n".encode())
    return h.hexdigest()


def test_cell_words_pinned(p6):
    # every cell word, in order, is byte-identical to the words made before
    # diagrams shared their spellings
    tri = ApproxPolygon("triangle", (HPoint(0, 0), HPoint(0, 2), HPoint(12, 0)), ("x", "y", "a"), (2, 2, -12), 0)
    cp0 = PathWord(p6, geodesic_word_h(p6, HPoint(1, 0)).chars + "aA")
    cp1 = PathWord(p6, geodesic_word_h(p6, HPoint(-1, 0)).chars + "sS")
    bigon = ApproxPolygon("bigon", (HPoint(0, 0), HPoint(13, 0)), ("a", "a"), (12, -12), 3, (cp0, cp1))
    corners = (HPoint(0, 0), HPoint(0, 2), HPoint(12, 0), HPoint(12, -2))
    dia = ApproxPolygon("diamond", corners, ("x", "y", "x", "y"), (2, 2, -2, -2), 0)
    digests = {
        "README triangle": _cells_digest(fill_triangle(p6, tri, [-6, -6])[0]),
        "corner-path bigon": _cells_digest(fill_bigon(p6, bigon, [6, 6])[0]),
        "true diamond": _cells_digest(fill_diamond(p6, dia, [1, 1], [1, 1])[0]),
        "snowflake p=5": _cells_digest(subdivide_snowflake(p6, 5, 6)),
    }
    assert digests == {
        "README triangle": "6a31368f6ef9986851b4a1c9a6ec04c96628240121d43da9e457d6ce99805749",
        "corner-path bigon": "05e60ebd1eedab8f8211a8b51887c2609a610ff1ca3d45c1e1bbbf0d735fea09",
        "true diamond": "4b256b55ecd14bf8db5af93cc84eeeba308479a4932e8610c23f32f2fbf2523f",
        "snowflake p=5": "f29a9d8f26706ebad993dfe2e8227bce11bd3b61221d1e68b4cdf3864ed6eb9a",
    }


@pytest.mark.parametrize(
    "kind, area, digest",
    [
        ("bigon", 132, "57afbda62dfbc26a8acbe6886fe974bbae1d84fb9c8e527711595089caf78a2f"),
        ("triangle", 765, "983370dd6e4c964eefecbd85ef3996cf515081f780b15e9644cc1a014ced40ff"),
        ("diamond", 1537, "3e5f71277fc90af977e0a014f04d73cf559fc9cd17d45cf17e5d31f9a300927c"),
    ],
)
def test_randomized_cell_words_pinned(p6, kind, area, digest):
    # the 30 jittered polygons of test_fill_bounds_randomized, recorded as above
    h, total = hashlib.sha256(), 0
    for diagram in _seeded_fillings(p6, kind):
        total += diagram.area
        h.update(_cells_digest(diagram).encode())
    assert (total, h.hexdigest()) == (area, digest)


def _seeded_fillings(params, kind):
    """The diagrams of the 30 jittered polygons of test_fill_bounds_randomized,
    filled one by one (a generator, so a test may patch between fills).
    kind "uneven bigon": 30 bigons a^m0 and a^m1 with |m1| < |m0|, whose
    strips after the first p cells read geodesic verticals."""
    if kind == "uneven bigon":
        rng = random.Random("uneven")
        for _ in range(30):
            m0 = rng.choice([-1, 1]) * rng.randint(8, 40)
            m1 = -m0 + (1 if m0 > 0 else -1) * rng.randint(2, abs(m0) - 1)
            g0 = HPoint(rng.randint(-20, 20), rng.randint(-2, 2))
            poly = measured_polygon(params, "bigon", (g0, g0 * HPoint(m0, 0)), ("a", "a"), (m0, m1))
            yield fill_bigon(params, poly, random_split(rng, m0, 6, 12))[0]
        return
    rng = random.Random(f"fill-{kind}")
    jitters = jitter_pool(params, 2) + [HPoint(0, 0)] * 6
    make = {"bigon": random_bigon, "triangle": random_triangle, "diamond": random_diamond}[kind]
    fill = {"bigon": fill_bigon, "triangle": fill_triangle, "diamond": fill_diamond}[kind]
    for _ in range(30):
        poly, *subs = make(params, rng, 12, 8, jitters)
        yield fill(params, poly, *subs)[0]


def _whole_word_verdict(diagram):
    """(i, key): cells[i] is the first cell whose joined word does not
    reduce to 1 by reduce_chars on the whole word, key its normal form;
    None if there is none.  The oracle for Diagram.first_nontrivial_cell."""
    keys = {}
    for i, cell in enumerate(diagram.cells):
        chars = cell.boundary.chars
        if chars not in keys:
            keys[chars] = reduce_chars(diagram.params.L, chars)
        if keys[chars] != (0, 0):
            return i, keys[chars]
    return None


def _verdict(diagram):
    found = diagram.first_nontrivial_cell()
    return None if found is None else (found[0], found[1].key)


@pytest.mark.parametrize("kind", ["bigon", "uneven bigon", "triangle", "diamond", "snowflake"])
def test_checks_match_the_whole_word_oracle(p6, kind):
    # add checks each word from its parts; reducing every joined word in
    # full agrees, and mesh is the longest boundary of any cell
    if kind == "snowflake":
        diagrams = [subdivide_snowflake(p6, p, 6) for p in range(2, 10)]
    else:
        diagrams = list(_seeded_fillings(p6, kind))
    for diagram in diagrams:
        assert _verdict(diagram) == _whole_word_verdict(diagram) is None
        assert diagram.mesh == max((c.boundary.length for c in diagram.cells), default=0)
        for part, steps in diagram._syllables.items():  # each part's recorded normal form
            key = reduce_chars(p6.L, part)
            assert steps == ((0, key[0], key[1]), *zip(key[2::3], key[3::3], key[4::3]))


def test_normal_form_from_parts_is_that_of_the_whole_word(p6):
    # words joined from short parts, so that Britton pinches and free
    # cancellation cross the joins; every part is already in the diagram's
    # memo, put there by a trivial word p [x, a] p^-1
    rng = random.Random("parts")
    pool = list("aAsStTxXyY") + ["a" * 6, "A" * 6, "sa", "AS", "tA", "aT", "xy", "YX"]
    pool += ["".join(rng.choice("aAsStTxXyY") for _ in range(rng.randint(2, 8))) for _ in range(10)]
    caught = 0
    for _ in range(400):
        parts = tuple(rng.choice(pool) for _ in range(rng.randint(1, 7)))
        diagram = filling.Diagram(p6)
        for part in parts:
            diagram.add((part, "xaXA", invert_chars(part)))
        assert diagram.boundaries_trivial()
        known = dict(diagram._syllables)
        diagram.add(parts)
        assert diagram._syllables == known  # nothing new was reduced
        key = reduce_chars(p6.L, "".join(parts))
        if key == (0, 0) or not free_reduce("".join(parts)):
            assert _verdict(diagram) is None
        else:
            assert _verdict(diagram) == (diagram.area - 1, key)
            caught += 1
    assert caught > 300


def _wrong_once(spell, calls, nth):
    """spell, except that its nth call (counted in calls) returns a word
    with one more letter a."""
    def wrong(*args):
        word = spell(*args)
        calls[0] += 1
        if calls[0] != nth:
            return word
        return word + "a" if isinstance(word, str) else PathWord(word.params, word.chars + "a")

    return wrong


@pytest.mark.parametrize("where", ["spelled piece", "bigon vertical", "corner path"])
def test_wrong_part_caught_where_the_whole_word_oracle_says(p6, monkeypatch, where):
    # one wrong part per diagram, of each kind that add is given, is caught
    # at the cell the whole-word oracle names, with its normal form
    caught = injected = 0
    for kind in ("bigon", "uneven bigon", "triangle", "diamond"):
        fillings = _seeded_fillings(p6, kind)
        for n in range(30):
            calls, nth = [0], n % 5 + 1 if where == "spelled piece" else 1
            if where == "spelled piece":  # the nth distinct (flavor, k) the diagram spells
                monkeypatch.setattr(filling, "_geodesic_chars", _wrong_once(_geodesic_chars, calls, nth))
            elif where == "bigon vertical":  # geodesics of H spelled while a strip is filled
                def strip(*args, calls=calls, cells=_bigon_cells):
                    with monkeypatch.context() as m:
                        m.setattr(filling, "geodesic_word_h", _wrong_once(geodesic_word_h, calls, 1))
                        return cells(*args)

                monkeypatch.setattr(filling, "_bigon_cells", strip)
            else:  # a corner path, given or measured, after _corner_paths has checked it
                def paths(*args, calls=calls, checked=_corner_paths):
                    out = checked(*args)
                    out[n % len(out)] = PathWord(p6, out[n % len(out)].chars + "a")
                    calls[0] = 1
                    return out

                monkeypatch.setattr(filling, "_corner_paths", paths)
            diagram = next(fillings)
            monkeypatch.undo()
            assert _verdict(diagram) == _whole_word_verdict(diagram)
            assert diagram.mesh == max((c.boundary.length for c in diagram.cells), default=0)
            caught += _verdict(diagram) is not None
            injected += calls[0] >= nth
    assert caught == injected >= 20  # a trivial word with one more a is not trivial


@pytest.mark.parametrize("where", [0, 50, 100])
def test_one_bad_cell_among_repeats_is_found(p6, where):
    # the triviality check reads each distinct word once; a single
    # non-trivial word among 100 copies of a trivial one still fails it
    unit = geodesic_word_h(p6, HPoint(0, 1)).chars + geodesic_word_h(p6, HPoint(6, -1)).chars + "A" * 6
    diagram = filling.Diagram(p6)
    for i in range(101):
        diagram.add("a" if i == where else unit)
    assert diagram.area == 101
    assert not diagram.boundaries_trivial()
    assert diagram.mesh == len(unit)
    good = filling.Diagram(p6)
    for c in diagram.cells:
        if c.boundary.chars != "a":
            good.add(c.boundary.chars)
    assert good.area == 100 and good.boundaries_trivial()


def test_diagram_letters_bounded(p6, monkeypatch):
    # every word add is given counts toward MAX_LETTERS, a freely trivial or
    # a repeated one too; a refused word leaves the diagram as it was
    monkeypatch.setattr(filling, "MAX_LETTERS", 10)
    diagram = filling.Diagram(p6)
    with pytest.raises(ValueError, match="more than 10 letters"):
        diagram.add("aAsS" * 5)  # freely trivial, 20 letters
    assert (diagram.cells, diagram._words, diagram._letters) == ((), {}, 0)
    diagram.add("aAsS")  # freely trivial: no cell, 4 letters
    diagram.add("aaa")
    diagram.add("aaa")  # the same word again: 3 more, exactly MAX_LETTERS
    assert [c.boundary.chars for c in diagram.cells] == ["aaa", "aaa"]
    assert (list(diagram._words), diagram._letters) == (["aaa"], 10)
    for word in ("t", "aaa", "sS"):
        with pytest.raises(ValueError, match="more than 10 letters"):
            diagram.add(word)
    assert [c.boundary.chars for c in diagram.cells] == ["aaa", "aaa"]
    assert (list(diagram._words), diagram._letters) == (["aaa"], 10)
    diagram.add("")  # no letter, no cell
    assert diagram.area == 2


def test_subdivide_snowflake_letters_bounded(p6, monkeypatch):
    # a diagram given exactly MAX_LETTERS letters is made, one more is
    # refused; the limit counts every word add was given, not only the
    # words of the cells it kept
    total = subdivide_snowflake(p6, 5, 6)._letters
    monkeypatch.setattr(filling, "MAX_LETTERS", total)
    assert subdivide_snowflake(p6, 5, 6).area == 128
    monkeypatch.setattr(filling, "MAX_LETTERS", total - 1)
    with pytest.raises(ValueError, match=f"more than {total - 1} letters"):
        subdivide_snowflake(p6, 5, 6)


def _counting(calls, name, fn):
    """fn, counting in calls[name] the calls whose result is not empty."""
    def counted(*args):
        result = fn(*args)
        calls[name] += bool(result)
        return result

    return counted


@pytest.mark.parametrize("build", ["snowflake", "diamond"])
def test_each_distinct_word_handled_once(p6, monkeypatch, build):
    # a diagram keeps one boundary per distinct cell word: it is
    # free-reduced, checked and formatted once, and every cell of that word
    # shares it; a freely trivial word makes no cell and is not kept.  The
    # check Britton-reduces each distinct part of a stored word once, as add
    # stores the first word that holds it, and reading the verdict or the
    # mesh afterwards reduces nothing
    calls, reduced, britton = Counter(), Counter(), Counter()
    parts_of = {}  # each joined word -> the parts add was first given it as
    add = filling.Diagram.add

    def reducing(word):
        reduced[word] += 1
        return free_reduce(word)

    def reducing_in_full(L, chars):
        britton[chars] += 1
        return reduce_chars(L, chars)

    def recording(diagram, word):
        parts_of.setdefault("".join(word), (word,) if isinstance(word, str) else tuple(word))
        add(diagram, word)

    monkeypatch.setattr(filling, "free_reduce", reducing)
    monkeypatch.setattr(filling, "reduce_chars", reducing_in_full)
    monkeypatch.setattr(filling.Diagram, "add", recording)
    monkeypatch.setattr(filling, "PathWord", _counting(calls, "PathWord", filling.PathWord))
    monkeypatch.setattr(words, "format_word", _counting(calls, "format_word", words.format_word))
    if build == "snowflake":
        diagram = subdivide_snowflake(p6, 5, 6)
    else:
        corners = (HPoint(0, 0), HPoint(1, 6), HPoint(36, 0), HPoint(36, -6))
        dia = ApproxPolygon("diamond", corners, ("x", "y", "x", "y"), (6, 6, -6, -6), 1)
        diagram = fill_diamond(p6, dia, [2, 2, 2], [3, 3])[0]
    shared = {}
    for c in diagram.cells:
        assert shared.setdefault(c.boundary.chars, c.boundary) is c.boundary
    assert diagram.area > len(shared) > 1
    assert list(diagram._words) == list(shared)
    assert all(reduced[w] == 1 for w in shared)
    trivial = [w for w in reduced if not reference_free_reduce(w)]
    assert len(reduced) == len(shared) + len(trivial)
    assert len(trivial) == (6 if build == "diamond" else 0)
    assert calls == {"PathWord": len(shared)}
    parts = {part for word in shared for part in parts_of[word]}
    assert britton == Counter(parts) and sum(map(len, parts)) < sum(map(len, shared))
    britton.clear()
    assert (diagram.mesh, diagram.boundaries_trivial(), diagram.first_nontrivial_cell()) == (
        max(b.length for b in diagram._words.values()), True, None
    )
    assert not britton
    texts = [cell["boundary"] for cell in diagram.to_json()["cells"]]
    assert calls["format_word"] == len(shared)
    assert texts == [str(c.boundary) for c in diagram.cells]
    # add is the only way in: the cells are a tuple, so none can be put in by hand
    with pytest.raises(AttributeError):
        diagram.cells.append(filling.Cell(PathWord(p6, "a" * 500)))
    with pytest.raises(AttributeError):
        diagram.cells = [filling.Cell(PathWord(p6, "a" * 500))]
    assert diagram.mesh < 500 and diagram.boundaries_trivial()
    assert not britton


def test_diagram_equality_ignores_spellings(p6):
    tri = ApproxPolygon("triangle", (HPoint(0, 0), HPoint(0, 2), HPoint(12, 0)), ("x", "y", "a"), (2, 2, -12), 0)
    filled = fill_triangle(p6, tri, [-6, -6])[0]
    bare = filling.Diagram(p6)
    for c in filled.cells:
        bare.add(c.boundary.chars)
    assert filled == bare and repr(filled) == repr(bare)
    assert filled.to_json() == bare.to_json()
    assert bare.spell("x", 7) == geodesic_word_h(p6, HPoint(0, 7)).chars
    assert bare.spell("a", 0) == ""
    assert filled == bare and filled.to_json() == bare.to_json()


# ---------------------------------------------------------------------------
# snowflake subdivision


def test_subdivide_snowflake_depth_one(p6):
    d = subdivide_snowflake(p6, 1, 6)
    assert d.area == 1
    assert d.boundaries_trivial()
    # p = 1 is the girth loop: no filling can beat the loop length itself
    assert d.mesh == 12


def test_subdivide_snowflake_small_depths(p6):
    for p in (2, 3):
        d = subdivide_snowflake(p6, p, 6)
        assert subdivide_snowflake(p6, p, None) == d  # Lam is L when None
        half = 5 * 2**p - 4
        assert d.mesh <= half
        assert d.boundaries_trivial()


def test_subdivide_snowflake_stable_count(p6):
    counts = {}
    for p in (3, 4, 5):
        d = subdivide_snowflake(p6, p, 6)
        counts[p] = d.area
        assert d.mesh <= 5 * 2**p - 4
    assert len(set(counts.values())) == 1
    assert counts[3] <= 10 * p6.L**3


def test_subdivide_cap_depth(p6):
    # smallest m with |a^(L^(p-m))| + L |a^(L^(p-m-1))| <= half the loop
    for p in (3, 4, 7):
        m = cap_depth(p6, p, 6)
        assert m == 2
        lhs = (5 * 2 ** (p - m) - 4) + 6 * (5 * 2 ** (p - m - 1) - 4)
        assert lhs <= 5 * 2**p - 4
        lhs_prev = (5 * 2 ** (p - 1) - 4) + 6 * (5 * 2 ** (p - 2) - 4)
        assert lhs_prev > 5 * 2**p - 4
    assert cap_depth(p6, 2, 6) == 1


def test_subdivide_rejects_bad_inputs(p6):
    with pytest.raises(ValueError):
        subdivide_snowflake(p6, 0, 6)
    with pytest.raises(ValueError):
        subdivide_snowflake(p6, 3, 5)  # 5 does not divide 36
    for lam in (0, -6):
        with pytest.raises(ValueError, match="subdivision constant must be >= 1"):
            subdivide_snowflake(p6, 2, lam)


@pytest.mark.parametrize(
    "L, p, lam, err",
    [
        (6, 4, 216, "subdivision constant must be at most half the loop length, 76, got 216"),
        (6, 12, 6**11, "subdivision constant must be at most half the loop length, 20476, got 362797056"),
        (18, 2, None, "subdivision constant must be at most half the loop length, 16, got 18"),
        (6, 5, 144, "subdivision constant 144 leaves non-integral grid at depth 1"),
    ],
)
def test_subdivide_parameters_refused_before_any_cell(monkeypatch, L, p, lam, err):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell was made")

    monkeypatch.setattr(filling.Diagram, "add", no_cells)
    with pytest.raises(ValueError) as info:
        subdivide_snowflake(GroupParams(L), p, lam)
    assert str(info.value) == err


@pytest.mark.parametrize(
    "L, p, lam, mesh",
    [
        (12, 2, None, 18),  # no depth meets the capping inequality: cap s a s^-1 t a t^-1 a^-12
        (6, 2, 2, 20),  # Lam = 2 leaves central diamonds of length 20
        (6, 3, 3, 40),
        (8, 4, 1, 152),  # Lam = 1 keeps the central diamond whole
    ],
)
def test_subdivide_checks_half_length(L, p, lam, mesh):
    half = 5 * 2**p - 4
    with pytest.raises(InvariantViolation, match=f"length {mesh} is longer than half the loop, {half}"):
        subdivide_snowflake(GroupParams(L), p, lam)


# ---------------------------------------------------------------------------
# dual trees and the central region


def test_snowflake_tree_shape(p6):
    for p in range(1, 8):
        tree = snowflake_hnn_tree(p6, p)
        assert tree.boundary_length == 2 * (5 * 2**p - 4)
        assert len(tree.arcs) == 2 ** (p + 2) - 3  # stable closed form
        leaves = [v for v, arcs in tree.arcs.items() if arcs == (1,)]
        assert len(leaves) == 4 * 2 ** (p - 1)


def test_central_region_snowflake(p6):
    for p in range(1, 8):
        tree = snowflake_hnn_tree(p6, p)
        loc = find_central_region(tree)
        assert loc.kind == "vertex" and loc.node == "center"
        assert loc.f_value <= 0
        # brute force: f is positive everywhere else (vertices and midpoints)
        for v in tree.arcs:
            if v != "center":
                assert f_at_vertex(tree, v) > 0
        for a, b, length in tree.edges:
            assert f_at_edge_point(tree, (a, b), Fraction(length, 2)) > 0


def test_central_region_single_node():
    tree = HnnDualTree({"only": (4, 4)}, [])
    loc = find_central_region(tree)
    assert loc.kind == "vertex" and loc.node == "only"
    assert loc.f_value == -4


def test_central_region_path_tree():
    # arcs (10, 2, 10) along a path, zero-length corridors: the middle node
    tree = HnnDualTree({"a": (10,), "b": (2,), "c": (10,)}, [("a", "b", 0), ("b", "c", 0)])
    assert tree.boundary_length == 22
    loc = find_central_region(tree)
    assert loc.kind == "vertex" and loc.node == "b"
    assert loc.f_value == -1


def test_central_region_edge_interior():
    # two stars joined by a long corridor: f vanishes inside the edge
    tree = HnnDualTree({"a": (10,), "b": (10,)}, [("a", "b", 4)])
    assert tree.boundary_length == 28
    loc = find_central_region(tree)
    assert loc.kind == "edge"
    assert loc.offset == Fraction(2)
    assert f_at_edge_point(tree, loc.edge, loc.offset) == 0


def test_central_region_tie():
    # a zero-length corridor glues a and b into one point: the first is returned
    tree = HnnDualTree({"a": (5,), "b": (5,)}, [("a", "b", 0)])
    loc = find_central_region(tree)
    assert loc.kind == "vertex" and loc.node == "a"
    assert loc.f_value == 0


def test_central_region_two_points_is_a_violation(monkeypatch):
    # two vertices with f <= 0 across a corridor of positive length cannot
    # both be central
    tree = HnnDualTree({"a": (10,), "b": (10,)}, [("a", "b", 4)])
    monkeypatch.setattr(filling, "_directed_masses", lambda t: {"a": {"b": 0}, "b": {"a": 0}})
    with pytest.raises(InvariantViolation):
        find_central_region(tree)


@pytest.mark.parametrize(
    "f, args, err",
    [
        (f_at_vertex, ("zz",), "'zz' is not a node of the tree"),
        (f_at_edge_point, (("a", "c"), Fraction(1, 2)), r"\('a', 'c'\) is not an edge of the tree"),
        (f_at_edge_point, (("a", "b"), Fraction(5)), r"offset 5 is outside the edge \('a', 'b'\) of length 1"),
        (f_at_edge_point, (("b", "a"), Fraction(-1, 2)), r"offset -1/2 is outside the edge"),
    ],
    ids=["unknown-node", "not-an-edge", "past-the-end", "before-the-start"],
)
def test_f_refuses_points_off_the_tree(f, args, err):
    tree = HnnDualTree({"a": (2,), "b": (2,), "c": (2,)}, [("a", "b", 1), ("b", "c", 1)])
    with pytest.raises(ValueError, match=err):
        f(tree, *args)
    # the ends of an edge are on it, read from either side
    assert f_at_edge_point(tree, ("a", "b"), Fraction(1)) == f_at_edge_point(tree, ("b", "a"), Fraction(0))


def test_tree_validation():
    with pytest.raises(ValueError, match="wrong edge count"):
        HnnDualTree({"a": (), "b": ()}, [])
    with pytest.raises(ValueError, match="disconnected"):
        HnnDualTree({"a": (), "b": (), "c": ()}, [("a", "b", 1), ("b", "a", 2)])
    with pytest.raises(ValueError):
        HnnDualTree({"a": ()}, [("a", "z", 1)])  # unknown node
    with pytest.raises(ValueError):
        HnnDualTree({"a": (-3,)}, [])  # negative arc
    with pytest.raises(ValueError, match="edge lengths must be nonnegative"):
        HnnDualTree({"a": (1,), "b": (2,)}, [("a", "b", -1)])


def test_tree_json_and_dot(p6):
    data = {
        "nodes": [
            {"id": "center", "arcs": [], "kind": "central-diamond"},
            {"id": "b0", "arcs": [1], "kind": "leaf"},
            {"id": "b1", "arcs": [2, 3]},
        ],
        "edges": [["center", "b0", 1], ["center", "b1", 2]],
    }
    tree = HnnDualTree({"center": (), "b0": (1,), "b1": (2, 3)}, [("center", "b0", 1), ("center", "b1", 2)])
    assert HnnDualTree.from_json(data) == tree
    for node in data["nodes"]:  # a node's kind is ignored
        node.pop("kind", None)
    assert HnnDualTree.from_json(data) == tree
    dot = snowflake_hnn_tree(p6, 2).to_dot()
    assert dot.startswith("graph") and '"center"' in dot


# ---------------------------------------------------------------------------
# area assembly


def _area_budget_direct(central, enfilade, branching, shells):
    total = central
    for m in range(1, shells + 1):
        total += 4 * 2 ** (m - 1) * (enfilade + branching)
    return total + 4 * 2**shells


def test_area_budget_matches_direct_sum():
    rng = random.Random(9)
    for _ in range(200):
        c = rng.randint(0, 500)
        e = rng.randint(0, 50)
        b = rng.randint(0, 50)
        n = rng.randint(0, 30)
        assert area_budget(c, e, b, n) == _area_budget_direct(c, e, b, n)
    with pytest.raises(ValueError):
        area_budget(1, 1, 1, -1)
