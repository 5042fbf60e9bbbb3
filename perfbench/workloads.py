"""The four benchmark workloads and their known-answer checks.

Each workload is a pair of functions:

* ``setup(rng, scale)`` builds the seeded inputs (counted in ``setup_s``);
* ``run(inputs, ctx)`` does the fixed work and checks every output
  (counted in ``wall_s``).

``scale`` is ``"full"`` for the measured workload, or ``"probe"`` for a
small version that a traced run of another workload executes only to fill
the per-layer metrics of entry points that workload never calls.

The workloads call the package through module attributes
(``hnn_group.bfs_ball``), so the wrappers of a traced run see every call.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from snowflake_groups import distortion, filling, hnn_group, paths, vertex_group
from snowflake_groups.params import GroupParams
from snowflake_groups.vertex_group import HPoint
from snowflake_groups.words import PathWord, invert_chars, parse_word

MAX_REPORTED_FAILURES = 20


class Checks:
    """Counts checks.  A wrong value or a raised exception fails one check and
    never aborts the run."""

    def __init__(self, tick) -> None:
        self.tick = tick  # called before each check, between calls into the package
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def ok(self, label: str, check) -> bool:
        self.tick()
        self.attempted += 1
        try:
            good = bool(check())
            why = "wrong value"
        except Exception as exc:  # BudgetExceeded, AssertionError, MemoryError, ...
            good, why = False, f"{type(exc).__name__}: {exc}"
        if not good:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{label}: {why}")
        return good

    def result(self, label: str, compute):
        """compute() as one check that it returns; its value, or None if it raised."""
        box = []

        def returns():
            box.append(compute())
            return True

        self.ok(label, returns)
        return box[0] if box else None


class Context:
    """What one run of a workload hands back besides its timing."""

    def __init__(self, recorder, tick) -> None:
        self.rec = recorder
        self.ck = Checks(tick)
        self.outputs: list = []  # compared between runs of the same seed
        self.counts: Counter = Counter()  # exact counts for the self-check


# ---------------------------------------------------------------------------
# ball_oracle: one-sided BFS over G_6, checked against the closed forms

SPHERES_G6 = [1, 6, 30, 150, 734, 3574, 17366, 84374, 409946, 1991646]
BALL_SCALE = {"full": {"radius": 8, "sample": 300}, "probe": {"radius": 6, "sample": 30}}


def setup_ball_oracle(rng, scale):
    cfg = BALL_SCALE[scale]
    total = sum(SPHERES_G6[: cfg["radius"] + 1])
    return {
        "params": GroupParams(6),
        "radius": cfg["radius"],
        "sample": sorted(rng.sample(range(total), cfg["sample"])),
    }


def _parity_defects(distances, radius):
    bad = [0] * (radius + 1)
    for key, d in distances.items():
        p = key[0] + key[1]
        for i in range(2, len(key), 3):
            p += 1 + key[i + 1] + key[i + 2]
        bad[d] += (p - d) & 1
    return bad


def run_ball_oracle(inp, ctx):
    params, radius = inp["params"], inp["radius"]
    ck, rec = ctx.ck, ctx.rec
    rec.phase = "bfs"
    ball = ck.result("bfs_ball", lambda: hnn_group.bfs_ball(params, radius))
    if ball is None:
        return
    ctx.counts["hnn_group.bfs_ball.states"] += len(ball)
    sizes = ball.sphere_sizes()
    ctx.outputs.append(("spheres", sizes))
    for d in range(radius + 1):
        ck.ok(f"sphere {d}", lambda: sizes[d] == SPHERES_G6[d])

    rec.phase = "oracle"
    for h, d in ball.h_elements():
        ck.ok(f"dist_h{tuple(h)} == {d}", lambda: vertex_group.dist_h(params, h) == d)

    rec.phase = "parity"
    bad = ck.result("parity scan", lambda: _parity_defects(ball.distances, radius))
    if bad is not None:
        for d in range(radius + 1):
            ck.ok(f"parities of sphere {d}", lambda: bad[d] == 0)

    rec.phase = "roundtrip"
    keys = list(ball.distances)
    for pos in inp["sample"]:
        key = keys[pos]
        d = ball.distances[key]
        g = hnn_group.GroupElement(params, key)
        ck.ok(
            f"normal form {key}",
            lambda: hnn_group.reduce_word(params, g.word_chars()).key == key
            and g.parity() == d % 2
            and (g * g.inverse()).is_identity(),
        )


# ---------------------------------------------------------------------------
# loop_verify: deep antipodal searches and many shallow pair searches

# Closed {a, s, t} loops of G_6 and their biLipschitz constants (max over
# vertex pairs of loop distance / group distance), recorded from a full-cap
# scan.  'loop1' is the depth-1 snowflake loop; 'a12-s2t2' is the loop of the
# path tests, whose worst pair is (6, 14).
LOOP_BASES = {
    "loop1": ("s a s^-1 t a t^-1 s a^-1 s^-1 t a^-1 t^-1", Fraction(1)),
    "a6-sig1s": ("a^6 t a^-1 t^-1 s a^-1 s^-1", Fraction(1)),
    "a12-s2t2": ("a^12 t a^-2 t^-1 s a^-2 s^-1", Fraction(2)),
    "a18-s3t3": ("a^18 t a^-3 t^-1 s a^-3 s^-1", Fraction(13, 5)),
    "s2t2-t2s2": ("s a^2 s^-1 t a^2 t^-1 s a^-2 s^-1 t a^-2 t^-1", Fraction(4, 3)),
    "s1t1a-as1t1": ("s a s^-1 t a t^-1 a t a^-1 t^-1 s a^-1 s^-1 a^-1", Fraction(7)),
    "s2t2a-as2t2": ("s a^2 s^-1 t a^2 t^-1 a t a^-2 t^-1 s a^-2 s^-1 a^-1", Fraction(9)),
    "s1t1a2-a2s1t1": ("s a s^-1 t a t^-1 a^2 t a^-1 t^-1 s a^-1 s^-1 a^-2", Fraction(4)),
}
LOOP_SCALE = {
    "full": {
        "deep": (1, 2),
        "variants": {
            "loop1": 4, "a6-sig1s": 4, "a12-s2t2": 6, "a18-s3t3": 2,
            "s2t2-t2s2": 6, "s1t1a-as1t1": 6, "s2t2a-as2t2": 6, "s1t1a2-a2s1t1": 6,
        },
    },
    "probe": {"deep": (1,), "variants": {"loop1": 1, "s2t2-t2s2": 1, "a12-s2t2": 1}},
}
_SWAP_ST = str.maketrans("sStT", "tTsS")
_INVERT_A = str.maketrans("aA", "Aa")


def _loop_variant(rng, chars):
    """The same loop seen from another vertex, possibly reversed and moved by
    the isometries s <-> t and a -> a^-1; its biLipschitz constant is unchanged."""
    r = rng.randrange(len(chars))
    chars = chars[r:] + chars[:r]
    if rng.random() < 0.5:
        chars = invert_chars(chars)
    if rng.random() < 0.5:
        chars = chars.translate(_SWAP_ST)
    if rng.random() < 0.5:
        chars = chars.translate(_INVERT_A)
    return chars


def setup_loop_verify(rng, scale):
    cfg = LOOP_SCALE[scale]
    params = GroupParams(6)
    family = [("a12-s2t2 as given", parse_word(LOOP_BASES["a12-s2t2"][0]), Fraction(2), (6, 14))]
    for name, count in cfg["variants"].items():
        word, constant = LOOP_BASES[name]
        for k in range(count):
            family.append((f"{name} variant {k}", _loop_variant(rng, parse_word(word)), constant, None))
    return {
        "params": params,
        "deep": [(n, paths.snowflake_loop(params, n)) for n in cfg["deep"]],
        "backtrack": PathWord(params, "a" * 12 + "A" * 12),
        "family": family,
    }


def run_loop_verify(inp, ctx):
    params, ck, rec = inp["params"], ctx.ck, ctx.rec

    def verdict(label, loop, expected):
        got = bool(paths.verify_geodesic_loop(params, loop))
        ctx.outputs.append((label, got))
        return got is expected

    rec.phase = "deep"
    for n, loop in inp["deep"]:
        ck.ok(f"snowflake loop {n} is geodesic", lambda: verdict(f"loop {n}", loop, True))
    ck.ok("a^12 a^-12 is not geodesic", lambda: verdict("backtrack", inp["backtrack"], False))

    def bilip(label, chars, constant, witness):
        report = paths.loop_bilip_constant(params, PathWord(params, chars), len(chars) // 2)
        ctx.outputs.append((label, report.embedded, report.complete, report.constant, report.witness))
        return (
            report.embedded
            and report.complete
            and report.constant == constant
            and (witness is None or report.witness == witness)
        )

    rec.phase = "shallow"
    for label, chars, constant, witness in inp["family"]:
        ck.ok(f"{label}: constant {constant}", lambda: bilip(label, chars, constant, witness))


# ---------------------------------------------------------------------------
# h_metric: closed forms in H on large, distinct, seeded exponents

H_SCALE = {
    "full": {
        "Ls": (6, 8, 10, 12), "powers": 10, "cold": 200, "dist_h": 100, "words": 16, "words_h": 16,
        "mn": 150, "ag_bound": 30, "table": 10**6, "table_sample": 2000,
    },
    "probe": {
        "Ls": (6, 10), "powers": 2, "cold": 5, "dist_h": 5, "words": 2, "words_h": 2,
        "mn": 10, "ag_bound": 5, "table": 10**4, "table_sample": 50,
    },
}
# ag_ratio_scan answers: (L, bound) -> (max ratio, where)
AG_SCAN = {
    (6, 30): (Fraction(3), (-30, 5)),
    (8, 30): (Fraction(3), (-24, 3)),
    (10, 30): (Fraction(3), (-30, 3)),
    (12, 30): (Fraction(3), (-24, 2)),
    (6, 5): (Fraction(2), (-5, 1)),
    (10, 5): (Fraction(1), (0, 1)),
}


def _spread(rng, count, lo_digits, hi_digits):
    """count distinct random positive integers whose digit counts step evenly
    from lo_digits to hi_digits, so the work varies little by seed."""
    out: set[int] = set()
    while len(out) < count:
        digits = lo_digits + (len(out) * (hi_digits - lo_digits)) // max(count - 1, 1)
        out.add(rng.randrange(10 ** (digits - 1), 10**digits))
    out = sorted(out)
    rng.shuffle(out)
    return out


def _signed(rng, values):
    return [rng.choice((-1, 1)) * v for v in values]


def setup_h_metric(rng, scale):
    cfg = H_SCALE[scale]
    per_L = []
    for L in cfg["Ls"]:
        lo_n, hi_n = math.ceil(49 / math.log10(L)), math.floor(299 / math.log10(L))
        per_L.append({
            "params": GroupParams(L),
            "powers": rng.sample(range(lo_n, hi_n + 1), cfg["powers"]),
            "cold": _spread(rng, cfg["cold"], 50, 300),
            "dist_h": [
                HPoint(u, v) for u, v in zip(
                    _signed(rng, _spread(rng, cfg["dist_h"], 20, 100)),
                    _signed(rng, _spread(rng, cfg["dist_h"], 20, 100)),
                )
            ],
            "words": _signed(rng, _spread(rng, cfg["words"], 4, 11)),
            "words_h": [
                HPoint(u, v) for u, v in zip(
                    _signed(rng, _spread(rng, cfg["words_h"], 4, 11)),
                    _signed(rng, _spread(rng, cfg["words_h"], 4, 11)),
                )
            ],
        })
    return {
        "per_L": per_L,
        "table_params": GroupParams(6),
        "table_max": cfg["table"],
        "table_sample": rng.sample(range(1, cfg["table"] + 1), cfg["table_sample"]),
        "mn": cfg["mn"],
        "ag_bound": cfg["ag_bound"],
    }


def _gen_len(params, k):
    """|x^k| = |y^k| = 2 + |a^k| for k != 0."""
    return 0 if k == 0 else 2 + vertex_group.dist_a_power(params, k)


def run_h_metric(inp, ctx):
    ck, rec = ctx.ck, ctx.rec
    reduce_chars = hnn_group.reduce_chars

    for case in inp["per_L"]:
        params = case["params"]
        L = params.L
        dists = {}

        rec.phase = "cold"
        for n in case["powers"]:
            ck.ok(f"L={L} |a^(L^{n})|", lambda: vertex_group.dist_a_power(params, L**n) == 5 * 2**n - 4)
        for m in case["cold"]:
            ck.ok(f"L={L} |a^m| cold", lambda: dists.setdefault(m, vertex_group.dist_a_power(params, m)) > 0)

        rec.phase = "expr"

        def expression_ok(m):
            e = vertex_group.geodesic_expression(params, m)
            digits = e.digits
            return (
                e.value() == m
                and e.path_length() == dists[m]
                and 0 < digits[-1] <= L // 2 + 2
                and all(abs(d) <= L // 2 for d in digits[:-1])
            )

        for m in case["cold"]:
            if m in dists:
                ck.ok(f"L={L} geodesic_expression", lambda: expression_ok(m))
        ctx.outputs.append((L, sum(dists.values())))

        rec.phase = "dist_h"

        def dist_h_ok(h):
            d = vertex_group.dist_h(params, h)
            ctx.outputs.append(d)
            upper = vertex_group.dist_a_power(params, h.u) + _gen_len(params, h.v)
            return d == vertex_group.dist_h(params, h.inverse()) and d <= upper and (d - h.u - h.v) % 2 == 0

        for h in case["dist_h"]:
            ck.ok(f"L={L} dist_h", lambda: dist_h_ok(h))

        rec.phase = "words"

        def word_ok(m):
            w = vertex_group.geodesic_word_a_power(params, m)
            return len(w.chars) == w.length == vertex_group.dist_a_power(params, m) and reduce_chars(L, w.chars) == (m, 0)

        def word_h_ok(h):
            w = vertex_group.geodesic_word_h(params, h)
            return w.length == vertex_group.dist_h(params, h) and reduce_chars(L, w.chars) == (h.u, h.v)

        for m in case["words"]:
            ck.ok(f"L={L} geodesic word of a^{m}", lambda: word_ok(m))
        for h in case["words_h"]:
            ck.ok(f"L={L} geodesic word of {tuple(h)}", lambda: word_h_ok(h))

    for case in inp["per_L"]:
        params = case["params"]
        L, M = params.L, (params.L - 2) // 2
        rec.phase = "mn"
        rows = ck.result(f"L={L} mn_sequence", lambda: distortion.mn_sequence(params, inp["mn"]))
        for row in rows or ():
            n = row.n
            ck.ok(
                f"L={L} m_{n} closed form",
                lambda: row.m == M * L**n - M * sum(L**i for i in range(n))
                and row.dist == row.predicted == (2 ** (n + 1) - 1) * M + 2 ** (n + 2) - 4,
            )
        rec.phase = "ag"

        def ag_ok():
            scan = distortion.ag_ratio_scan(params, inp["ag_bound"])
            return (scan.max_ratio, scan.at) == AG_SCAN[(L, inp["ag_bound"])]

        ck.ok(f"L={L} ag_ratio_scan", ag_ok)

    # the table last, so that its memory stacks on whatever the calls above retained
    rec.phase = "table"
    p6, m_max = inp["table_params"], inp["table_max"]
    rows = ck.result("distortion_table", lambda: distortion.distortion_table(p6, m_max))
    if rows is not None and ck.ok("table length", lambda: len(rows) == m_max):
        ck.ok("1 < |a^m| / m^(1/alpha) < C", lambda: all(1 < r.ratio < p6.C for r in rows[1:]))
        for m in inp["table_sample"]:
            ck.ok(f"table row {m}", lambda: rows[m - 1].m == m and rows[m - 1].dist == vertex_group.dist_a_power(p6, m))
        ctx.outputs.append(("table", sum(r.dist for r in rows)))


# ---------------------------------------------------------------------------
# van_kampen: filling primitives, snowflake subdivision, dual trees, enfilades

VK_SCALE = {
    "full": {"each": 200, "depths": range(4, 10), "tree": 8, "escapes": range(4, 12)},
    "probe": {"each": 3, "depths": range(4, 6), "tree": 5, "escapes": range(4, 6)},
}
SUBDIVISION_CELLS = 128  # stable cell count of the L = Lam = 6 subdivision
ENFILADE_R = (3, Fraction(7, 2), 4, 5)
TWO_LEVEL_ESCAPE = "s^-1 a s a^9 s^-1 a^-1 s"


def _fpoint(params, flavor, k):
    return HPoint(0, 0) if k == 0 else HPoint.generator(params, flavor, k)


def _jitter_pool(params, radius):
    """Every h in H with |h| <= radius."""
    return [
        HPoint(u, v)
        for u in range(-radius - 2 * params.L, radius + 2 * params.L + 1)
        for v in range(-3, 4)
        if vertex_group.dist_h(params, HPoint(u, v)) <= radius
    ]


def _split(rng, total, max_parts, max_exp):
    """A same-sign split of total into at most max_parts parts of size <= max_exp."""
    sign = 1 if total >= 0 else -1
    left = abs(total)
    k = rng.randint(max(1, -(-left // max_exp)), max_parts)
    parts = []
    for i in range(k):
        part = rng.randint(max(0, left - (k - 1 - i) * max_exp), min(max_exp, left))
        parts.append(part)
        left -= part
    rng.shuffle(parts)
    return [sign * p for p in parts]


def _polygon(params, kind, corners, flavors, exps):
    poly = filling.ApproxPolygon(kind, corners, flavors, exps, 0)
    return filling.ApproxPolygon(kind, corners, flavors, exps, max(poly.gaps(params)))


def _random_polygons(params, rng, each):
    """Jittered true bigons, triangles and diamonds with subdivided sides, as in
    the filling acceptance test: exponents <= L^2, at most 2L segments."""
    L = params.L
    max_exp, max_parts = L * L, 2 * L
    jitters = _jitter_pool(params, 2) + [HPoint(0, 0)] * 4
    sign = lambda: rng.choice((-1, 1))  # noqa: E731
    corner = lambda: HPoint(rng.randint(-20, 20), rng.randint(-2, 2))  # noqa: E731
    jit = lambda g: g * rng.choice(jitters)  # noqa: E731
    out = []
    for _ in range(each):
        flavor = rng.choice("axy")
        split = _split(rng, sign() * rng.randint(1, max_parts * max_exp), max_parts, max_exp)
        m0 = sum(split)
        g0 = corner()
        g1 = jit(g0 * _fpoint(params, flavor, m0))
        out.append(("bigon", _polygon(params, "bigon", (jit(g0), g1), (flavor, flavor), (m0, -m0)), (split,)))
    for _ in range(each):
        m = sign() * rng.randint(1, max_parts * max_exp // L)
        g0 = corner()
        g1 = g0 * _fpoint(params, "x", m)
        g2 = g1 * _fpoint(params, "y", m)
        poly = _polygon(params, "triangle", tuple(jit(g) for g in (g0, g1, g2)), ("x", "y", "a"), (m, m, -L * m))
        out.append(("triangle", poly, (_split(rng, -L * m, max_parts, max_exp),)))
    for _ in range(each):
        m = sign() * rng.randint(1, max_parts * max_exp)
        n = sign() * rng.randint(1, max_parts * max_exp)
        g1 = corner()
        h1 = g1 * _fpoint(params, "x", m)
        g2 = h1 * _fpoint(params, "y", n)
        h2 = g2 * _fpoint(params, "x", -m)
        poly = _polygon(
            params, "diamond", tuple(jit(g) for g in (g1, h1, g2, h2)), ("x", "y", "x", "y"), (m, n, -m, -n)
        )
        subs = (_split(rng, m, max_parts, max_exp), _split(rng, n, max_parts, max_exp))
        out.append(("diamond", poly, subs))
    return out


def setup_van_kampen(rng, scale):
    cfg = VK_SCALE[scale]
    params = GroupParams(6)
    escapes = []
    for n in cfg["escapes"]:
        flavor, R = rng.choice("st"), rng.choice(ENFILADE_R)
        sigma = paths.snowflake_path(params, n, flavor).chars
        escapes.append((f"{flavor} sigma_{n},{flavor} {flavor}^-1 at R={R}", flavor + sigma + flavor.upper(), R, sigma))
    return {
        "params": params,
        "polygons": _random_polygons(params, rng, cfg["each"]),
        "depths": list(cfg["depths"]),
        "tree": filling.snowflake_hnn_tree(params, cfg["tree"]),
        "escapes": escapes,
    }


def _diagram_ok(ctx, diagram, area_bound, mesh_bound):
    ctx.counts["filling.cells"] += diagram.area
    ctx.counts["filling.boundary_letters"] += sum(len(c.boundary.chars) for c in diagram.cells)
    ctx.outputs.append((diagram.area, diagram.mesh))
    return diagram.area <= area_bound and diagram.mesh <= mesh_bound and diagram.boundaries_trivial()


def run_van_kampen(inp, ctx):
    params, ck, rec = inp["params"], ctx.ck, ctx.rec
    C, a, L = params.C, params.alpha, params.L

    def fill_ok(kind, poly, splits):
        D = poly.D
        E = max(max(abs(e) for e in s) for s in splits)
        E = max(E, 1)
        lam = max(len(s) for s in splits)
        if kind == "bigon":
            diagram, *subs = filling.fill_bigon(params, poly, splits[0])
            area, mesh = lam, 2 * (2 * C + 1) * D + 2 * C * E ** (1 / a)
            exp_bound = E + L * D**a
        elif kind == "triangle":
            diagram, *subs = filling.fill_triangle(params, poly, splits[0])
            area, mesh = (lam * lam + 9 * lam + 6) / 2, 4 * C + (6 * C + 2) * D + 2 * C * E ** (1 / a)
            exp_bound = 1 + E / L + D**a
        else:
            diagram, *subs = filling.fill_diamond(params, poly, *splits)
            area, mesh = lam * lam + 4 * lam + 4, 3 * L + (8 * C + 2) * D + 4 * C * E ** (1 / a)
            exp_bound = E + 2 * L * D**a
        ctx.outputs.append(tuple(s.exponents for s in subs))
        return (
            _diagram_ok(ctx, diagram, area, mesh)
            and all(len(s.exponents) <= lam for s in subs)
            and all(s.max_exponent() <= exp_bound for s in subs)
        )

    rec.phase = "fillings"
    for i, (kind, poly, splits) in enumerate(inp["polygons"]):
        ck.ok(f"{kind} {i} within its bounds", lambda: fill_ok(kind, poly, splits))

    rec.phase = "subdivide"

    def subdivision_ok(p):
        diagram = filling.subdivide_snowflake(params, p, 6)
        return diagram.area == SUBDIVISION_CELLS and _diagram_ok(ctx, diagram, SUBDIVISION_CELLS, 5 * 2**p - 4)

    for p in inp["depths"]:
        ck.ok(f"snowflake subdivision p={p}", lambda: subdivision_ok(p))

    rec.phase = "central"

    def central_ok():
        loc = filling.find_central_region(inp["tree"])
        ctx.outputs.append((loc.kind, loc.node, loc.f_value))
        return loc.kind == "vertex" and loc.node == "center" and loc.f_value <= 0

    ck.ok("central region is the center", central_ok)

    rec.phase = "enfilade"

    def enfilade_ok(chars, R, depth, end):
        dec = paths.enfilade_decompose(params, PathWord(params, chars), R)
        ctx.outputs.append((dec.depth, dec.flavors, dec.exponents))
        return dec.reassemble().chars == chars and dec.depth == depth and dec.end.chars == end

    for label, chars, R, sigma in inp["escapes"]:
        ck.ok(f"enfilade of {label}", lambda: enfilade_ok(chars, R, 0, sigma))
    ck.ok("two-level enfilade", lambda: enfilade_ok(parse_word(TWO_LEVEL_ESCAPE), 4, 1, "a" * 9))


WORKLOADS = {
    "ball_oracle": (setup_ball_oracle, run_ball_oracle),
    "loop_verify": (setup_loop_verify, run_loop_verify),
    "h_metric": (setup_h_metric, run_h_metric),
    "van_kampen": (setup_van_kampen, run_van_kampen),
}
