"""Britton normal forms, group laws, the BFS oracles and the distance program."""

import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowflake_groups import (
    BudgetExceeded,
    GroupElement,
    GroupParams,
    HPoint,
    bfs_ball,
    dist_h,
    geodesic_word_h,
    pair_dist,
    reduce_word,
)
from snowflake_groups import hnn_group
from snowflake_groups.hnn_group import (
    _fold,
    _key_invert,
    _key_mul,
    _line,
    _key_text,
    _letters,
    _line_table,
    _neighbors,
    _tree_dist,
    h_visits,
    prefix_keys,
    reduce_chars,
)
from snowflake_groups.words import format_word

from conftest import (
    ball_dist,
    bidirectional_dist,
    reference_invert,
    reference_key_chars,
    reference_mul,
    reference_neighbors,
    reference_prefix_keys,
    reference_reduce,
    right_fold_key,
)

words = st.text(alphabet="aAsStT", max_size=30)


def test_reduce_examples(p6):
    g = reduce_word(p6, "s a s^-1")
    assert g.key == HPoint(0, 1)
    assert str(g) == "x"
    assert reduce_word(p6, "s s^-1").is_identity()
    assert reduce_word(p6, "s a^6 s^-1 t a^6 t^-1 a^-36").is_identity()


def test_reduce_is_britton_reduced(p6):
    # the inner t a t^-1 pinches to y; the outer s pair survives because
    # a^4 y = a^10 x^-1 is not an a-power
    g = reduce_word(p6, "s a^3 t a t^-1 a s^-1")
    assert g.key == (0, 0, 1, 0, -1, -1, 0, 10)  # 1, s, x^-1, s^-1, tail x^10
    assert reduce_word(p6, "s x^-1 s^-1 x^10").key == g.key


def test_canonical_coset_representatives(p6):
    # before s or t the H part is an a-power; before s^-1 or t^-1 an x-power
    rng = random.Random(7)
    for _ in range(300):
        w = "".join(rng.choice("aAsStTxXyY") for _ in range(rng.randint(0, 25)))
        key = reduce_word(p6, w).key
        for i in range(2, len(key), 3):  # key[i] is a stable letter, key[i-2:i] the H part before it
            u, v = key[i - 2], key[i - 1]
            assert (v if key[i] > 0 else u) == 0, (w, key)


def test_multiply_invert_examples(p6):
    x = reduce_word(p6, "s a s^-1")
    y = reduce_word(p6, "t a t^-1")
    assert (x * y).key == HPoint(6, 0)  # a^L = x y
    assert reduce_word(p6, "1").inverse().is_identity()
    xinv = reduce_word(p6, "s a^-1 s^-1")
    assert (x * xinv).is_identity()


def test_vertex_group_embedding(p6):
    rng = random.Random(3)
    for _ in range(100):
        w = "".join(rng.choice("aAxXyY") for _ in range(rng.randint(0, 20)))
        g = reduce_word(p6, w)
        expect = HPoint(0, 0)
        for ch in w:
            step = {
                "a": HPoint(1, 0), "A": HPoint(-1, 0),
                "x": HPoint(0, 1), "X": HPoint(0, -1),
                "y": HPoint(6, -1), "Y": HPoint(-6, 1),
            }[ch]
            expect = expect * step
        assert g.key == expect


@settings(max_examples=300, deadline=None)
@given(w=words)
def test_confluence_and_inverse(w):
    params = GroupParams(6)
    gl = reduce_word(params, w)
    assert gl.key == right_fold_key(params.L, w)
    assert (gl * gl.inverse()).is_identity()
    assert (gl.inverse() * gl).is_identity()


@settings(max_examples=120, deadline=None)
@given(w1=words, w2=words, w3=words)
def test_associativity(w1, w2, w3):
    params = GroupParams(8)
    g1, g2, g3 = (reduce_word(params, w) for w in (w1, w2, w3))
    assert ((g1 * g2) * g3).key == (g1 * (g2 * g3)).key


@settings(max_examples=150, deadline=None)
@given(w1=words, w2=words)
def test_multiply_matches_concatenation(w1, w2):
    params = GroupParams(6)
    assert (reduce_word(params, w1) * reduce_word(params, w2)).key == reduce_word(params, w1 + w2).key


def test_normal_form_string_roundtrip(p6):
    rng = random.Random(11)
    for _ in range(200):
        w = "".join(rng.choice("aAsStT") for _ in range(rng.randint(0, 24)))
        g = reduce_word(p6, w)
        assert reduce_word(p6, g.word_chars()).key == g.key
        assert reduce_word(p6, str(g)).key == g.key


def test_word_chars_refused_past_max_letters(monkeypatch):
    # the spelled normal form is refused from its syllables, before a letter
    # is written: t^-1 a^(10^30) x^-1 would take 10^30 letters
    with pytest.raises(ValueError, match="word longer than 10000000 letters"):
        reduce_word(GroupParams(10**30), "aT").word_chars()
    monkeypatch.setattr("snowflake_groups.words.MAX_LETTERS", 17)
    p6 = GroupParams(6)
    assert GroupElement(p6, (8, 0, 1, 0, -8)).word_chars() == "a" * 8 + "s" + "X" * 8
    with pytest.raises(ValueError, match="word longer than 17 letters"):
        GroupElement(p6, (8, 0, 1, 0, -9)).word_chars()


def test_reduce_word_rejects_bad_letters(p6):
    with pytest.raises(ValueError, match=r"invalid letters \['b', 'c'\]"):
        reduce_word(p6, "abc")


def _random_word(rng, max_len):
    return "".join(rng.choice("aAsStTxXyY") for _ in range(rng.randrange(max_len)))


def _big_key(rng, L):
    """A normal form with coordinates near 10^30: every coordinate of a
    random key scaled (zeros stay zero, so it stays reduced), tail moved."""
    key = reference_reduce(L, _random_word(rng, 12))
    big = 10**30 + rng.randrange(1000)
    key = tuple(c if i % 3 == 2 else c * big for i, c in enumerate(key))
    return key[:-2] + (key[-2] + rng.randrange(-5, 6), key[-1] + rng.randrange(-5, 6))


def _fold_chars(L, start, chars):
    """The key of `start` times chars, by _fold from that start key."""
    return _fold(L, start, map(_letters(L).__getitem__, chars))


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_fold_matches_reference_feed(L):
    # the list-stack fold against the letter-at-a-time feed, from start keys
    # near 10^30, on random words over all ten letters that contain one of
    # the pinches s a^k s^-1, s^-1 x^k s, t a^k t^-1, t^-1 y^k t
    rng = random.Random(L)
    for _ in range(300):
        start = _big_key(rng, L)
        pinches = []
        for stable, crossing in (("s", "a"), ("S", "x"), ("t", "a"), ("T", "y")):
            run = rng.choice((crossing, crossing.upper())) * rng.randrange(5)
            pinch = stable + run + stable.swapcase()
            key = _fold_chars(L, start, pinch)
            # the pinch is an element of H: it moves the tail and nothing else
            assert key == reference_reduce(L, pinch, start) and len(key) == len(start), pinch
            pinches.append(pinch)
        w = _random_word(rng, 30)
        cut = rng.randrange(len(w) + 1)
        w = w[:cut] + rng.choice(pinches) + w[cut:]
        key = _fold_chars(L, start, w)
        assert reduce_chars(L, w) == reference_reduce(L, w), w
        assert key == reference_reduce(L, w, start), (start, w)
        assert prefix_keys(L, w) == reference_prefix_keys(L, w), w
        visits = [(i, *k) for i, k in enumerate(reference_prefix_keys(L, w)) if len(k) == 2]
        assert h_visits(L, w) == visits, w
        other = _big_key(rng, L)
        assert _key_mul(L, key, other) == reference_mul(L, key, other), (key, other)
        assert _key_invert(L, key) == reference_invert(L, key), key


# ---------------------------------------------------------------------------
# BFS oracles


def test_ball_radius_one(p6):
    ball = bfs_ball(p6, 1)
    assert len(ball) == 7  # identity plus six generators


def test_ball_contains_known_distances(p6, ball6_r6):
    assert ball6_r6.distances[reduce_word(p6, "a^6").key] == 6
    assert bfs_ball(p6, 9).distances[reduce_word(p6, "a^11").key] == 9
    assert reduce_word(p6, "a^11").key not in ball6_r6.distances


def test_ball_oracle_and_parity(p6, ball6_r6):
    for h, d in ball6_r6.h_elements():
        assert dist_h(p6, h) == d
    for key, d in ball6_r6.distances.items():
        assert GroupElement(p6, key).parity() == d % 2


def test_ball_budget_error(p6, monkeypatch):
    monkeypatch.setattr(hnn_group, "MAX_BALL_STATES", 1000)
    with pytest.raises(BudgetExceeded) as info:
        bfs_ball(p6, 8)
    # the whole ball is bounded, checked as each layer grows: at most one
    # expanded key (6 neighbours) past the limit is stored
    assert 1000 < info.value.visited <= 1000 + 6
    assert len(bfs_ball(p6, 3)) == 1 + 6 + 30 + 150 <= 1000  # a ball within the limit is whole


def test_ball_jsonl_dump(p6):
    ball = bfs_ball(p6, 2)
    buf = io.StringIO()
    ball.dump_jsonl(buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == len(ball)
    first = json.loads(lines[0])
    assert first == {"normal_form": "1", "distance": 0}
    assert all(set(json.loads(l)) == {"normal_form", "distance"} for l in lines)


@pytest.mark.parametrize("L, R", [(6, 7), (8, 6), (10, 5)])
def test_normal_form_text_matches_spelled_word(L, R):
    # the token form read off the syllables is the spelled normal form with
    # its runs collapsed, and word_chars spells it back, on every key of the ball
    params = GroupParams(L)
    ball = bfs_ball(params, R)
    spelled = {}
    for key in ball.distances:
        chars = reference_key_chars(key)
        spelled[key] = format_word(chars)
        assert _key_text(key) == spelled[key], key
        assert GroupElement(params, key).word_chars() == chars, key
    buf = io.StringIO()
    ball.dump_jsonl(buf)
    assert sorted(json.loads(line)["normal_form"] for line in buf.getvalue().splitlines()) == sorted(
        spelled.values()
    )


def test_pair_dist_examples(p6):
    one = reduce_word(p6, "1")
    a6 = reduce_word(p6, "a^6")
    assert pair_dist(p6, one, a6, 10) == 6
    g = reduce_word(p6, "s a^2 t a^-1 t^-1")
    assert pair_dist(p6, g, g, 3) == 0
    x = reduce_word(p6, "s a s^-1")
    y = reduce_word(p6, "t a t^-1")
    assert pair_dist(p6, x, y, 10) == 6  # |x^-1 y| = dist_h((6, -2))
    assert dist_h(p6, HPoint(6, -2)) == 6


def test_pair_dist_matches_ball(p6, ball6_r6):
    one = reduce_word(p6, "1")
    rng = random.Random(5)
    keys = list(ball6_r6.distances)
    for key in rng.sample(keys, 40):
        g = GroupElement(p6, key)
        assert pair_dist(p6, one, g, 6) == ball6_r6.distances[key]
    # off the identity: d(g1, g1 h) = |h|, None beyond radius 6
    for key in rng.sample(keys, 40):
        g1 = GroupElement(p6, key)
        h = reduce_word(p6, "".join(rng.choice("aAsStT") for _ in range(rng.randrange(9))))
        assert pair_dist(p6, g1, g1 * h, 6) == ball6_r6.distances.get(h.key), (key, str(h))


def test_pair_dist_cap(p6):
    one = reduce_word(p6, "1")
    a36 = reduce_word(p6, "a^36")  # distance 16
    assert pair_dist(p6, one, a36, 10) is None
    assert pair_dist(p6, one, a36, 16) == 16


def test_pair_dist_budget(p6, monkeypatch):
    one = reduce_word(p6, "1")
    a36 = reduce_word(p6, "a^36")  # distance 16: the line table for cap 16 holds 55 points
    monkeypatch.setattr(hnn_group, "MAX_POINTS", 55)
    assert pair_dist(p6, one, a36, 16) == 16
    monkeypatch.setattr(hnn_group, "MAX_POINTS", 50)
    with pytest.raises(BudgetExceeded) as info:
        pair_dist(p6, one, a36, 16)
    assert info.value.frontier == 55  # refused before it is stored
    # a level of S(14) past the limit: checked after each multiple of L
    monkeypatch.setattr(hnn_group, "MAX_POINTS", 20)
    with pytest.raises(BudgetExceeded) as info:
        pair_dist(p6, one, a36, 16)
    assert 20 < info.value.frontier <= 20 + 2 * 6 - 1


def test_tree_dist_layer_budget(p6, monkeypatch):
    # each layer of the program is checked after each state's line: the
    # first layer of t a t a ... is one y-line of 49 points
    table = _line_table(6, 20)
    key = reduce_chars(6, "ta" * 5)
    monkeypatch.setattr(hnn_group, "MAX_POINTS", 49)
    assert _tree_dist(6, table, key, 20) == 10
    monkeypatch.setattr(hnn_group, "MAX_POINTS", 30)
    with pytest.raises(BudgetExceeded) as info:
        _tree_dist(6, table, key, 20)
    assert info.value.frontier == len(_line(6, table, 0, 0, "y", 20 - 5)) == 49


def test_tree_dist_refuses_a_short_table():
    # |a^6| = 6: a table reaching 2 cannot read it within the cap 10
    key = reduce_chars(6, "a" * 6)
    with pytest.raises(ValueError, match="reaches 2, below cap - n = 10"):
        _tree_dist(6, _line_table(6, 2), key, 10)
    assert _tree_dist(6, _line_table(6, 10), key, 10) == 6
    # n crossings lower the reach the table needs by n
    key = reduce_chars(6, "sas")
    assert _tree_dist(6, _line_table(6, 8), key, 10) == 3


@pytest.mark.parametrize("L, R", [(6, 7), (8, 6)])
def test_tree_dist_matches_ball(L, R):
    # the program along the Bass-Serre tree against BFS on a whole ball:
    # exact within the cap, None just below the distance
    params = GroupParams(L)
    table = _line_table(L, R)
    for key, d in bfs_ball(params, R).distances.items():
        assert _tree_dist(L, table, key, R) == d, key
        assert d == 0 or _tree_dist(L, table, key, d - 1) is None, key


def test_tree_dist_matches_bfs_to_distance_16(p6):
    # the program at cap 16 against one-sided BFS into B(1, 8), on seeded H
    # points and {a, s, t} words, every distance from 11 to 16 among them:
    # exact within the cap, None just below the distance
    ball = bfs_ball(p6, 8)
    table = _line_table(6, 16)
    rng = random.Random(3)
    goals = [reduce_chars(6, "a" * 36)]  # distance 16
    goals += [(rng.randrange(-40, 41), rng.randrange(-3, 4)) for _ in range(12)]
    words = ("".join(rng.choice("aAsStT") for _ in range(rng.randrange(16, 24))) for _ in range(12))
    goals += [reduce_chars(6, w) for w in words]
    found = set()
    for key in goals:
        d = ball_dist(ball, key, 16)
        assert _tree_dist(6, table, key, 16) == d, key
        if d is not None:
            assert d == 0 or _tree_dist(6, table, key, d - 1) is None, key
            if len(key) == 2:
                assert dist_h(p6, HPoint(*key)) == d, key
            found.add(d)
    assert set(range(11, 17)) <= found


def _joined(params, rng, stable):
    """The H-geodesic words of stable + 1 seeded points of H, joined by
    seeded letters s and t: no pinch cancels a positive stable letter, so
    the element has exactly `stable` of them."""
    points = [HPoint(rng.randrange(-500, 500), rng.randrange(-8, 9)) for _ in range(stable + 1)]
    letters = [rng.choice("st") for _ in range(stable)]
    return "".join(geodesic_word_h(params, h).chars + c for h, c in zip(points, [*letters, ""]))


# (stable letters, seed) of the elements near distance 100 checked at L = 6
_FAR = {6: ((2, 2), (2, 5), (3, 3), (3, 7))}


@pytest.mark.parametrize("L", [6, 8, 12])
def test_tree_dist_local_certificate(L):
    # past any BFS oracle: the six neighbours of g are at |g| +- 1 (the Cayley
    # graph is bipartite for even L) and one of them at |g| - 1, so a wrong
    # distance breaks this at g or at a neighbour.  Seeded H points up to
    # about 140, elements with stable letters up to about 45 and, at L = 6,
    # elements with 2 and 3 stable letters near 100, each first read within
    # the length of the word that spells it
    params = GroupParams(L)
    rng = random.Random(L)
    points = (HPoint(rng.randrange(-3 * L**4, 3 * L**4), rng.randrange(-8, 9)) for _ in range(12))
    words = [geodesic_word_h(params, h).chars for h in points]
    words += ["".join(rng.choice("aAsStT") for _ in range(rng.randrange(30, 60))) for _ in range(12)]
    far = [_joined(params, random.Random(seed), stable) for stable, seed in _FAR.get(L, ())]
    assert [len(reduce_chars(L, w)) for w in far] == [2 + 3 * stable for stable, _ in _FAR.get(L, ())]
    table = _line_table(L, max(map(len, words + far)) + 1)
    for w in words + far:
        key = reduce_chars(L, w)
        d = _tree_dist(L, table, key, len(w))
        assert d is not None and (w not in far or d >= 85), w
        near = [_tree_dist(L, table, nb, d + 1) for nb in _neighbors(L, key)]
        assert set(near) <= {d - 1, d + 1} and d - 1 in near, (w, d, near)


@pytest.mark.parametrize("L", [6, 8, 12])
def test_line_reads_match_dist_h(L):
    # every point of a line within b, and no other, with its dist_h
    params = GroupParams(L)
    rng = random.Random(L)
    for _ in range(40):
        b = rng.randrange(14)
        table = _line_table(L, b)
        u, v = rng.randrange(-80, 81), rng.randrange(-12, 13)
        reach = (max(table[0]) + abs(u) + abs(v) + 2) * L
        for gen, (du, dv) in (("a", (1, 0)), ("x", (0, 1)), ("y", (L, -1))):
            want = {}
            for k in range(-reach, reach + 1):
                d = dist_h(params, HPoint(u + k * du, v + k * dv))
                if d <= b:
                    want[k] = d
            assert _line(L, table, u, v, gen, b) == want, (u, v, gen, b)


@pytest.mark.parametrize("L", [6, 8])
def test_ball_dist_matches_pair_dist(L):
    # one-sided search into B(1, R) against the bidirectional oracle
    params = GroupParams(L)
    balls = {R: bfs_ball(params, R) for R in range(8)}
    rng = random.Random(L)
    for _ in range(300):
        word = "".join(rng.choice("aAsStT") for _ in range(rng.randrange(13)))
        g = reduce_word(params, word)
        cap = rng.randrange(8)
        R = rng.randint(cap // 2, cap)
        assert ball_dist(balls[R], g.key, cap) == bidirectional_dist(L, g.key, cap), (word, cap, R)


def test_ball_dist_budget(p6):
    # cap 6 over B(1, 2): layers 1-3 (6, 30, 150 elements) are stored, the
    # last one (734) is only probed
    a36 = reduce_word(p6, "a^36")  # distance 16
    ball = bfs_ball(p6, 2)
    assert ball_dist(ball, a36.key, 6, max_states=150) is None
    with pytest.raises(BudgetExceeded) as info:
        ball_dist(ball, a36.key, 6, max_states=149)
    assert 149 < info.value.frontier <= 149 + 6


def test_bfs_ball_rejects_negative_radius(p6):
    with pytest.raises(ValueError, match="radius"):
        bfs_ball(p6, -1)
    assert bfs_ball(p6, 0).sphere_sizes() == [1]


@pytest.mark.parametrize("L", [6, 8])
def test_neighbors_match_reference_on_ball(L):
    for key in bfs_ball(GroupParams(L), 6).distances:
        assert _neighbors(L, key) == reference_neighbors(L, key), key


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_neighbors_match_reference_on_random_words(L):
    # x and y letters leave tails off the ball's lattice; every pinch rule of
    # the one-pass step is reached: s after s^-1 (u = 0), s^-1 after s
    # (v = 0), t after t^-1 (u + L v = 0), t^-1 after t (v = 0)
    rng = random.Random(L)
    pinches = set()
    for _ in range(2000):
        word = "".join(rng.choice("aAsStTxXyY") for _ in range(rng.randrange(16)))
        key = reduce_chars(L, word)
        nbs = _neighbors(L, key)
        assert nbs == reference_neighbors(L, key), word
        pinches.update(i for i in (2, 3, 4, 5) if len(nbs[i]) < len(key))
    assert pinches == {2, 3, 4, 5}


def test_pair_dist_far_goal_is_never_spelled(p6):
    # the classes are computed on keys: spelling a^(10^9) out would take 1 GB
    one = reduce_word(p6, "1")
    assert pair_dist(p6, one, GroupElement(p6, (10**9, 0)), 4) is None
