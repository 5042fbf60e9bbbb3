import re
from itertools import count
from typing import Optional

import pytest

from snowflake_groups import GroupParams, bfs_ball
from snowflake_groups.hnn_group import (
    Ball,
    BudgetExceeded,
    GroupElement,
    _fold,
    _key_invert,
    _key_parts,
    _neighbors,
    identity_key,
)

# ---------------------------------------------------------------------------
# the letter-at-a-time reference feed: a key is rebuilt as a tuple at every
# letter, sharing no code with the library's list-stack fold (hnn_group._fold)


def _feed_h(key, du, dv):
    """key times a^du x^dv."""
    if du == 0 and dv == 0:
        return key
    return key[:-2] + (key[-2] + du, key[-1] + dv)


def _feed_stable(L, key, code):
    """key times the stable letter with code s=1, s^-1=-1, t=3, t^-1=-3."""
    u, v = key[-2], key[-1]
    if code == 1:  # s: <x> crosses, x^v -> a^v
        ru, rv, cu, cv = u, 0, v, 0
    elif code == -1:  # s^-1: <a> crosses, a^u -> x^u
        ru, rv, cu, cv = 0, v, 0, u
    elif code == 3:  # t: <y> crosses, y^-v -> a^-v
        ru, rv, cu, cv = u + v * L, 0, -v, 0
    else:  # t^-1: <a> crosses, a^u -> y^u
        ru, rv, cu, cv = 0, v, u * L, -u
    if len(key) > 2 and key[-3] == -code and ru == 0 and rv == 0:
        # Britton pinch: drop the previous stable letter, merge the crossed part
        return key[:-5] + (key[-5] + cu, key[-4] + cv)
    return key[:-2] + (ru, rv, code, cu, cv)


_CODES = {"s": 1, "S": -1, "t": 3, "T": -3}


def _feed_char(L, key, ch):
    if ch in _CODES:
        return _feed_stable(L, key, _CODES[ch])
    du, dv = {"a": (1, 0), "A": (-1, 0), "x": (0, 1), "X": (0, -1), "y": (L, -1), "Y": (-L, 1)}[ch]
    return _feed_h(key, du, dv)


def reference_reduce(L, chars, key=(0, 0)):
    """Key of `key` times chars, one letter at a time: the reference for
    hnn_group.reduce_chars."""
    for ch in chars:
        key = _feed_char(L, key, ch)
    return key


_LETTERS = {code: ch for ch, code in _CODES.items()}


def _power_chars(gen, k):
    return (gen if k > 0 else gen.upper()) * abs(k)


def reference_key_chars(key):
    """The word of the normal form `key`, in normal-form order, every letter
    spelled out: the reference for GroupElement.word_chars and
    hnn_group._key_text."""
    out = [_power_chars("a", key[0]) + _power_chars("x", key[1])]
    for i in range(2, len(key), 3):
        out.append(_LETTERS[key[i]] + _power_chars("a", key[i + 1]) + _power_chars("x", key[i + 2]))
    return "".join(out)


def reference_prefix_keys(L, chars):
    """The keys of all prefixes of chars: the reference for prefix_keys."""
    keys = [(0, 0)]
    for ch in chars:
        keys.append(_feed_char(L, keys[-1], ch))
    return keys


def reference_mul(L, left, right):
    """The key of left times right: the reference for _key_mul."""
    out = _feed_h(left, right[0], right[1])
    for i in range(2, len(right), 3):
        out = _feed_stable(L, out, right[i])
        out = _feed_h(out, right[i + 1], right[i + 2])
    return out


def reference_invert(L, key):
    """The key of the inverse: the reference for _key_invert."""
    out = _feed_h((0, 0), -key[-2], -key[-1])
    for i in range(len(key) - 3, 1, -3):  # code positions, last syllable first
        out = _feed_stable(L, out, -key[i])
        out = _feed_h(out, -key[i - 2], -key[i - 1])
    return out


def reference_swap_st(L, key):
    """The key of the image under s <-> t: the reference for key_swap_st."""
    out = (key[0] + L * key[1], -key[1])
    for i in range(2, len(key), 3):
        out = _feed_stable(L, out, {1: 3, 3: 1, -1: -3, -3: -1}[key[i]])
        out = _feed_h(out, key[i + 1] + L * key[i + 2], -key[i + 2])
    return out


def right_fold_key(L, chars):
    """Normal-form key of chars folded in from the right, one letter at a time.

    O(n^2): the slow cross-check of reduce_word, which folds from the left.
    """
    out = (0, 0)
    for ch in reversed(chars):
        out = reference_mul(L, _feed_char(L, (0, 0), ch), out)
    return out


_CANCELLING = re.compile("|".join(ch + ch.swapcase() for ch in "aAsStTxXyY"))


def reference_free_reduce(chars):
    """The freely reduced word, cancelling every adjacent inverse pair a
    regex pass at a time until a pass finds none: the reference for
    words.free_reduce, which makes one pass over a letter stack."""
    n = 1
    while n:
        chars, n = _CANCELLING.subn("", chars)
    return chars


def reference_neighbors(L, key):
    """key times a, a^-1, s, s^-1, t, t^-1 by the letter-at-a-time feed:
    the reference for the library's one-pass _neighbors."""
    return (
        _feed_h(key, 1, 0),
        _feed_h(key, -1, 0),
        _feed_stable(L, key, 1),
        _feed_stable(L, key, -1),
        _feed_stable(L, key, 3),
        _feed_stable(L, key, -3),
    )


def bidirectional_dist(L, goal, cap):
    """Exact |goal| if it is <= cap, else None, by bidirectional BFS.

    The independent cross-check of the shared-ball search below and of the
    library's distance program (hnn_group._tree_dist): having expanded
    radii rA around 1 and rB around goal with no meeting vertex certifies
    |goal| > rA + rB.  Each step grows the smaller frontier.
    """
    start = (0, 0)
    if start == goal:
        return 0
    side = ({start: 0}, {goal: 0})
    frontier = ([start], [goal])
    radii = [0, 0]
    best = None
    while radii[0] + radii[1] < cap:
        if best is not None and best <= radii[0] + radii[1]:
            return best
        i = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        mine, other = side[i], side[1 - i]
        radii[i] += 1
        d = radii[i]
        nxt = []
        for key in frontier[i]:
            for nb in reference_neighbors(L, key):
                if nb not in mine:
                    mine[nb] = d
                    nxt.append(nb)
                    od = other.get(nb)
                    if od is not None and (best is None or d + od < best):
                        best = d + od
        frontier = (nxt, frontier[1]) if i == 0 else (frontier[0], nxt)
    if best is not None and best <= cap:
        return best
    return None


# ---------------------------------------------------------------------------
# the BFS search oracles: one ball B(1, r) around the identity, grown a layer
# at a time, and one-sided searches from each goal into it, with goals that
# an isometry fixing the identity maps onto each other searched once


SWAP_CODES = {1: 3, 3: 1, -1: -3, -3: -1}
MAX_STATES = 10_000_000  # the oracles' default budget on one stored search layer


def key_swap_st(L, key):
    """Image under the automorphism s <-> t (so x <-> y), fixing a.

    a^u x^v maps to a^u y^v = a^(u + L v) x^-v; a representative before
    s^-1 (a pure x-power) maps to a y-power before t^-1, which the fold
    brings back to normal form.
    """
    steps = [(0, key[0] + L * key[1], -key[1])]
    steps += ((SWAP_CODES[code], u + L * v, -v) for code, u, v in _key_parts(key))
    return _fold(L, identity_key(), steps)


def key_negate_a(key):
    """Image under the automorphism a -> a^-1 (so x -> x^-1, y -> y^-1)."""
    return tuple(c if i % 3 == 2 else -c for i, c in enumerate(key))


def canonical_key(L, key):
    """The least key among the images of key under inversion, s <-> t and
    a -> a^-1.  These fix {a, s, t}^(+-1) and the identity, so the 8 images
    have one length |g|, and each maps B(1, R) onto itself."""
    images = []
    for k in (key, key_swap_st(L, key)):
        for k2 in (k, _key_invert(L, k)):
            images += (k2, key_negate_a(k2))
    return min(images)



def ball_dist(
    ball: Ball, goal, cap: int, max_states: int = MAX_STATES
) -> Optional[int]:
    """Exact |goal| if it is <= cap, else None, by BFS out of goal into `ball`.

    `ball` must be an exact ball B(1, R), as bfs_ball builds it.
    Layer k of the search holds the elements at distance k from goal.  A
    geodesic from goal to 1 of length d <= k + R meets the ball within k
    steps, so once layer k has no ball element, d > k + R; then the first
    hit in layer k + 1 lies on the sphere of radius R and d = k + 1 + R
    exactly.  The search stops with None once k + R >= cap, so it expands
    at most max(cap - R, 0) layers.  The budget caps each stored layer,
    checked after each expanded key; the last layer is only probed against
    the ball, never stored, as it is the largest.
    """
    dist, R = ball.distances, ball.radius
    d = dist.get(goal)
    if d is not None:
        return d if d <= cap else None
    L = ball.params.L
    seen = {goal}
    frontier = [goal]
    for k in range(1, cap - R):
        nxt: list = []
        for key in frontier:
            for nb in _neighbors(L, key):
                if nb not in seen:
                    if nb in dist:
                        return k + R
                    seen.add(nb)
                    nxt.append(nb)
            if len(nxt) > max_states:
                raise BudgetExceeded(frontier=len(nxt), visited=len(seen))
        frontier = nxt
    if cap > R:  # layer cap - R: only probed, no layer comes after it
        for key in frontier:
            for nb in _neighbors(L, key):
                if nb in dist:
                    return cap
    return None


def goal_distances(
    params: GroupParams,
    goals: list[tuple[tuple, int]],
    max_states: int = MAX_STATES,
    first_only: bool = False,
) -> dict[int, Optional[int]]:
    """{index: |goal| if it is <= cap, else None} for the (goal, cap) pairs.

    Goals are grouped by isometry class (canonical_key) and cap, and each
    group is searched once; every member index gets its group's result.
    A ball B(1, r) is built by bfs_ball (within its own fixed limit,
    hnn_group.MAX_BALL_STATES) for r = 0, 1, 2, ...  At each r, every
    group not yet settled is searched with ball_dist to min(cap, 2r - p),
    p the parity of the goal (= |goal| mod 2, so a cap of the other parity
    is lowered by one); a group is settled once its distance is found or
    the search reached its cap.  A goal at distance d is settled at radius
    ceil(d / 2) and the balls go only as far as the farthest unsettled
    goal needs.  Building and searching again at each radius costs a
    geometric series, about a quarter more than at the last radius alone
    (spheres of G_6 grow about 4.9x per layer).

    Groups are searched in the order of their lowest member index.  With
    first_only, only the lowest index within its cap matters: once a group
    is found, the groups after it are dropped (and left out of the
    result), and the search stops once no group before it is unsettled.
    """
    groups: dict[tuple[tuple, int], list[int]] = {}
    for i, (goal, cap) in enumerate(goals):
        cap -= (cap - GroupElement(params, goal).parity()) % 2
        groups.setdefault((canonical_key(params.L, goal), cap), []).append(i)
    pending = [(members, goal, cap) for (goal, cap), members in groups.items()]
    out: dict[int, Optional[int]] = {}
    for r in count():
        ball = bfs_ball(params, r)
        rest = []
        for members, goal, cap in pending:
            c = min(cap, 2 * ball.radius - cap % 2)  # cap has the parity of |goal|
            d = ball_dist(ball, goal, c, max_states)
            if d is None and c < cap:
                rest.append((members, goal, cap))
                continue
            out.update(dict.fromkeys(members, d))
            if first_only and d is not None:
                break
        pending = rest
        if not pending:
            return out


@pytest.fixture(scope="session")
def p6():
    return GroupParams(6)


@pytest.fixture(scope="session")
def p8():
    return GroupParams(8)


@pytest.fixture(scope="session")
def p10():
    return GroupParams(10)


@pytest.fixture(scope="session")
def p12():
    return GroupParams(12)


@pytest.fixture(scope="session")
def ball6_r6(p6):
    """A small L = 6 ball reused as the brute-force distance oracle."""
    return bfs_ball(p6, 6)
