import re
from typing import Optional

import pytest

from snowflake_groups import GroupParams, bfs_ball
from snowflake_groups.hnn_group import Ball, BudgetExceeded, _neighbors

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
    hnn_group._fold and reduce_chars."""
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
# the BFS search oracle: one-sided searches from a goal into an exact ball
# B(1, R) around the identity


MAX_STATES = 10_000_000  # the default budget of ball_dist on one stored search layer


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
