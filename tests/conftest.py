import pytest

from snowflake_groups import GroupParams, bfs_ball
from snowflake_groups.hnn_group import _feed_h, _feed_stable, _key_mul, reduce_chars


def right_fold_key(L, chars):
    """Normal-form key of chars folded in from the right, one letter at a time.

    O(n^2): the slow cross-check of reduce_word, which folds from the left.
    """
    out = (0, 0)
    for ch in reversed(chars):
        out = _key_mul(L, reduce_chars(L, ch), out)
    return out


def reference_free_reduce(chars):
    """The freely reduced word by a letter-by-letter stack: the reference for
    words.free_reduce, which cancels pairs a pass at a time."""
    out = []
    for ch in chars:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


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

    The independent cross-check of the library's shared-ball search: having
    expanded radii rA around 1 and rB around goal with no meeting vertex
    certifies |goal| > rA + rB.  Each step grows the smaller frontier.
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
