"""Britton normal forms and exact distances for G_L.

G_L is a double HNN extension of H = <a, x> = Z^2 with stable letters
s (conjugating <a> to <x>) and t (conjugating <a> to <y>).

A normal form is

    head . e_1 . r_1 . e_2 . r_2 ... e_k . tail

with head and the r_i canonical coset representatives: before each stable
letter the part of H that can cross it is pushed to the right,

    x^k s = s a^k      a^k s^-1 = s^-1 x^k
    y^k t = t a^k      a^k t^-1 = t^-1 y^k

so the H part preceding s or t is a pure a-power and the H part
preceding s^-1 or t^-1 is a pure x-power.  The H part after the final
stable letter (the tail) is unconstrained.  Pinches s a^k s^-1,
s^-1 x^k s, t a^k t^-1, t^-1 y^k t are removed as they appear.

Internally a normal form is a flat tuple of integers

    (hu, hv, c_1, u_1, v_1, ..., c_k, u_k, v_k)

with letter codes s=1, s^-1=-1, t=3, t^-1=-3 and (u_i, v_i) the canonical
coordinates of r_i.  (Not t=2, t^-1=-2: CPython hashes -1 and -2 alike, so
keys differing only in s^-1 against t^-1 would share a hash and slow down
every dict the searches keep.)  All helpers taking such "keys" are pure;
the module has no mutable state, so everything here is safe to share
across threads.

Reduction, multiplication, inversion and s <-> t all fold letters or
syllables into a key held as a list stack (_fold), so each letter costs
O(1).  The crossing rules above live in _fold and once more in the BFS
step _neighbors, which applies all six letters to a key in one pass.

Distances in the {a, s, t} Cayley graph come from one search: a ball
B(1, r) grown a layer at a time (_ball_layers) and one-sided searches from
each goal into it (_ball_dist), the goal of d(g1, g2) being g1^-1 g2.
bfs_ball, pair_dist and the loop checks of paths all run on it.  Both
steps take their neighbours from the one-pass _neighbors, and goals that
one of inversion, s <-> t and a -> a^-1 maps onto each other are searched
once (_canonical), as these isometries fix the identity and the generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, TextIO

import json

from .params import GroupParams
from .vertex_group import HPoint
from .words import format_word, parse_word, power_chars

_LETTER = {1: "s", -1: "S", 3: "t", -3: "T"}

DEFAULT_MAX_STATES = 10_000_000

Key = tuple  # flat normal-form tuple


class InvariantViolation(RuntimeError):
    """A guarantee the code states (a snap distance, a rounding order) failed."""


class BudgetExceeded(RuntimeError):
    """Raised when a search would exceed its state budget."""

    def __init__(self, frontier: int, visited: int):
        super().__init__(
            f"state budget exceeded: {visited} states visited, frontier size {frontier}"
        )
        self.frontier = frontier
        self.visited = visited


def identity_key() -> Key:
    return (0, 0)


def _letters(L: int) -> dict[str, tuple[int, int, int]]:
    """The letter dispatch: letter -> its step (code, du, dv) for _fold.

    A stable letter has its code and (0, 0); a letter of H has code 0 and the
    step (du, dv) by which it moves the tail, with y = a^L x^-1.
    """
    return {
        "s": (1, 0, 0), "S": (-1, 0, 0),
        "t": (3, 0, 0), "T": (-3, 0, 0),
        "a": (0, 1, 0), "A": (0, -1, 0),
        "x": (0, 0, 1), "X": (0, 0, -1),
        "y": (0, L, -1), "Y": (0, -L, 1),
    }


def _fold(
    L: int, key: Key, steps: Iterable[tuple[int, int, int]], prefixes: Optional[list] = None
) -> Key:
    """Key of the element `key` times the steps, folded in left to right.

    A step (code, du, dv) is the stable letter `code` (none if 0) followed
    by a^du x^dv: a letter of _letters, or a syllable of a key.  All of the
    key but its tail is held in one flat list, a stack of the triples
    (u_i, v_i, c_i): the representative before each stable letter and its
    code.  The tail (u, v) lives in two locals.  A stable letter pushes its
    triple or, in a pinch, deletes the top one, so a letter costs O(1)
    instead of a copy of the key.  These are the crossing rules of the
    normal form; the BFS step _neighbors writes them out once more for its
    six letters.  With `prefixes`, the key after each step is appended to it.
    """
    stack = list(key[:-2])
    u, v = key[-2], key[-1]
    for code, du, dv in steps:
        if not code:
            u += du
            v += dv
        else:
            if code == 1:  # s: <x> crosses, x^v -> a^v
                ru, rv, cu, cv = u, 0, v, 0
            elif code == -1:  # s^-1: <a> crosses, a^u -> x^u
                ru, rv, cu, cv = 0, v, 0, u
            elif code == 3:  # t: <y> crosses, y^-v -> a^-v
                ru, rv, cu, cv = u + v * L, 0, -v, 0
            else:  # t^-1: <a> crosses, a^u -> y^u
                ru, rv, cu, cv = 0, v, u * L, -u
            if ru == rv == 0 and stack and stack[-1] == -code:
                # Britton pinch: drop the previous stable letter, merge the crossed part
                u, v = stack[-3] + cu + du, stack[-2] + cv + dv
                del stack[-3:]
            else:
                stack += (ru, rv, code)
                u, v = cu + du, cv + dv
        if prefixes is not None:
            prefixes.append((*stack, u, v))
    return (*stack, u, v)


def reduce_chars(L: int, chars: str, key: Key = (0, 0)) -> Key:
    """Key of the element `key` times the word chars."""
    return _fold(L, key, map(_letters(L).__getitem__, chars))


def prefix_keys(L: int, chars: str) -> list[Key]:
    """The keys of all prefixes of chars, shortest first (len(chars) + 1 keys)."""
    keys = [identity_key()]
    _fold(L, identity_key(), map(_letters(L).__getitem__, chars), keys)
    return keys


def _key_parts(key: Key) -> Iterator[tuple[int, int, int]]:
    """Yield (code, u, v) for each syllable."""
    for i in range(2, len(key), 3):
        yield key[i], key[i + 1], key[i + 2]


def _key_chars(key: Key) -> str:
    """A word (in normal form order) spelling the element."""
    out = [power_chars("a", key[0]) + power_chars("x", key[1])]
    for code, u, v in _key_parts(key):
        out.append(_LETTER[code])
        out.append(power_chars("a", u) + power_chars("x", v))
    return "".join(out)


def _key_invert(L: int, key: Key) -> Key:
    steps = [(0, -key[-2], -key[-1])]
    for i in range(len(key) - 3, 1, -3):  # code positions, last syllable first
        steps.append((-key[i], -key[i - 2], -key[i - 1]))
    return _fold(L, identity_key(), steps)


def _key_mul(L: int, left: Key, right: Key) -> Key:
    return _fold(L, left, chain(((0, right[0], right[1]),), _key_parts(right)))


_SWAP_ST = {1: 3, 3: 1, -1: -3, -3: -1}


def _key_swap_st(L: int, key: Key) -> Key:
    """Image under the automorphism s <-> t (so x <-> y), fixing a.

    a^u x^v maps to a^u y^v = a^(u + L v) x^-v; a representative before
    s^-1 (a pure x-power) maps to a y-power before t^-1, which the fold
    brings back to normal form.
    """
    steps = [(0, key[0] + L * key[1], -key[1])]
    steps += ((_SWAP_ST[code], u + L * v, -v) for code, u, v in _key_parts(key))
    return _fold(L, identity_key(), steps)


def _key_negate_a(key: Key) -> Key:
    """Image under the automorphism a -> a^-1 (so x -> x^-1, y -> y^-1)."""
    return tuple(c if i % 3 == 2 else -c for i, c in enumerate(key))


def _canonical(L: int, key: Key) -> Key:
    """The least key among the images of key under inversion, s <-> t and
    a -> a^-1.  These fix {a, s, t}^(+-1) and the identity, so the 8 images
    have one length |g|, and each maps B(1, R) onto itself."""
    images = []
    for k in (key, _key_swap_st(L, key)):
        for k2 in (k, _key_invert(L, k)):
            images += (k2, _key_negate_a(k2))
    return min(images)


@dataclass(frozen=True)
class GroupElement:
    """An element of G_L in Britton normal form."""

    params: GroupParams
    key: Key

    @classmethod
    def identity(cls, params: GroupParams) -> "GroupElement":
        return cls(params, identity_key())

    @property
    def head(self) -> HPoint:
        return HPoint(self.key[0], self.key[1])

    @property
    def syllables(self) -> tuple[tuple[str, HPoint], ...]:
        return tuple((_LETTER[c], HPoint(u, v)) for c, u, v in _key_parts(self.key))

    @property
    def tail(self) -> HPoint:
        return HPoint(self.key[-2], self.key[-1])

    def is_identity(self) -> bool:
        return self.key == (0, 0)

    def in_vertex_group(self) -> bool:
        return len(self.key) == 2

    def h_point(self) -> HPoint:
        if not self.in_vertex_group():
            raise ValueError(f"{self} is not in the vertex group")
        return self.head

    def word_chars(self) -> str:
        return _key_chars(self.key)

    def __str__(self) -> str:
        return format_word(self.word_chars())

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.params, _key_mul(self.params.L, self.key, other.key))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.params, _key_invert(self.params.L, self.key))

    def parity(self) -> int:
        """Image in Z/2 under a, s, t, x, y -> 1; equals d(1, .) mod 2."""
        p = self.key[0] + self.key[1]
        for _, u, v in _key_parts(self.key):
            p += 1 + u + v
        return p & 1


def reduce_word(params: GroupParams, letters: str) -> GroupElement:
    """Britton-reduce a word over {a, s, t, x, y}^(+-1) to its normal form.

    `letters` is a token string ("s a^6 s^-1") or a character string in the
    internal encoding.  The word is folded in left to right, one letter at
    a time; a character outside {a, s, t, x, y}^(+-1) raises ValueError.
    """
    chars = parse_word(letters) if (" " in letters or "^" in letters or letters == "1") else letters
    try:
        return GroupElement(params, reduce_chars(params.L, chars))
    except KeyError:
        bad = sorted(set(chars) - set(_letters(params.L)))
        raise ValueError(f"invalid letters {bad!r}") from None


# ---------------------------------------------------------------------------
# breadth-first search over the {a, s, t} Cayley graph


def _neighbors(L: int, key: Key) -> tuple[Key, ...]:
    """key times a, a^-1, s, s^-1, t, t^-1, in that order, in one pass.

    The BFS inner loop: this is _fold for each of the six letters, with the
    tail (u, v) and the last stable code read once.  Only the inverse of
    the last stable letter can pinch, so the crossing rules of _fold are
    written out a second time here, the only other place they live: s
    pinches after s^-1 iff u == 0, s^-1 after s iff v == 0, t after t^-1
    iff u + L v == 0 and t^-1 after t iff v == 0.
    """
    head = key[:-2]
    u, v = key[-2], key[-1]
    last = key[-3] if len(key) > 2 else 0
    w = u + L * v
    return (
        head + (u + 1, v),
        head + (u - 1, v),
        key[:-5] + (key[-5] + v, key[-4]) if last == -1 and u == 0 else head + (u, 0, 1, v, 0),
        key[:-5] + (key[-5], key[-4] + u) if last == 1 and v == 0 else head + (0, v, -1, 0, u),
        key[:-5] + (key[-5] - v, key[-4]) if last == -3 and w == 0 else head + (w, 0, 3, -v, 0),
        key[:-5] + (key[-5] + u * L, key[-4] - u) if last == 3 and v == 0
        else head + (0, v, -3, u * L, -u),
    )


@dataclass
class Ball:
    """Exact distances from 1 for every element within some radius."""

    params: GroupParams
    radius: int
    distances: dict[Key, int]

    def __len__(self) -> int:
        return len(self.distances)

    def distance(self, g: GroupElement) -> Optional[int]:
        return self.distances.get(g.key)

    def elements(self) -> Iterator[tuple[GroupElement, int]]:
        for key, d in self.distances.items():
            yield GroupElement(self.params, key), d

    def h_elements(self) -> Iterator[tuple[HPoint, int]]:
        for key, d in self.distances.items():
            if len(key) == 2:
                yield HPoint(key[0], key[1]), d

    def sphere_sizes(self) -> list[int]:
        sizes = [0] * (self.radius + 1)
        for d in self.distances.values():
            sizes[d] += 1
        return sizes

    def dump_jsonl(self, fp: TextIO) -> None:
        """One JSON object {"normal_form": ..., "distance": ...} per line."""
        items = sorted(self.distances.items(), key=lambda kv: (kv[1], kv[0]))
        for key, d in items:
            rec = {"normal_form": format_word(_key_chars(key)), "distance": d}
            fp.write(json.dumps(rec, sort_keys=True) + "\n")


def _ball_layers(params: GroupParams, max_states: int = DEFAULT_MAX_STATES) -> Iterator[Ball]:
    """B(1, 0), B(1, 1), B(1, 2), ... by layered BFS with normal-form dedup.

    All yielded balls share one distances dict, which each further step
    extends by one layer, so a caller may stop at the first radius it needs.
    The budget caps the size of a single layer as in bfs_ball.
    """
    L = params.L
    dist: dict[Key, int] = {identity_key(): 0}
    frontier: list[Key] = [identity_key()]
    d = 0
    while True:
        yield Ball(params, d, dist)
        d += 1
        nxt: list[Key] = []
        for key in frontier:
            for nb in _neighbors(L, key):
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
            if len(nxt) > max_states:
                raise BudgetExceeded(frontier=len(nxt), visited=len(dist))
        frontier = nxt


def bfs_ball(params: GroupParams, radius: int, max_states: int = DEFAULT_MAX_STATES) -> Ball:
    """All elements with |g| <= radius, by layered BFS with normal-form dedup.

    The memory budget caps the size of a single BFS layer (the quantity that
    drives the growth of the search).  It is checked as the layer grows, after
    each expanded key, so BudgetExceeded is raised with a frontier of at most
    max_states + 6 elements, before the rest of the layer is stored.  A
    negative radius raises ValueError.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    for ball in _ball_layers(params, max_states):
        if ball.radius >= radius:
            break
    return Ball(params, radius, ball.distances)


def pair_dist(
    params: GroupParams,
    g1: GroupElement,
    g2: GroupElement,
    cap: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> Optional[int]:
    """Exact d(g1, g2) if it is <= cap, else None.

    d(g1, g2) = |g1^-1 g2| is the one-goal case of _goal_distances: a
    distance d is settled once the ball B(1, r) reaches r = ceil(d / 2), one
    beyond the cap at about r = cap / 2, and the budget caps every stored
    layer, of the ball and of the search.
    """
    L = params.L
    goal = _key_mul(L, _key_invert(L, g1.key), g2.key)
    return _goal_distances(params, [(goal, cap)], max_states)[0]


def _ball_dist(
    ball: Ball, goal: Key, cap: int, max_states: int = DEFAULT_MAX_STATES
) -> Optional[int]:
    """Exact |goal| if it is <= cap, else None, by BFS out of goal into `ball`.

    `ball` must be an exact ball B(1, R), of bfs_ball or _ball_layers.
    Layer k of the search holds the elements at distance k from goal.  A
    geodesic from goal to 1 of length d <= k + R meets the ball within k
    steps, so once layer k has no ball element, d > k + R; then the first
    hit in layer k + 1 lies on the sphere of radius R and d = k + 1 + R
    exactly.  The search stops with None once k + R >= cap, so it expands
    at most max(cap - R, 0) layers.  The budget caps each stored layer as
    in bfs_ball; the last layer is only probed against the ball, never
    stored, as it is the largest.
    """
    dist, R = ball.distances, ball.radius
    d = dist.get(goal)
    if d is not None:
        return d if d <= cap else None
    L = ball.params.L
    seen = {goal}
    frontier = [goal]
    for k in range(1, cap - R):
        nxt: list[Key] = []
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


def _goal_distances(
    params: GroupParams,
    goals: list[tuple[Key, int]],
    max_states: int = DEFAULT_MAX_STATES,
    first_only: bool = False,
) -> dict[int, Optional[int]]:
    """{index: |goal| if it is <= cap, else None} for the (goal, cap) pairs.

    Goals are grouped by isometry class (_canonical) and cap, and each
    group is searched once; every member index gets its group's result.
    One ball B(1, r) grows a layer at a time.  After each layer, every
    group not yet settled is searched with _ball_dist to min(cap, 2r - p),
    p the parity of the goal (= |goal| mod 2, so a cap of the other parity
    is lowered by one); a group is settled once its distance is found or
    the search reached its cap.  A goal at distance d is settled at radius
    ceil(d / 2) and the ball grows only as far as the farthest unsettled
    goal needs.  Searching again at each radius costs a geometric series,
    about a quarter more than one search at the last radius (spheres of
    G_6 grow about 4.9x per layer).

    Groups are searched in the order of their lowest member index.  With
    first_only, only the lowest index within its cap matters: once a group
    is found, the groups after it are dropped (and left out of the
    result), and the search stops once no group before it is unsettled.
    """
    groups: dict[tuple[Key, int], list[int]] = {}
    for i, (goal, cap) in enumerate(goals):
        cap -= (cap - GroupElement(params, goal).parity()) % 2
        groups.setdefault((_canonical(params.L, goal), cap), []).append(i)
    pending = [(members, goal, cap) for (goal, cap), members in groups.items()]
    out: dict[int, Optional[int]] = {}
    for ball in _ball_layers(params, max_states):
        rest = []
        for members, goal, cap in pending:
            c = min(cap, 2 * ball.radius - cap % 2)  # cap has the parity of |goal|
            d = _ball_dist(ball, goal, c, max_states)
            if d is None and c < cap:
                rest.append((members, goal, cap))
                continue
            out.update(dict.fromkeys(members, d))
            if first_only and d is not None:
                break
        pending = rest
        if not pending:
            return out
