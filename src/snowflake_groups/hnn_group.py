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

Reduction, multiplication and inversion all fold letters or syllables
into a key held as a list stack (_fold, whose one callback reads every
prefix), so each letter costs O(1).  The crossing rules above live in
_fold and once more in the BFS step _neighbors, which applies all six
letters to a key in one pass.

Distances in the {a, s, t} Cayley graph come from a min-plus program along
the Bass-Serre tree (_tree_dist).  The key h_0 e_1 h_1 ... e_n h_n of g
names a path of n edges from H to gH in the Bass-Serre tree (Serre,
*Trees*, I.5), which every path from 1 to g in the Cayley graph crosses.
By Britton's lemma (Lyndon and Schupp, *Combinatorial Group Theory*, IV.2)
it crosses edge j by the letter e_j, leaving its coset at exit_j(k) and
landing at entry_j(k) (_CROSSING: s leaves at x^k, t at y^k, s^-1 and t^-1
at a^k; s and t land at a^k, s^-1 at x^k, t^-1 at y^k).  The last
crossings of the edges come in order, and between two of them the path
joins two points of one coset, so it is at least dist_h of their
difference (the metric is left-invariant): the lower bound.  H-geodesics
and crossing letters, concatenated, make a path of that length: the
upper bound.  So, with entry_0 = exit_(n+1) = 0,

    |g| = n + min over k_1..k_n of sum_j dist_h(h_j - entry_j(k_j) + exit_(j+1)(k_(j+1))).

Each term, the last too, is one read along a line of H (_line).  It
trusts dist_h on all of H: acceptance 2 checks dist_h against BFS to
radius 10, and the tests check the program against BFS to distance 16
on seeded goals in G_6 and, past any BFS, that seeded elements' six
neighbours lie at |g| +- 1, one at |g| - 1.  Its line table and each
layer hold at most MAX_POINTS points, or it raises BudgetExceeded.
pair_dist and the loop checks of paths run on it; bfs_ball grows B(1, r)
by BFS, holding at most MAX_BALL_STATES states, and the tests keep the
BFS searches as oracles.

The two limits are fixed, not options: each is read at call time, and
only the tests set other values.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Callable, Iterable, Iterator, Optional, TextIO

import json

from .params import GroupParams
from .vertex_group import BudgetExceeded, HPoint, _a_ball, _splits
from .words import parse_word, power_token

_LETTER = {1: "s", -1: "S", 3: "t", -3: "T"}

# the distance program: the most points its line table or one layer may hold
MAX_POINTS = 10**6
# bfs_ball: the most states the whole ball may hold.  It admits the radius-10
# ball of G_6 (12.18 M states, about 4 GB), which acceptance 2 builds.
MAX_BALL_STATES = 15 * 10**6

Key = tuple  # flat normal-form tuple


class InvariantViolation(RuntimeError):
    """A guarantee the code states (a snap distance, a rounding order) failed."""


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
    L: int,
    key: Key,
    steps: Iterable[tuple[int, int, int]],
    visit: Optional[Callable[[list, int, int], None]] = None,
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
    six letters.  A `visit`, if given, is called after each step with the
    live stack and the tail, visit(stack, u, v); the fold builds no key but
    the last, so a caller builds only what it reads of each prefix
    (prefix_keys the whole key, h_visits an H point).
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
        if visit is not None:
            visit(stack, u, v)
    return (*stack, u, v)


def reduce_chars(L: int, chars: str) -> Key:
    """Key of the word chars."""
    return _fold(L, (0, 0), map(_letters(L).__getitem__, chars))


def prefix_keys(L: int, chars: str) -> list[Key]:
    """The keys of all prefixes of chars, shortest first (len(chars) + 1 keys)."""
    keys = [(0, 0)]
    push = keys.append
    _fold(L, (0, 0), map(_letters(L).__getitem__, chars), lambda stack, u, v: push((*stack, u, v)))
    return keys


def h_visits(L: int, chars: str) -> list[tuple[int, int, int]]:
    """(i, u, v) for each prefix i of chars that ends in H, at a^u x^v,
    shortest first: one fold that numbers every prefix and keeps only those
    whose stack is empty, so no key is built, let alone held (prefix_keys
    holds them all)."""
    visits, steps = [(0, 0, 0)], count(1)

    def keep(stack: list, u: int, v: int) -> None:
        i = next(steps)
        if not stack:
            visits.append((i, u, v))

    _fold(L, (0, 0), map(_letters(L).__getitem__, chars), visit=keep)
    return visits


def _key_parts(key: Key) -> Iterator[tuple[int, int, int]]:
    """Yield (code, u, v) for each syllable."""
    for i in range(2, len(key), 3):
        yield key[i], key[i + 1], key[i + 2]


def _key_text(key: Key) -> str:
    """The token form of the element's normal form, read off its syllables
    without spelling a letter: a^u and x^v are one token each, and a stable
    letter repeated with nothing between is one power.  It is what
    format_word gives for the word that spells the normal form."""
    tokens = [power_token(gen, k) for gen, k in (("a", key[0]), ("x", key[1])) if k]
    prev = n = 0  # tokens end in the stable letter prev, n times; prev = 0 if they end in a or x
    for code, u, v in _key_parts(key):
        n = n + 1 if code == prev else 1
        token = power_token(_LETTER[abs(code)], n if code > 0 else -n)
        if n > 1:
            tokens[-1] = token
        else:
            tokens.append(token)
        prev = 0 if u or v else code
        if u:
            tokens.append(power_token("a", u))
        if v:
            tokens.append(power_token("x", v))
    return " ".join(tokens) or "1"


def _key_invert(L: int, key: Key) -> Key:
    steps = [(0, -key[-2], -key[-1])]
    for i in range(len(key) - 3, 1, -3):  # code positions, last syllable first
        steps.append((-key[i], -key[i - 2], -key[i - 1]))
    return _fold(L, (0, 0), steps)


def _key_mul(L: int, left: Key, right: Key) -> Key:
    return _fold(L, left, chain(((0, right[0], right[1]),), _key_parts(right)))


@dataclass(frozen=True)
class GroupElement:
    """An element of G_L in Britton normal form."""

    params: GroupParams
    key: Key

    def is_identity(self) -> bool:
        return self.key == (0, 0)

    def word_chars(self) -> str:
        """The normal form spelled out; ValueError past MAX_LETTERS letters."""
        return parse_word(_key_text(self.key))

    def __str__(self) -> str:
        return _key_text(self.key)

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
    iff u + L v == 0 and t^-1 after t iff v == 0.  One helper for the
    rules, called by both, costs a call per letter: it made bfs_ball(G_6,
    8) 11 to 22 % slower and reduce_chars 6 to 8 %, so they stay twice.
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
            rec = {"normal_form": _key_text(key), "distance": d}
            fp.write(json.dumps(rec, sort_keys=True) + "\n")


def bfs_ball(params: GroupParams, radius: int) -> Ball:
    """All elements with |g| <= radius, by layered BFS with normal-form dedup.

    The whole ball holds at most MAX_BALL_STATES states.  The limit is
    checked as each layer grows, after each expanded key, so BudgetExceeded
    is raised with at most MAX_BALL_STATES + 6 states stored, before the
    rest of the layer is.  Spheres of G_L grow about 4.86 times per layer
    from radius 8 on, so the radius-10 ball (12.2 to 12.3 M states for any L)
    fits and the radius-11 ball does not.  A negative radius raises
    ValueError.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    L, limit = params.L, MAX_BALL_STATES
    dist: dict[Key, int] = {(0, 0): 0}
    frontier: list[Key] = [(0, 0)]
    for d in range(1, radius + 1):
        nxt: list[Key] = []
        for key in frontier:
            for nb in _neighbors(L, key):
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
            if len(dist) > limit:
                raise BudgetExceeded(frontier=len(nxt), visited=len(dist))
        frontier = nxt
    return Ball(params, radius, dist)


# ---------------------------------------------------------------------------
# exact distances along the Bass-Serre tree

# the generator whose powers cross each stable letter: (leaving, landing)
_CROSSING = {"s": ("x", "a"), "S": ("a", "x"), "t": ("y", "a"), "T": ("a", "y")}


def _line_table(L: int, c: int) -> tuple[dict, list, int]:
    """The table g: k -> |x^k| = |y^k| over Z0(c) = {0} u +-S(c - 2), its
    items (g, k) cheapest first, and its reach c: every power that a route
    of length <= c in H can use.  It holds 2|S(c - 2)| - 1 points, refused
    with BudgetExceeded above MAX_POINTS before they are stored."""
    s = _a_ball(L, c - 2, MAX_POINTS)
    if 2 * len(s) - 1 > MAX_POINTS:
        raise BudgetExceeded(frontier=2 * len(s) - 1, visited=len(s))
    g = {k: 2 + d for m, d in s.items() if m for k in (m, -m)}
    g[0] = 0
    return g, sorted((d, k) for k, d in g.items()), c


def _line(L: int, table: tuple[dict, list, int], u: int, v: int, gen: str, b: int) -> dict[int, int]:
    """{k: |a^u x^v gen^k|} for every k where it is <= b, gen in a, x, y.

    b must not pass the c of the table.  |a^u x^v| is the shortest route
    x^(v+q) y^q a^p with u = qL + p, |p| < L, of length |p| + g(v+q) + g(q)
    (vertex_group._h_route), so within b both powers are in the table.
    Along the a-line q runs over the table, cheapest first; along the
    x-line y^q is fixed and x^(v+k+q) runs over it.  s <-> t fixes a and
    swaps x and y, so a y-line is the x-line through a^(u+Lv) x^-v.
    """
    g, order, _ = table
    out: dict[int, int] = {}
    if gen == "a":
        for gq, q in order:
            if gq > b:
                break
            gw = g.get(v + q)
            if gw is None or gq + gw > b:
                continue
            w, k = min(b - gq - gw, L - 1), q * L - u  # k + p reaches a^(qL + p) x^v
            for p in range(-w, w + 1):
                if gq + gw + abs(p) < out.get(k + p, b + 1):
                    out[k + p] = gq + gw + abs(p)
        return out
    if gen == "y":
        u, v = u + L * v, -v
    for q, p in _splits(L, u):
        gq, shift = g.get(q), v + q
        if gq is None:
            continue
        for gw, w in order:  # x^w = x^(v+q+k)
            d = abs(p) + gq + gw
            if d > b:
                break
            if d < out.get(w - shift, b + 1):
                out[w - shift] = d
    return out


def _tree_dist(L: int, table: tuple[dict, list, int], key: Key, cap: int) -> Optional[int]:
    """Exact |key| if it is <= cap, else None, by the program of the module
    docstring.  A state is the landing exponent k_j of a crossing, with the
    least cost of reaching it.  A transition reads the exit line of the next
    crossing (_line) within the cap less that cost and the crossings to come,
    dropping states that cannot finish; one read of the landing line through
    the tail ends it.  The table must reach c >= cap - n, or ValueError.  A
    layer of more than MAX_POINTS states raises BudgetExceeded, checked
    after each line.
    """
    n = (len(key) - 2) // 3
    if table[2] < cap - n:
        raise ValueError(f"line table reaches {table[2]}, below cap - n = {cap - n}")
    letters = _letters(L)
    layer, land = {0: 0}, "a"  # the state before the first crossing: 0 along any line
    for j in range(0, 3 * n, 3):
        _, eu, ev = letters[land]
        hu, hv = key[j], key[j + 1]
        leave, land = _CROSSING[_LETTER[key[j + 2]]]
        nxt: dict[int, int] = {}
        left = n - j // 3  # crossings still to come, this one included
        for k, cost in layer.items():
            for k2, d in _line(L, table, hu - k * eu, hv - k * ev, leave, cap - cost - left).items():
                if cost + d + 1 < nxt.get(k2, cap + 1):
                    nxt[k2] = cost + d + 1
            if len(nxt) > MAX_POINTS:
                raise BudgetExceeded(frontier=len(nxt), visited=len(table[0]) + len(nxt))
        layer = nxt
    last = _line(L, table, key[-2], key[-1], land, cap - n)  # each cost is at least n
    best = min((cost + last[-k] for k, cost in layer.items() if -k in last), default=cap + 1)
    return best if best <= cap else None


def pair_dist(params: GroupParams, g1: GroupElement, g2: GroupElement, cap: int) -> Optional[int]:
    """Exact d(g1, g2) if it is <= cap, else None.

    d(g1, g2) = |g1^-1 g2|, by _tree_dist.  The line table and each layer
    of the program hold at most MAX_POINTS points; past that the call
    raises BudgetExceeded.
    """
    L = params.L
    goal = _key_mul(L, _key_invert(L, g1.key), g2.key)
    table = _line_table(L, cap - (len(goal) - 2) // 3)
    return _tree_dist(L, table, goal, cap)
