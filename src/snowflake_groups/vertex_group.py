"""Exact distances and geodesics inside the vertex group H = <a, x, y> of G_L.

H is free abelian of rank 2; we use canonical coordinates (u, v) for
a^u x^v, eliminating y via y = a^L x^-1.  All distances are in the word
metric over {a, s, t}.

The length of a^m is computed by the dynamic program

    |a^l|       = l            for 0 <  l <= 3 + L/2
    |a^l|       = 6 + L - l    for 3 + L/2 <= l <= L
    |a^(qL)|    = 4 + 2|a^q|   for q >= 1
    |a^(qL+r)|  = min(|a^(qL)| + r, |a^((q+1)L)| + L - r)   for 0 < r < L, q >= 1

and |a^-m| = |a^m|.  Lengths of general H elements reduce to this via

    |a^l x^m y^n| = min over decompositions l = qL + r, |r| < L, of
        |r| + |x^(m+q)| + |y^(n+q)|

where |g^k| = 2 + |a^k| for g in {x, y}, k != 0, over both decompositions
(r = l mod L and r - L, _splits), as validated against the BFS oracle.

The guard routes to a^(qL+r) need only lo = |a^q| and hi = |a^(q+1)|, and
_routes is their one home: from lo and hi it gives the two routes to a^(qL)
and the r at which the run of q turns from climbing to falling.  For
q >= 1, hi = lo + e, e = +-1 by parity, so the routes to a^(qL+r) are
4 + 2lo + r and 4 + 2lo + 2e + L - r, the first no longer iff r < L/2 + e,
and those to a^(qL+r+1) are one longer and one shorter.  So |a^m| is a
two-state scan down the base-L digits of m (_scan): with c = L/2 + e, a
digit r takes (lo, c) to (2lo + 4 + r, L/2 + 1) if r < c, else to
(2lo + 4 + 2c - r, L/2 - 1), from (t, L/2 + 1) at the top digit t if
t <= L/2 + 2, else from (6 + L - t, L/2 - 1) (q = 0, first route t).
dist_table and _a_ball build on the routes a run of L lengths at a time.
All functions are pure and the module keeps no state.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice, pairwise
from operator import iadd
from typing import NamedTuple

from .params import GroupParams
from .words import MAX_LETTERS, PathWord, power_chars


class HPoint(NamedTuple):
    """The element a^u x^v of H (canonical coordinates)."""

    u: int
    v: int

    @classmethod
    def from_xyz(cls, params: GroupParams, ell: int, m: int, n: int) -> "HPoint":
        """Canonical form of a^ell x^m y^n."""
        return cls(ell + params.L * n, m - n)

    @classmethod
    def generator(cls, params: GroupParams, gen: str, k: int) -> "HPoint":
        if gen == "a":
            return cls(k, 0)
        if gen == "x":
            return cls(0, k)
        if gen == "y":
            return cls(k * params.L, -k)
        raise ValueError(f"not an H generator: {gen!r}")

    def __mul__(self, other: "HPoint") -> "HPoint":  # type: ignore[override]
        return HPoint(self.u + other.u, self.v + other.v)

    def inverse(self) -> "HPoint":
        return HPoint(-self.u, -self.v)

    def as_power(self, params: GroupParams) -> tuple[str, int] | None:
        """(gen, k) if this is a pure power of a, x or y; None otherwise."""
        if self.v == 0:
            return ("a", self.u)
        if self.u == 0:
            return ("x", self.v)
        if self.u == -self.v * params.L:
            return ("y", -self.v)
        return None


# ---------------------------------------------------------------------------
# distance of a-powers


def _routes(L: int, lo: int, hi: int) -> tuple[int, int, int]:
    """(low, high, k): the shape of the run of q, given lo = |a^q|, hi = |a^(q+1)|.

    The two guard routes to a^(qL + r), 0 <= r <= L, go through a^(qL) and
    r steps up, of length low + r, or through a^((q+1)L) and L - r steps
    down, of length high - r; |a^(qL + r)| is the shorter, so the run climbs
    for r < k and falls from k on.  |a^(jL)| = 4 + 2|a^j| for j >= 1, and
    a^(0L) = 1 (lo = 0 exactly when q = 0).
    """
    low, high = 4 + 2 * lo if lo else 0, 4 + 2 * hi + L
    return low, high, (high - low + 1) // 2


def _scan(L: int, m: int) -> tuple[list[int], list[int], int]:
    """(digits, cuts, |a^m|) for m >= 0 (module docstring): the base-L digits
    of m, lowest first, and the c of each prefix, top first, m's last."""
    digits = []
    while m:
        m, r = divmod(m, L)
        digits.append(r)
    if not digits:
        return digits, [], 0
    up, down = L // 2 + 1, L // 2 - 1
    t = digits[-1]
    lo, c = (t, up) if t <= up + 1 else (6 + L - t, down)
    cuts = [c]
    push = cuts.append
    for r in islice(reversed(digits), 1, None):
        if r < c:
            lo, c = (lo << 1) + (4 + r), up
        else:
            lo, c = (lo << 1) + (4 + c + c - r), down
        push(c)
    return digits, cuts, lo


def _pair(L: int, k: int) -> tuple[int, int]:
    """(|a^k|, |a^(k+1)|) for any k, from one scan (of -k - 1 for k < 0)."""
    if k < 0:
        return _pair(L, -k - 1)[::-1]
    _, cuts, lo = _scan(L, k)
    return lo, lo + cuts[-1] - L // 2 if cuts else 1


def dist_a_power(params: GroupParams, m: int) -> int:
    """|a^m| over {a, s, t}; symmetric in the sign of m."""
    return _scan(params.L, abs(m))[2]


def _run(pool: list[int], L: int, lo: int, hi: int, n: int) -> list[int]:
    """The first n <= L of |a^(qL + r)| = min(low + r, high - r), (low, high)
    the routes to a^(qL), as two slices of pool (pool[i] == i): the first
    k climb, the rest fall, and k <= L (L/2 -+ 1 by parity, L/2 + 3 at q = 0)."""
    low, high, k = _routes(L, lo, hi)
    top = high - k if n > k else low + n - 1  # the largest pool index the run reads
    if top >= len(pool):
        pool += range(len(pool), 2 * top + 2)
    return pool[low : low + min(k, n)] + pool[high - k : high - n : -1]


def dist_table(params: GroupParams, m_max: int) -> list[int]:
    """[|a^0|, |a^1|, ..., |a^m_max|], built a run of L lengths at a time.

    The run of q depends only on (|a^q|, |a^(q+1)|), so each distinct run is
    built once (_run), in a dict local to the call that is emptied when it
    holds more runs than a step.  A step adds at most 2^16 lengths, the runs
    of the pairs in a short slice of the table, by C-level reduce/map/pairwise
    with no Python code per q.  Entries are the pool's ints: the 10^6 lengths
    of L = 6 take 1 243 int objects, not 31 MB.  The last run is cut to
    m_max % L + 1 lengths, so m_max = 2 at L = 10^30 reads three.
    """
    L = params.L
    last, n = divmod(m_max, L)
    pool: list[int] = []
    runs: dict[tuple[int, int], list[int]] = {}
    table = _run(pool, L, 0, 1, L if last else n + 1)
    q, step = 1, max(1, 2**16 // L)
    while q < last:
        end = min(last, len(table) - 1, q + step)
        lens = table[q : end + 1]  # the runs q .. end - 1 read these
        if len(runs) > step:
            runs.clear()
        for lo, hi in set(pairwise(lens)).difference(runs):
            runs[lo, hi] = _run(pool, L, lo, hi, L)
        reduce(iadd, map(runs.__getitem__, pairwise(lens)), table)  # table += each run
        q = end
    if last:
        table += _run(pool, L, table[last], table[last + 1], n + 1)
    return table


class BudgetExceeded(RuntimeError):
    """Raised when a search or a table would store more points than its budget."""

    def __init__(self, frontier: int, visited: int):
        super().__init__(
            f"state budget exceeded: {visited} states visited, frontier size {frontier}"
        )
        self.frontier = frontier
        self.visited = visited


def _a_ball(L: int, r: int, max_points: int) -> dict[int, int]:
    """{m: |a^m|} for every m >= 0 with |a^m| <= r: the set S(r), exactly.

    A guard route through a^(kL), k >= 1, is within r only if
    4 + 2|a^k| <= r, that is k in S((r - 4) // 2).  So S(r) is read off the
    runs of q (_run) with q or q + 1 in the level below, a length missing
    there counting as r + 1.  The climb and the fall of a run are each cut
    to the lengths <= r and stored as ranges, so a run costs the points it
    gives, not L: verify-loop at L = 10^30 reads a few runs of a few points.
    A level past max_points raises BudgetExceeded, checked after each run.
    """
    if r < 0:
        return {}
    level = _a_ball(L, (r - 4) // 2, max_points)
    out: dict[int, int] = {}
    for q in sorted({0, *level, *(k - 1 for k in level if k)}):
        lo, hi = (level.get(q, r + 1), level.get(q + 1, r + 1)) if q else (0, 1)
        low, high, k = _routes(L, lo, hi)
        up, down = min(k, L, r - low + 1), max(k, high - r, 0)  # climb i < up, fall i >= down
        out.update(zip(range(q * L, q * L + up), range(low, low + up)))
        out.update(zip(range(q * L + down, q * L + L), range(high - down, high - L, -1)))
        if len(out) > max_points:
            raise BudgetExceeded(frontier=len(out), visited=len(level) + len(out))
    return out


def _gpow(d: int) -> int:
    """|x^k| = |y^k| = 2 + |a^k| for k != 0, else 0, from d = |a^k|."""
    return d + 2 if d else 0


def _splits(L: int, u: int) -> tuple[tuple[int, int], ...]:
    """The decompositions u = qL + p with |p| < L: (q, p) with 0 <= p < L,
    and (q + 1, p - L) when p != 0."""
    q, p = divmod(u, L)
    return ((q, p), (q + 1, p - L)) if p else ((q, p),)


def _h_route(L: int, u: int, v: int) -> tuple[int, int, int]:
    """(|a^u x^v|, q, p) for the shortest route x^(v+q) y^q a^p to a^u x^v,
    over both decompositions of _splits; ties go to the first.  Their q
    are q0 and q0 + 1, so two scans (_pair) give all four powers."""
    splits = _splits(L, u)
    q0 = splits[0][0]
    xs, ys = _pair(L, v + q0), _pair(L, q0)
    return min((abs(p) + _gpow(xs[q - q0]) + _gpow(ys[q - q0]), q, p) for q, p in splits)


def dist_h(params: GroupParams, h: HPoint) -> int:
    """|a^u x^v| over {a, s, t}, minimizing over all decompositions."""
    return _h_route(params.L, h.u, h.v)[0]


# ---------------------------------------------------------------------------
# geodesic expressions (base-L digit expansions realizing |a^m|)


@dataclass(frozen=True)
class GeodesicExpression:
    """m = sum digits[i] * L^i whose associated recursive path is geodesic.

    Digit constraints for m > 0: 0 < digits[-1] <= L/2 + 2 and
    |digits[i]| <= L/2 below the top; negated for m < 0.
    """

    digits: tuple[int, ...]
    base: int

    def value(self) -> int:
        v = 0
        for d in reversed(self.digits):
            v = v * self.base + d
        return v

    def path_length(self) -> int:
        """The length of the induced path (_digits_length)."""
        return _digits_length(self.digits)


def _digits_length(digits: tuple[int, ...]) -> int:
    """sum |digits[i]| 2^i + 4(2^j - 1), j the top index: the length of
    the path word _expand_digits spells from digits."""
    j = len(digits) - 1
    return sum(abs(d) << i for i, d in enumerate(digits)) + 4 * ((1 << j) - 1)


def geodesic_expression(params: GroupParams, m: int) -> GeodesicExpression:
    """A geodesic expression of m != 0 with the standard digit bounds.

    Level i of |m| takes r, its base-L digit plus the carry, and the c of
    the prefix above it (_scan).  Ties of the guard routes go through qL iff
    r <= L/2, which keeps the bounds: r is kept iff r < c at c = L/2 + 1, iff
    r <= c at c = L/2 - 1, and the top r iff r <= L/2 + 2; else the digit is
    r - L and the carry 1 (r = L: the digit 0).
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    L = params.L
    digits, cuts, _ = _scan(L, abs(m))
    out, carry = [], 0
    for r, c in zip(digits, islice(reversed(cuts), 1, None)):
        r += carry
        carry = r > c or r == c > L // 2
        out.append(r - L if carry else r)
    top = digits[-1] + carry
    out += [top] if top <= L // 2 + 2 else [top - L, 1]
    return GeodesicExpression(tuple(out) if m > 0 else tuple(-d for d in out), L)


def _expand_digits(digits: tuple[int, ...]) -> str:
    """Path word realizing sum digits[i] L^i: recursively s w s^-1 t w t^-1 a^d.

    Refused with ValueError if it would be longer than MAX_LETTERS letters,
    measured from the digits (_digits_length) before anything is spelled;
    the top digit counts too.
    """
    if _digits_length(digits) > MAX_LETTERS:
        raise ValueError(f"geodesic word longer than {MAX_LETTERS} letters")
    chars = power_chars("a", digits[-1])
    for d in reversed(digits[:-1]):
        chars = "s" + chars + "S" + "t" + chars + "T" + power_chars("a", d)
    return chars


def _geodesic_chars(params: GroupParams, gen: str, k: int) -> str:
    """A geodesic word over {a, s, t} for gen^k, gen in {a, x, y}: the
    expansion of a^k, conjugated by s for x^k and by t for y^k."""
    c = {"a": "", "x": "s", "y": "t"}[gen]  # x = s a s^-1, y = t a t^-1
    if k == 0:
        return ""
    return c + _expand_digits(geodesic_expression(params, k).digits) + c.upper()


def geodesic_word_a_power(params: GroupParams, m: int) -> PathWord:
    """A geodesic word over {a, s, t} from 1 to a^m."""
    return PathWord(params, _geodesic_chars(params, "a", m))


def geodesic_word_h(params: GroupParams, h: HPoint) -> PathWord:
    """A geodesic word from 1 to h, (x-escape)(y-escape)(a-path); ValueError past MAX_LETTERS."""
    u, v = h
    d, q, p = _h_route(params.L, u, v)
    if d > MAX_LETTERS:
        raise ValueError(f"geodesic word longer than {MAX_LETTERS} letters")
    chars = _geodesic_chars(params, "x", v + q) + _geodesic_chars(params, "y", q)
    return PathWord(params, chars + power_chars("a", p))


# ---------------------------------------------------------------------------
# lines, intersections, projections


def closest_points_on_a_line(params: GroupParams, h: HPoint) -> tuple[HPoint, HPoint]:
    """The two closest points of <a> to h (not itself on <a>).

    They are the unique points of <a> meeting h<x> and h<y> respectively,
    and they are equidistant from h.
    """
    if h.v == 0:
        raise ValueError("h lies on <a>; closest-point pair is undefined")
    return HPoint(h.u, 0), HPoint(h.u + h.v * params.L, 0)


def _min_residue(L: int, target: int) -> int:
    """The representative of target mod L with |value| <= L/2, ties positive."""
    r = target % L
    return r - L if 2 * r > L else r


def xy_line_intersection(params: GroupParams, h: HPoint) -> tuple[int, HPoint]:
    """The ell with |ell| <= L/2 making <x> meet h a^ell <y>, and the meeting point."""
    L = params.L
    ell = _min_residue(L, -h.u)
    return ell, HPoint(0, h.v + (h.u + ell) // L)


def project_to_x_line(params: GroupParams, p: int) -> HPoint:
    """x^(p/L), the unique closest point of <x> to a^p (requires L | p)."""
    if p % params.L:
        raise ValueError(f"L = {params.L} does not divide {p}")
    return HPoint(0, p // params.L)
