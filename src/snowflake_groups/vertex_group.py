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

where |g^k| = 2 + |a^k| for g in {x, y}, k != 0.  The sign convention of r
is not pinned down; we minimize over every valid decomposition (r = l mod L
and r - L), which is safe and is validated against the breadth-first-search
oracle.

The guard routes to a^(qL+r) need only |a^q| and |a^(q+1)|, and _routes is
their one home: |a^m| is one pass down the base-L digits of m carrying that
pair, in O(log_L m) steps, and dist_table and the sets S(r) of _a_ball are
built up from them a run of L lengths at a time.  All functions are pure
and the module keeps no state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .params import GroupParams
from .words import MAX_LETTERS, PathWord, power_chars


class HPoint(NamedTuple):
    """The element a^u x^v of H (canonical coordinates)."""

    u: int
    v: int

    @classmethod
    def identity(cls) -> "HPoint":
        return cls(0, 0)

    @classmethod
    def from_xyz(cls, params: GroupParams, ell: int, m: int, n: int) -> "HPoint":
        """Canonical form of a^ell x^m y^n."""
        return cls(ell + params.L * n, m - n)

    @classmethod
    def generator(cls, params: GroupParams, gen: str, k: int = 1) -> "HPoint":
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


def _routes(L: int, lo: int, hi: int, r: int) -> tuple[int, int]:
    """The two guard routes to a^(qL + r), 0 <= r <= L, given lo = |a^q|, hi = |a^(q+1)|.

    Through a^(qL) and r steps up, or through a^((q+1)L) and L - r steps
    down; |a^(qL + r)| is the shorter.  |a^(kL)| = 4 + 2|a^k| for k >= 1,
    and a^(0L) = 1 (lo = 0 exactly when q = 0).
    """
    return (4 + 2 * lo if lo else 0) + r, 4 + 2 * hi + L - r


def _prefix_pairs(L: int, m: int) -> list[tuple[int, int]]:
    """[(|a^p|, |a^(p+1)|) for p = m, m // L, m // L^2, ..., 0], for m >= 0.

    One pass down the base-L digits of m: the pair of p = qL + r follows
    from the pair of q by the guard routes, starting from (|a^0|, |a^1|).
    """
    digits = []
    while m:
        m, r = divmod(m, L)
        digits.append(r)
    lo, hi = 0, 1
    pairs = [(lo, hi)]
    for r in reversed(digits):
        low, high = _routes(L, lo, hi, r)  # those to a^(p+1) are 1 longer and 1 shorter
        lo, hi = (low if low < high else high), (low + 1 if low + 1 < high - 1 else high - 1)
        pairs.append((lo, hi))
    pairs.reverse()
    return pairs


def _dist_a(L: int, m: int) -> int:
    """|a^m| for m >= 0."""
    return _prefix_pairs(L, m)[0][0]


def dist_a_power(params: GroupParams, m: int) -> int:
    """|a^m| over {a, s, t}; symmetric in the sign of m."""
    return _dist_a(params.L, abs(m))


def dist_table(params: GroupParams, m_max: int) -> list[int]:
    """[|a^0|, |a^1|, ..., |a^m_max|], built a run of L lengths at a time.

    The run of q holds |a^(qL + r)| = min(low + r, high - r), 0 <= r < L,
    where (low, high) are the guard routes to a^(qL) (_routes): the first k
    lengths climb from low, the rest fall from high - k, with
    k = (high - low + 1) // 2.  For q >= 1, |a^(q+1)| - |a^q| = +-1 by
    parity, so high - low = L -+ 2 and k = L/2 -+ 1; at q = 0, k = L/2 + 3.
    So k <= L for every L >= 6, and a run is the two slices
    pool[low : low + k] and pool[high - k : high - L : -1] of a local pool
    with pool[n] == n.  Every entry is then one of the pool's ints, and no
    Python code runs per entry: the 10^6 lengths of L = 6 take 1 243 int
    objects, where one int per length would take 31 MB.  The last run is
    cut to its first m_max % L + 1 lengths, and the pool grows only to the
    lengths the runs read, so neither grows with L: m_max = 2 at L = 10^30
    reads three.
    """
    L = params.L
    table: list[int] = []
    pool: list[int] = []
    last = m_max // L
    for q in range(last + 1):
        lo, hi = (table[q], table[q + 1]) if q else (0, 1)
        low, high = _routes(L, lo, hi, 0)
        k = (high - low + 1) // 2
        n = L if q < last else m_max % L + 1
        top = high - k if n > k else low + n - 1  # the largest pool index the run reads
        if top >= len(pool):
            pool += range(len(pool), 2 * top + 2)
        table += pool[low : low + min(k, n)]
        table += pool[high - k : high - n : -1]
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

    |a^(qL + i)|, 0 <= i < L, is the shorter guard route (_routes) through
    |a^q| or |a^(q+1)|, and a route through a^(kL), k >= 1, is within r only
    if 4 + 2|a^k| <= r, that is k in S((r - 4) // 2).  So S(r) is read off
    the runs of L lengths whose q or q + 1 lies in the level below, as in
    dist_table, a length missing there counting as r + 1.  Each run is its
    climb low + i, i < k, and its fall high - i, i >= k, each cut to the
    lengths <= r and stored as ranges, so a run costs the points it gives,
    not L: verify-loop at L = 10^30 reads a few runs of a few points.  A
    level past max_points raises BudgetExceeded, checked after each run.
    """
    if r < 0:
        return {}
    level = _a_ball(L, (r - 4) // 2, max_points)
    out: dict[int, int] = {}
    for q in sorted({0, *level, *(k - 1 for k in level if k)}):
        lo, hi = (level.get(q, r + 1), level.get(q + 1, r + 1)) if q else (0, 1)
        low, high = _routes(L, lo, hi, 0)
        k = (high - low + 1) // 2
        up, down = min(k, L, r - low + 1), max(k, high - r, 0)  # climb i < up, fall i >= down
        out.update(zip(range(q * L, q * L + up), range(low, low + up)))
        out.update(zip(range(q * L + down, q * L + L), range(high - down, high - L, -1)))
        if len(out) > max_points:
            raise BudgetExceeded(frontier=len(out), visited=len(level) + len(out))
    return out


def _gpow(L: int, k: int) -> int:
    """|x^k| = |y^k| = 2 + |a^k| for k != 0, else 0."""
    return 0 if k == 0 else 2 + _dist_a(L, abs(k))


def dist_power(params: GroupParams, gen: str, m: int) -> int:
    """|gen^m| for gen in {a, x, y}."""
    if gen == "a":
        return _dist_a(params.L, abs(m))
    if gen in ("x", "y"):
        return _gpow(params.L, m)
    raise ValueError(f"not an H generator: {gen!r}")


def _splits(L: int, u: int) -> tuple[tuple[int, int], ...]:
    """The decompositions u = qL + p with |p| < L: (q, p) with 0 <= p < L,
    and (q + 1, p - L) when p != 0."""
    q, p = divmod(u, L)
    return ((q, p), (q + 1, p - L)) if p else ((q, p),)


def _h_route(L: int, u: int, v: int) -> tuple[int, int, int]:
    """(|a^u x^v|, q, p) for the shortest route x^(v+q) y^q a^p to a^u x^v,
    over both decompositions of _splits; ties go to the first."""
    return min((abs(p) + _gpow(L, v + q) + _gpow(L, q), q, p) for q, p in _splits(L, u))


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


def _expr_digits(L: int, m: int) -> list[int]:
    """Digit list (low to high) for m > 0.

    At level i the value c still to expand is m // L^i or one more, and
    (lo, hi) is the prefix pair of p = m // L^(i+1).  With c = qL + r,
    q = p except when c = (p + 1)L: then r = 0, and the route through
    a^(qL) is the shorter one, so neither route needs |a^(p+2)|.
    """
    digits = []
    c, above = m, False  # above: c = m // L^i + 1
    for lo, hi in _prefix_pairs(L, m)[1:]:
        if c <= L // 2 + 2:
            break
        q, r = divmod(c, L)
        if above and not r:
            digits.append(0)
            c = q
            continue
        low, high = _routes(L, lo, hi, r)
        if low < high or (low == high and r <= L // 2):
            digits.append(r)
            c, above = q, False
        else:
            digits.append(r - L)
            c, above = q + 1, True
    digits.append(c)
    return digits


def geodesic_expression(params: GroupParams, m: int) -> GeodesicExpression:
    """A geodesic expression of m != 0 with the standard digit bounds.

    Ties between the two guard routes are broken through qL when the
    residue r satisfies r <= L/2, through (q+1)L otherwise; this is what
    keeps every digit within the stated bounds.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    digits = _expr_digits(params.L, abs(m))
    if m < 0:
        digits = [-d for d in digits]
    return GeodesicExpression(tuple(digits), params.L)


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
    if r == 0:
        return 0
    if 2 * r < L:
        return r
    if 2 * r > L:
        return r - L
    return L // 2


def xy_line_intersection(params: GroupParams, h: HPoint) -> tuple[int, HPoint]:
    """The ell with |ell| <= L/2 making <x> meet h a^ell <y>, and the meeting point."""
    L = params.L
    ell = _min_residue(L, -h.u)
    point = HPoint(0, h.v + (h.u + ell) // L)
    return ell, point


def project_to_x_line(params: GroupParams, p: int) -> HPoint:
    """x^(p/L), the unique closest point of <x> to a^p (requires L | p)."""
    if p % params.L:
        raise ValueError(f"L = {params.L} does not divide {p}")
    return HPoint(0, p // params.L)
