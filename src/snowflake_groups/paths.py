"""Snowflake paths and loops, escape decompositions, enfilades, loop checks.

The snowflake paths are the recursively defined geodesics from 1 to a^(L^n):

    sigma_{1,s} = s a s^-1 t a t^-1          sigma_{1,t} = t a t^-1 s a s^-1
    sigma_{n+1,s} = s sigma_{n,s} s^-1 t sigma_{n,s} t^-1
    sigma_{n+1,t} = t sigma_{n,t} t^-1 s sigma_{n,t} s^-1

of length 5 * 2^n - 4.  The recursion is that of the geodesic digit
expansion (vertex_group), so sigma_{n,s} is the expansion of the digits
(0, ..., 0, 1) of L^n.  sigma_{n,s} followed by the reverse of sigma_{n,t}
is a snowflake loop, and these loops are geodesic (every antipodal pair of
vertices is at distance exactly half the loop length).

With respect to a coset gH of the vertex group, an *escape* is a subpath
meeting gH exactly at its endpoints; its endpoints differ by a power of a,
x or y (its flavor), the exponent of that power is the escape's exponent,
and its trace is the toral path between its endpoints.

The loop checks measure g_i^-1 g_j, the element spelled by the letters i
to j of the loop, on the distance program of hnn_group._tree_dist.
For even L the map a, s, t -> 1 is a homomorphism to Z/2
(GroupElement.parity), so every path from g_i to g_j, a geodesic among
them, has the parity of j - i: ruling out every distance up to c is
ruling out every distance up to the largest c' <= c of that parity, and
each search is capped there (ruling out h - 1 is ruling out h - 2).
loop_bilip_constant searches each pair only as far as it could still
raise the constant found so far, and keeps what each goal's search
settled for the rest of the call, so a goal that many pairs spell is
searched again only for a higher cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, pairwise
from typing import Optional

from .hnn_group import (
    _CROSSING,
    InvariantViolation,
    _line_table,
    _tree_dist,
    h_visits,
    prefix_keys,
    reduce_chars,
)
from .params import GroupParams
from .vertex_group import HPoint, _expand_digits
from .words import MAX_LETTERS, PathWord, invert_chars

_SWAP_ST = str.maketrans("sStT", "tTsS")


def _check_depth(n: int, kind: str) -> None:
    """Refuse a depth below 1, or one whose snowflake `kind` ("path", of
    5 * 2^n - 4 letters, or "loop", twice that) is longer than MAX_LETTERS.
    n is clamped first, so 2^n stays small."""
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    letters = (5 * 2 ** min(n, MAX_LETTERS.bit_length()) - 4) * (2 if kind == "loop" else 1)
    if letters > MAX_LETTERS:
        raise ValueError(f"the depth-{n} snowflake {kind} is longer than {MAX_LETTERS} letters")


def snowflake_path(params: GroupParams, n: int, flavor: str) -> PathWord:
    """sigma_{n,flavor}: a geodesic from 1 to a^(L^n) of length 5 * 2^n - 4.

    sigma_{n,s} is the expansion of the digits (0, ..., 0, 1) of L^n, the
    geodesic word of a^(L^n); sigma_{n,t} is its image under s <-> t.  A
    depth whose path is longer than MAX_LETTERS raises ValueError.
    """
    _check_depth(n, "path")
    if flavor not in ("s", "t"):
        raise ValueError(f"flavor must be 's' or 't', got {flavor!r}")
    chars = _expand_digits((0,) * n + (1,))
    return PathWord(params, chars if flavor == "s" else chars.translate(_SWAP_ST))


def snowflake_loop(params: GroupParams, n: int) -> PathWord:
    """The closed loop sigma_{n,s} + reverse(sigma_{n,t}) of length 2(5 * 2^n - 4).

    A depth whose loop is longer than MAX_LETTERS raises ValueError.
    """
    _check_depth(n, "loop")
    return PathWord(
        params,
        snowflake_path(params, n, "s").chars + invert_chars(snowflake_path(params, n, "t").chars),
    )


# ---------------------------------------------------------------------------
# escape decomposition


@dataclass(frozen=True)
class PathSegment:
    """A toral subpath or an escape of a decomposed path.

    An escape's trace, the toral path between its endpoints, is
    (flavor, exponent).
    """

    kind: str  # 'toral' | 'a-escape' | 'x-escape' | 'y-escape'
    word: PathWord
    flavor: Optional[str]  # 'a' | 'x' | 'y', None for a toral piece that is no pure power
    exponent: Optional[int]
    start: int  # letter offsets into the decomposed path
    end: int

    def is_escape(self) -> bool:
        return self.kind != "toral"


def decompose_escapes(params: GroupParams, path: PathWord) -> list[PathSegment]:
    """Split a path with endpoints in the coset H into escapes and toral pieces.

    The path is folded once and only its visits to H are kept (h_visits).
    A maximal run of single toral edges is one toral segment; every other
    pair of successive visits is one escape.
    """
    visits = h_visits(params.L, path.chars)
    if visits[-1][0] != len(path.chars):
        raise ValueError("path endpoint leaves the coset H")
    segments: list[PathSegment] = []
    for toral, pairs in groupby(pairwise(visits), lambda pair: pair[1][0] == pair[0][0] + 1):
        if toral:  # one segment, from the run's first visit to its last
            run = list(pairs)
            (a, au, av), (b, bu, bv) = run[0][0], run[-1][1]
            flavor, exponent = HPoint(bu - au, bv - av).as_power(params) or (None, None)
            segments.append(PathSegment("toral", PathWord(params, path.chars[a:b]), flavor, exponent, a, b))
            continue
        for (a, au, av), (b, bu, bv) in pairs:
            word = PathWord(params, path.chars[a:b])
            power = HPoint(bu - au, bv - av).as_power(params)
            flavor = _CROSSING[word.chars[0]][0]  # the power that leaves across the opening letter
            if power is None or (power[0] != flavor and power[1] != 0):
                raise ValueError(f"escape at offset {a} does not trace a {flavor}-power")
            segments.append(PathSegment(f"{flavor}-escape", word, flavor, power[1], a, b))
    return segments


# ---------------------------------------------------------------------------
# enfilade decomposition


@dataclass(frozen=True)
class EnfiladeDecomposition:
    """The maximal nested factorization of an escape (growth parameter R > 2):

    gamma = eps_0 alpha_1 eps_1 ... alpha_n eps_n end eps_n^-1 beta_n ... beta_1 eps_0^-1

    with |gamma_(i+1)| >= (R-1)/R |gamma'_i| at every level.  flavors[i] is
    the flavor of the level-i escape; flavors[n+1] is the flavor of the
    endpoint difference of the end.  All exponents share one sign whenever
    the input is close enough to geodesic (biLipschitz constant below 2).
    """

    params: GroupParams
    epsilons: tuple[str, ...]
    alphas: tuple[PathWord, ...]
    betas: tuple[PathWord, ...]
    end: PathWord
    flavors: tuple[str, ...]
    exponents: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.epsilons) - 1

    def reassemble(self) -> PathWord:
        chars = self.epsilons[-1] + self.end.chars + self.epsilons[-1].swapcase()
        for i in range(len(self.epsilons) - 2, -1, -1):
            chars = (
                self.epsilons[i]
                + self.alphas[i].chars
                + chars
                + self.betas[i].chars
                + self.epsilons[i].swapcase()
            )
        return PathWord(self.params, chars)


def _single_escape(params: GroupParams, path: PathWord) -> PathSegment:
    segments = decompose_escapes(params, path)
    if len(segments) != 1 or not segments[0].is_escape():
        raise ValueError("path is not a single escape")
    return segments[0]


def enfilade_decompose(params: GroupParams, path: PathWord, R) -> EnfiladeDecomposition:
    """The unique maximal R-enfilade decomposition of a single escape."""
    R = Fraction(R)
    if R <= 2:
        raise ValueError(f"R must exceed 2, got {R}")
    seg = _single_escape(params, path)

    epsilons: list[str] = []
    alphas: list[PathWord] = []
    betas: list[PathWord] = []
    flavors: list[str] = [seg.flavor]
    exponents: list[int] = [seg.exponent]

    current = seg.word
    while True:
        eps = current.chars[0]
        if current.chars[-1] != eps.swapcase():
            raise ValueError("escape does not close with the inverse stable letter")
        epsilons.append(eps)
        inner = PathWord(params, current.chars[1:-1])
        candidates = [
            s
            for s in decompose_escapes(params, inner)
            if s.is_escape() and R * s.word.length >= (R - 1) * inner.length
        ]
        if not candidates:
            return EnfiladeDecomposition(
                params,
                tuple(epsilons),
                tuple(alphas),
                tuple(betas),
                inner,
                tuple(flavors) + (_CROSSING[eps][1],),  # the power it lands as
                tuple(exponents),
            )
        if len(candidates) > 1:
            raise InvariantViolation(
                f"R > 2 admits at most one qualifying escape, found {len(candidates)}"
            )
        nxt = candidates[0]
        alphas.append(PathWord(params, inner.chars[: nxt.start]))
        betas.append(PathWord(params, inner.chars[nxt.end :]))
        flavors.append(nxt.flavor)
        exponents.append(nxt.exponent)
        current = nxt.word


# ---------------------------------------------------------------------------
# loop verification


@dataclass(frozen=True)
class BilipReport:
    """Result of scanning all vertex pairs of a closed loop.

    constant = max over pairs of d_loop(p, q) / d_X(p, q) when complete;
    when some pair exceeded the cap, `constant` is only a certified lower
    bound and `complete` is False.  Non-embedded loops report the first
    repeated vertex (or edge) instead of a constant.
    """

    embedded: bool
    complete: bool
    constant: Optional[Fraction]
    witness: Optional[tuple[int, int]]
    repeated_at: Optional[tuple[int, int]] = None


def _check_closed(L: int, loop: PathWord) -> None:
    """Refuse a loop with x or y edges, or one whose word is not trivial."""
    if any(c in loop.chars for c in "xXyY"):
        raise ValueError("loop checks require an {a, s, t} word (x/y edges are weighted)")
    if reduce_chars(L, loop.chars) != (0, 0):
        raise ValueError("path is not a closed loop")


def loop_bilip_constant(params: GroupParams, loop: PathWord, cap: int) -> BilipReport:
    """Max distortion ratio d_loop / d_X over vertex pairs of an embedded loop.

    d(g_i, g_j) = |g_i^-1 g_j| is searched to at most c = min(cap, d_loop)
    by the program along the Bass-Serre tree (hnn_group._tree_dist), with
    one line table built for the largest c.  g_i^-1 g_j is spelled by the
    letters i to j of the loop, so the goals from g_i are the prefix keys
    of the loop read from i.  A table or layer of more than hnn_group.MAX_POINTS points
    raises BudgetExceeded.

    The scan is a branch and bound.  Both arcs of the loop are {a, s, t}
    paths from g_i to g_j, so d <= d_loop: with cap >= d_loop a pair is
    always within its cap.  Once the constant so far is num/den, such a
    pair raises it (strictly, d_loop den > num d) only if
    d <= (d_loop den - 1) // num, so it is searched only that far, and
    skipped when that is below 1; a None there only says it cannot raise
    the constant.  A pair with cap < d_loop is searched to cap, and a None
    there makes the report incomplete.  Every cap then drops to its
    largest value of the pair's parity (module docstring), and a pair
    whose cap drops below 1 is skipped.  So every field of the report, the
    first witness of the largest ratio included, is that of searching
    each pair to min(cap, d_loop).

    Many pairs spell one element, so each goal's search is kept for the
    call: its distance d, or that it lies beyond the cap c searched.  A
    later pair with that goal is answered from the record, and searched
    again only for a cap above c.
    """
    L = params.L
    _check_closed(L, loop)
    keys = prefix_keys(L, loop.chars)[:-1]
    n = len(keys)
    seen: dict[tuple, int] = {}
    for i, k in enumerate(keys):
        if k in seen:
            return BilipReport(False, True, None, None, repeated_at=(seen[k], i))
        seen[k] = i
    # with distinct vertices, edges i != j coincide only if g_i = g_(j+1) and
    # g_(i+1) = g_j, so i = j + 1 and j = i + 1 mod n: the loop of length 2
    if n == 2:
        return BilipReport(False, True, None, None, repeated_at=(1, 0))
    table = _line_table(L, min(cap, n // 2))
    num, den = 0, 1  # the constant so far, num/den
    witness: Optional[tuple[int, int]] = None
    complete = True
    searched: dict[tuple, int] = {}  # goal -> its distance d >= 1, or -c: beyond c
    for i in range(n):
        goals = prefix_keys(L, loop.chars[i:])  # goals[j - i] = g_i^-1 g_j
        for j in range(i + 1, n):
            d_loop = min(j - i, n - (j - i))
            if d_loop <= 1:
                continue
            c = min(cap, d_loop)
            if cap >= d_loop and witness is not None:  # d <= d_loop: only d <= c raises num/den
                c = (d_loop * den - 1) // num
            c -= (c - d_loop) & 1  # d has the parity of j - i, so of d_loop (n is even)
            d = None
            if c >= 1:
                goal = goals[j - i]
                known = searched.get(goal, 0)
                if known > 0:
                    d = known if known <= c else None
                elif -known < c:
                    d = _tree_dist(L, table, goal, c)
                    searched[goal] = -c if d is None else d
            if d is None:
                complete = complete and cap >= d_loop
            elif d_loop * den > num * d:
                num, den, witness = d_loop, d, (i, j)
    return BilipReport(True, complete, Fraction(num, den) if witness else Fraction(1), witness)


@dataclass(frozen=True)
class GeodesicLoopReport:
    """Result of verify_geodesic_loop; truthy iff the loop is geodesic.

    For a loop that is not, `witness` is the first antipodal vertex pair
    (i, i + |loop|/2) found closer than half the loop and `distance` is
    their distance in the Cayley graph; both are None for a loop of length
    2, which retraces its only edge.
    """

    geodesic: bool
    witness: Optional[tuple[int, int]] = None
    distance: Optional[int] = None

    def __bool__(self) -> bool:
        return self.geodesic


def verify_geodesic_loop(params: GroupParams, loop: PathWord) -> GeodesicLoopReport:
    """Whether every antipodal vertex pair of the loop is at distance |loop|/2.

    Each antipodal pair (g_i, g_(i+h)), h = |loop|/2, is measured by the
    program along the Bass-Serre tree (hnn_group._tree_dist), to the cap
    h - 2, in the order of i; the first pair found within it is the
    witness.  The loop arc shows d <= h, and d has the parity of h (module
    docstring), so ruling out h - 1 is ruling out h - 2.  The goal
    g_i^-1 g_(i+h) is the element spelled by the letters i to i + h of the
    loop, so no vertex of the loop is stored.  An open loop or one with x/y
    edges is refused before the line table is built.  A loop of length 2
    retraces its only edge, so it is not geodesic, though its two vertices
    are at distance 1; it has no witness, and no table is built for it.  A
    table or layer of more than hnn_group.MAX_POINTS points raises
    BudgetExceeded.
    """
    L = params.L
    _check_closed(L, loop)
    half = len(loop.chars) // 2
    if half == 1:
        return GeodesicLoopReport(False)
    cap = half - 2  # the loop arc shows d <= half, and d has the parity of half
    table = _line_table(L, cap)
    for i in range(half):
        d = _tree_dist(L, table, reduce_chars(L, loop.chars[i : i + half]), cap)
        if d is not None:
            return GeodesicLoopReport(False, (i, i + half), d)
    return GeodesicLoopReport(True)
