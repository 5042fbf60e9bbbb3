"""Van Kampen filling machinery: approximate polygons, primitive fillings,
the snowflake loop subdivision, and central regions of corridor dual trees.

An approximate polygon is a cycle of a/x/y-line segments in the vertex
group whose consecutive endpoints are close (within D).  A bigon is
filled by one strip of cells along its subdivided side.  Triangles and
diamonds share one skeleton: snap to the true polygon, carry the given
subdivisions across bigon strips onto it, fill its interior by a grid of
small cells, carry the induced subdivisions of the other sides back
across bigon strips, and close each corner with one cell.  A given
subdivision may have any number of segments of any size, as long as it
sums to its side's exponent; a triangle's a-side subdivision must also
have no two segments of opposite signs, as its points are rounded to
multiples of L one by one.  Area (cell count) and mesh (longest cell
boundary) follow from it as the docstrings state.

Diagrams here are combinatorial: a diagram is its tuple of cells, each a
closed boundary word.  Every produced boundary word reduces to the
identity; planarity is by construction and is not re-verified.  A cell
whose word freely reduces to the empty word encloses nothing, so it is
left out and does not count toward the area.
Cells enter a diagram only through Diagram.add, which spells each
(flavor, exponent) once.  A filling gives add each cell word as the parts
it is joined from (spelled pieces, verticals, corner paths), and add
free-reduces, measures and checks a word once, when it first stores it:
its normal form is folded from those of its parts, each distinct part
Britton-reduced once per diagram.  Many cells share parts (a grid's rows
and columns, a strip's verticals), so this reduces fewer letters than the
words hold.  The cells of a word share one boundary, formatted once.
Every word a filling gives add counts toward the diagram's letter limit,
a freely trivial or repeated one too, so a short input is refused whether
or not its cells survive free reduction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from typing import Callable, Iterator, Optional, Sequence

from .hnn_group import GroupElement, InvariantViolation, _fold, _key_parts, reduce_chars
from .params import GroupParams
from .paths import _check_depth, snowflake_loop, snowflake_path
from .vertex_group import (
    HPoint,
    _geodesic_chars,
    _min_residue,
    dist_a_power,
    dist_h,
    geodesic_word_h,
    xy_line_intersection,
)
from .words import MAX_LETTERS, PathWord, free_reduce, invert_chars

_FLAVOR_ORDER = {"bigon": None, "triangle": ("x", "y", "a"), "diamond": ("x", "y", "x", "y")}


def _backward(exps: Sequence[int]) -> list[int]:
    """A side's subdivision read from its other end."""
    return [-e for e in reversed(exps)]


# ---------------------------------------------------------------------------
# polygons and diagrams


@dataclass(frozen=True)
class ApproxPolygon:
    """A D-approximate bigon, triangle or diamond.

    Side i runs from corners[i] to corners[i] * flavors[i]^exponents[i]; the
    gap from that endpoint to corners[i+1] is at most D.  Triangle sides
    cycle x, y, a; diamond sides alternate x, y, x, y; a bigon has one
    flavor for both sides.  corner_paths[i], when given, joins the end of
    side i to corners[i+1] and has length at most D.
    """

    kind: str
    corners: tuple[HPoint, ...]
    flavors: tuple[str, ...]
    exponents: tuple[int, ...]
    D: int
    corner_paths: Optional[tuple[PathWord, ...]] = None

    def __post_init__(self) -> None:
        sides = {"bigon": 2, "triangle": 3, "diamond": 4}.get(self.kind)
        if sides is None:
            raise ValueError(f"unknown polygon kind {self.kind!r}")
        if not (len(self.corners) == len(self.flavors) == len(self.exponents) == sides):
            raise ValueError(f"{self.kind} needs {sides} corners/flavors/exponents")
        expected = _FLAVOR_ORDER[self.kind]
        if expected is not None and tuple(self.flavors) != expected:
            raise ValueError(f"{self.kind} sides must have flavors {expected}")
        if self.kind == "bigon" and self.flavors[0] != self.flavors[1]:
            raise ValueError("bigon sides must share one flavor")
        if self.corner_paths is not None and len(self.corner_paths) != sides:
            raise ValueError("need one corner path per side")

    def side_end(self, params: GroupParams, i: int) -> HPoint:
        return self.corners[i] * HPoint.generator(params, self.flavors[i], self.exponents[i])

    def gaps(self, params: GroupParams) -> list[int]:
        n = len(self.corners)
        return [
            dist_h(params, self.side_end(params, i).inverse() * self.corners[(i + 1) % n])
            for i in range(n)
        ]


@dataclass(frozen=True)
class Cell:
    """A 2-cell: its closed boundary word (trivial in G_L)."""

    boundary: PathWord


@dataclass
class Diagram:
    """A combinatorial van Kampen diagram: its cells, each made by add.

    cells is a tuple, so add is the only way in.  add keeps one map from
    each stored cell word, in order of first appearance, to the boundary
    its cells share, and folds each new word into the mesh and the first
    cell that is not trivial; to_json reads the same map.  Each (flavor, k)
    a filling spells is kept, and so is the normal form of each distinct
    part of a stored word, as its syllables; add counts the letters of
    every word it is given.  Only the cells take part in equality and repr.
    """

    params: GroupParams
    _cells: list[Cell] = field(default_factory=list, init=False)
    _spelled: dict[tuple[str, int], str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _words: dict[str, PathWord] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _syllables: dict[str, tuple[tuple[int, int, int], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _letters: int = field(default=0, init=False, repr=False, compare=False)
    _mesh: int = field(default=0, init=False, repr=False, compare=False)
    _first: Optional[tuple[int, GroupElement]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def spell(self, flavor: str, k: int) -> str:
        """The geodesic word of flavor^k (vertex_group._geodesic_chars), spelled
        the first time this diagram asks for it."""
        word = self._spelled.get((flavor, k))
        if word is None:
            word = self._spelled[flavor, k] = _geodesic_chars(self.params, flavor, k)
        return word

    @property
    def cells(self) -> tuple[Cell, ...]:
        """The cells in the order add made them."""
        return tuple(self._cells)

    @property
    def area(self) -> int:
        return len(self._cells)

    def add(self, parts: Sequence[str]) -> None:
        """Append the cell with boundary word "".join(parts), unless the word
        freely reduces to the empty word: such a cell encloses nothing.  This
        is the only place a Cell is made.

        `parts` are the words the cell's word is joined from, in order; a
        string is the sequence of its letters.  Every word given here counts
        toward MAX_LETTERS, repeated or freely trivial: one that would pass
        it raises ValueError before it is looked at, so a short input cannot
        spell a diagram without bound.  The first time a word is stored it
        is free-reduced, folded into mesh and checked: its normal form is
        folded from the syllables of its parts' normal forms, which is exact
        whatever the parts are.  Later cells of that word share its
        boundary.
        """
        chars = "".join(parts)
        letters = self._letters + len(chars)
        if letters > MAX_LETTERS:
            raise ValueError(f"the diagram's cells would hold more than {MAX_LETTERS} letters")
        self._letters = letters
        boundary = self._words.get(chars)
        if boundary is None:
            if not free_reduce(chars):
                return
            boundary = self._words[chars] = PathWord(self.params, chars)
            self._mesh = max(self._mesh, boundary.length)
            key = _fold(self.params.L, (0, 0), chain.from_iterable(map(self._reduced, parts)))
            if key != (0, 0) and self._first is None:
                self._first = len(self._cells), GroupElement(self.params, key)
        self._cells.append(Cell(boundary))

    def _reduced(self, part: str) -> tuple[tuple[int, int, int], ...]:
        """The normal form of the word `part` as the steps (code, u, v) that
        _fold takes: its head, then its syllables.  Britton-reduced in full
        the first time this diagram asks for it."""
        steps = self._syllables.get(part)
        if steps is None:
            key = reduce_chars(self.params.L, part)
            steps = self._syllables[part] = ((0, key[0], key[1]), *_key_parts(key))
        return steps

    @property
    def mesh(self) -> int:
        """The longest cell boundary, measured as add stores each word."""
        return self._mesh

    def first_nontrivial_cell(self) -> Optional[tuple[int, GroupElement]]:
        """(i, g): cells[i] is the first cell whose word does not reduce to
        the identity, g that word's normal form; None if there is none.
        Recorded by add, which Britton-reduces each distinct part of a
        stored word once, in full."""
        return self._first

    def boundaries_trivial(self) -> bool:
        """Whether every cell word Britton-reduces to the identity."""
        return self.first_nontrivial_cell() is None

    def to_json(self) -> dict:
        """Area, mesh and the cells' words in token form, each distinct word
        formatted once."""
        text = {chars: str(b) for chars, b in self._words.items()}
        return {
            "area": self.area,
            "mesh": self.mesh,
            "cells": [{"boundary": text[c.boundary.chars]} for c in self._cells],
        }


@dataclass(frozen=True)
class Subdivision:
    """A side split into segments: the signed exponents of a side's segments."""

    exponents: tuple[int, ...]

    def max_exponent(self) -> int:
        return max((abs(e) for e in self.exponents), default=0)


def _corner_paths(params: GroupParams, poly: ApproxPolygon) -> list[PathWord]:
    """The given corner paths, or deterministic geodesics; validated."""
    n = len(poly.corners)
    out: list[PathWord] = []
    for i in range(n):
        diff = poly.side_end(params, i).inverse() * poly.corners[(i + 1) % n]
        if poly.corner_paths is not None:
            cp = poly.corner_paths[i]
            # the key (u, v) of a^u x^v equals HPoint(u, v); a key outside H has 5 or more entries
            if reduce_chars(params.L, cp.chars) != diff:
                raise ValueError(f"corner path {i} does not join side {i} to corner {i + 1}")
            length = cp.length
        else:
            cp, length = None, dist_h(params, diff)  # measured before it is spelled
        if length > poly.D:
            raise ValueError(f"corner path {i} has length {length} > D = {poly.D}")
        out.append(geodesic_word_h(params, diff) if cp is None else cp)
    return out


# ---------------------------------------------------------------------------
# snapping approximate polygons to true ones


def snap_triangle(params: GroupParams, poly: ApproxPolygon) -> ApproxPolygon:
    """The true triangle within 2D + L of a D-approximate triangle.

    The output exponents satisfy m0' = m1' and m2' = -L * m0'; both
    guarantees are checked and raise InvariantViolation.
    """
    if poly.kind != "triangle":
        raise ValueError("snap_triangle needs a triangle")
    L = params.L
    g0, g1, g2 = poly.corners
    _, pt = xy_line_intersection(params, g0.inverse() * g1)
    g1p = g0 * pt
    g0p = HPoint(g0.u, g2.v)
    yline = g1p.u + L * g1p.v
    g2p = HPoint(yline - L * g2.v, g2.v)
    m0p = g1p.v - g0p.v
    m1p = (g2p.u - g1p.u) // L
    m2p = g0p.u - g2p.u
    if m1p != m0p or m2p != -L * m0p:
        raise InvariantViolation(f"snapped exponents {(m0p, m1p, m2p)} are not (m, m, -Lm)")
    bound = 2 * poly.D + L
    for old, new in zip(poly.corners, (g0p, g1p, g2p)):
        moved = dist_h(params, old.inverse() * new)
        if moved > bound:
            raise InvariantViolation(f"snap moved a corner by {moved} > 2D + L = {bound}")
    return ApproxPolygon("triangle", (g0p, g1p, g2p), ("x", "y", "a"), (m0p, m1p, m2p), 0)


def snap_diamond(params: GroupParams, poly: ApproxPolygon) -> ApproxPolygon:
    """The true diamond within D + 3L/2 of a D-approximate diamond (checked)."""
    if poly.kind != "diamond":
        raise ValueError("snap_diamond needs a diamond")
    L = params.L
    g1, h1, g2, h2 = poly.corners
    _, pt = xy_line_intersection(params, g1.inverse() * h1)
    h1p = g1 * pt
    yline1 = h1p.u + L * h1p.v
    p3 = _min_residue(L, yline1 - g2.u)
    g2p = HPoint(g2.u + p3, (yline1 - (g2.u + p3)) // L)
    n1p = h1p.v - g2p.v
    p2 = _min_residue(L, g2p.u - h2.u)
    yline2 = h2.u + p2 + L * h2.v
    h2p = HPoint(g2p.u, (yline2 - g2p.u) // L)
    m2p = h2p.v - g2p.v
    g1p = HPoint(g1.u, (yline2 - g1.u) // L)
    n2p = (g1p.u - h2p.u) // L
    m1p = h1p.v - g1p.v
    if m2p != -m1p or n2p != -n1p:
        raise InvariantViolation(f"snapped exponents {(m1p, n1p, m2p, n2p)} are not (m, n, -m, -n)")
    true = ApproxPolygon(
        "diamond", (g1p, h1p, g2p, h2p), ("x", "y", "x", "y"), (m1p, n1p, m2p, n2p), 0
    )
    gaps = true.gaps(params)
    if any(gaps):
        raise InvariantViolation(f"snapped diamond has gaps {gaps}")
    for old, new in zip(poly.corners, true.corners):
        moved = 2 * dist_h(params, old.inverse() * new)
        if moved > 2 * poly.D + 3 * L:
            raise InvariantViolation(f"snap moved a corner by {moved}/2 > D + 3L/2")
    return true


# ---------------------------------------------------------------------------
# bigon core

SubdivisionExps = Sequence[int]
Sides = dict[int, list[int]]  # side index -> exponents, forward along the side


def _validate_subdivision(label: str, exps: SubdivisionExps, total: int) -> None:
    if sum(exps) != total:
        raise ValueError(f"{label} subdivision sums to {sum(exps)}, expected {total}")


def _bigon_cells(
    diagram: Diagram,
    G0: HPoint,
    flavor: str,
    exps: SubdivisionExps,
    G1: HPoint,
    M1: int,
    cp_end: str,
    cp_start: str,
) -> list[int]:
    """Fill the bigon side0 = (G0, flavor, sum exps) against side1 = (G1, flavor, M1).

    cp_end joins G0 f^(sum exps) to G1; cp_start joins G1 f^M1 to G0.
    Appends one cell per segment to `diagram`, leaving out those whose word
    is freely trivial, and returns the induced subdivision of side1 (from
    G1), which has <= len(exps) parts.

    p is the last segment (at most n - 1) whose start G0 f^prefix[p] has
    prefix[p] between 0 and -M1.  Cell i runs along segment i, up V[i+1],
    back along top[i] and down V[i].  V[i] is delta0 (from G0 f^k to
    G1 f^(M1+k)) up to p, the geodesic to G1 after p, and cp_end at the
    end; top[i] is segment i reversed before p, the rest of side1 at p,
    and empty after p.
    """
    n = len(exps)
    if n == 0:
        raise ValueError("subdivision must have at least one segment")
    params = diagram.params
    prefix = list(accumulate(exps, initial=0))
    lo, hi = min(0, -M1), max(0, -M1)
    p = min(n - 1, max(i for i, s in enumerate(prefix) if lo <= s <= hi))
    after = [G0 * HPoint.generator(params, flavor, s) for s in prefix[p + 1 : n]]
    delta0 = invert_chars(cp_start)  # from G0 to G1 f^M1; translates along side0
    verticals = (
        [delta0] * (p + 1)
        + [geodesic_word_h(params, g.inverse() * G1).chars for g in after]
        + [cp_end]
    )
    tops = [-e for e in exps[:p]] + [M1 + prefix[p]] + [0] * (n - 1 - p)
    for i, (e, top) in enumerate(zip(exps, tops)):
        up, down = verticals[i + 1], invert_chars(verticals[i])
        diagram.add((diagram.spell(flavor, e), up, diagram.spell(flavor, top), down))
    return [M1 + prefix[p]] + _backward(exps[:p])


def fill_bigon(
    params: GroupParams, poly: ApproxPolygon, subdivision: SubdivisionExps
) -> tuple[Diagram, Subdivision]:
    """Fill a D-approximate bigon whose side 0 is subdivided into n segments.

    Returns the diagram (area <= n, mesh <= 2(2C+1) D + 2C E^(1/alpha),
    E the largest segment |exponent|) and the induced subdivision of
    side 1, with at most n segments bounded by E + L D^alpha.
    """
    if poly.kind != "bigon":
        raise ValueError("fill_bigon needs a bigon")
    _validate_subdivision("side 0", subdivision, poly.exponents[0])
    cps = _corner_paths(params, poly)
    diagram = Diagram(params)
    out = _bigon_cells(
        diagram, poly.corners[0], poly.flavors[0], subdivision,
        poly.corners[1], poly.exponents[1], cps[0].chars, cps[1].chars,
    )
    return diagram, Subdivision(tuple(out))


# ---------------------------------------------------------------------------
# triangle and diamond fillings


def _fill_polygon(
    params: GroupParams,
    poly: ApproxPolygon,
    snap: Callable[[GroupParams, ApproxPolygon], ApproxPolygon],
    given: dict[int, SubdivisionExps],
    interior: Callable[[Diagram, ApproxPolygon, Sides], Sides],
) -> tuple[Diagram, Subdivision, Subdivision]:
    """The skeleton shared by triangles and diamonds.

    alphas[i] joins corner i to its snapped image and gammas[i] joins the
    end of side i to snapped corner i + 1.  Each given subdivision of a
    side is carried across a bigon strip onto the true polygon `snap`
    returns; `interior(diagram, true, inbound)` fills the true polygon
    and returns subdivisions of its remaining sides, which are carried
    back across bigon strips onto `poly`; one cell closes each corner
    whose word is not freely trivial.
    Returns the diagram and the subdivisions of the remaining sides.
    """
    for i, exps in given.items():
        _validate_subdivision(f"{poly.flavors[i]}-side", exps, poly.exponents[i])
    n = len(poly.corners)
    cps = _corner_paths(params, poly)
    true = snap(params, poly)
    alphas = [geodesic_word_h(params, a.inverse() * b).chars for a, b in zip(poly.corners, true.corners)]
    gammas = [
        geodesic_word_h(params, poly.side_end(params, i).inverse() * true.corners[(i + 1) % n]).chars
        for i in range(n)
    ]
    diagram = Diagram(params)
    inbound: Sides = {}
    for i, exps in given.items():
        out = _bigon_cells(
            diagram, poly.corners[i], poly.flavors[i], exps,
            true.corners[(i + 1) % n], -true.exponents[i], gammas[i], invert_chars(alphas[i]),
        )
        inbound[i] = _backward(out)  # true side i, forward from its corner
    subs = []
    for i, exps in interior(diagram, true, inbound).items():
        out = _bigon_cells(
            diagram, true.corners[i], poly.flavors[i], exps,
            poly.side_end(params, i), -poly.exponents[i], invert_chars(gammas[i]), alphas[i],
        )
        subs.append(Subdivision(tuple(_backward(out))))
    for i in range(n):
        diagram.add((cps[i].chars, alphas[(i + 1) % n], invert_chars(gammas[i])))
    return diagram, subs[0], subs[1]


def _round_to_multiples(L: int, prefix: list[int]) -> list[int]:
    """Move interior subdivision points to the nearest multiples of L.

    Each point moves by at most L/2; ties go to the multiple nearer zero.
    The endpoints are kept (they are already multiples of L for a true
    triangle's a-side).  Rounding keeps a monotone prefix monotone; a
    prefix whose rounding is not raises InvariantViolation.
    """
    out = [prefix[0]]
    for s in prefix[1:-1]:
        q, r = divmod(s, L)
        if 2 * r < L or (2 * r == L and s >= 0):
            out.append(q * L)
        else:
            out.append((q + 1) * L)
    out.append(prefix[-1])
    direction = 1 if prefix[-1] >= prefix[0] else -1
    if any(direction * (b - a) < 0 for a, b in zip(out, out[1:])):
        raise InvariantViolation(f"rounding {prefix} to multiples of {L} gave {out}, not monotone")
    return out


def _triangle_interior(diagram: Diagram, true: ApproxPolygon, inbound: Sides) -> Sides:
    """Rounding strip and grid of a true triangle whose a-side is subdivided.

    The strip moves the a-side's subdivision points to multiples of L; the
    grid has one small triangle per step and one small diamond per pair of
    steps, and cuts the x- and y-sides alike.
    """
    L = diagram.params.L
    prefix = list(accumulate(inbound[2], initial=0))
    rounded = _round_to_multiples(L, prefix)
    for j in range(1, len(prefix)):
        if rounded[j] == prefix[j] and rounded[j - 1] == prefix[j - 1]:
            continue  # nothing moved; no strip cell needed
        word = (
            diagram.spell("a", prefix[j] - prefix[j - 1]),
            diagram.spell("a", rounded[j] - prefix[j]),
            diagram.spell("a", rounded[j - 1] - rounded[j]),
            diagram.spell("a", prefix[j - 1] - rounded[j - 1]),
        )
        diagram.add(word)

    heights = [-r // L for r in rounded]  # n_j, from 0 up to m0'
    if heights[-1] != true.exponents[0]:
        raise InvariantViolation(f"the grid rises to {heights[-1]}, not to {true.exponents[0]}")
    d = [b - a for a, b in zip(heights, heights[1:])]
    below: list[tuple[str, str]] = []  # x^(d_i) and x^(-d_i) of each step i so far
    for dj in d:
        if dj == 0:
            continue
        x_up, y_up, y_down = diagram.spell("x", dj), diagram.spell("y", dj), diagram.spell("y", -dj)
        diagram.add((diagram.spell("a", -L * dj), x_up, y_up))
        for x_i, x_back in below:
            diagram.add((x_i, y_down, x_back, y_up))
        below.append((x_up, diagram.spell("x", -dj)))
    grid = d[::-1]
    return {0: grid, 1: grid}


def fill_triangle(
    params: GroupParams, poly: ApproxPolygon, a_subdivision: SubdivisionExps
) -> tuple[Diagram, Subdivision, Subdivision]:
    """Fill a D-approximate triangle whose a-side is subdivided into n segments.

    Returns the diagram (area <= (n^2 + 9n + 6)/2, mesh <= 4C + (6C+2) D +
    2C E^(1/alpha), E the largest segment |exponent|) plus induced
    subdivisions of the x-side and y-side, with at most n segments
    bounded by 1 + E/L + D^alpha.  The a-side's points are rounded to
    multiples of L one by one, so they must run one way: a subdivision with
    segments of both signs raises ValueError before any cell is made.
    """
    if poly.kind != "triangle":
        raise ValueError("fill_triangle needs a triangle")
    _validate_subdivision("a-side", a_subdivision, poly.exponents[2])  # a wrong sum is named first
    if min(a_subdivision, default=0) < 0 < max(a_subdivision, default=0):
        raise ValueError("a-side subdivision has segments of both signs")
    return _fill_polygon(params, poly, snap_triangle, {2: a_subdivision}, _triangle_interior)


def _diamond_grid(diagram: Diagram, dw: Sequence[int], dz: Sequence[int]) -> None:
    """One small diamond x^w y^z x^-w y^-z per nonzero segment w of dw and
    z of dz; w outer.  Each row and column is spelled once; cells of one
    shape share the diagram's one boundary of their word."""
    columns = [(diagram.spell("y", z), diagram.spell("y", -z)) for z in dz if z]
    for w in dw:
        if w == 0:
            continue
        x_w, x_back = diagram.spell("x", w), diagram.spell("x", -w)
        for y_z, y_back in columns:
            diagram.add((x_w, y_z, x_back, y_back))


def _diamond_interior(diagram: Diagram, true: ApproxPolygon, inbound: Sides) -> Sides:
    """Grid of small diamonds on a true diamond whose sides 0 and 1 are subdivided."""
    _diamond_grid(diagram, inbound[0], inbound[1])
    return {2: _backward(inbound[0]), 3: _backward(inbound[1])}


def fill_diamond(
    params: GroupParams,
    poly: ApproxPolygon,
    x_subdivision: SubdivisionExps,
    y_subdivision: SubdivisionExps,
) -> tuple[Diagram, Subdivision, Subdivision]:
    """Fill a D-approximate diamond with sides 0 (x) and 1 (y) subdivided.

    For at most n segments per side, returns the diagram (area <= n^2 +
    4n + 4, mesh <= 3L + (8C+2) D + 4C E^(1/alpha), E the largest segment
    |exponent|) plus induced subdivisions of the other two sides, with at
    most n segments bounded by E + 2L D^alpha.
    """
    if poly.kind != "diamond":
        raise ValueError("fill_diamond needs a diamond")
    return _fill_polygon(
        params, poly, snap_diamond, {0: x_subdivision, 1: y_subdivision}, _diamond_interior
    )


# ---------------------------------------------------------------------------
# snowflake subdivision (loop subdivision property at desk scale)


def cap_depth(params: GroupParams, depth: int, subdivision_constant: int) -> int:
    """Smallest branch depth at which a branch caps off with one short cell.

    A depth-m branch caps once |a^(L^(p-m))| + Lam * |a^(L^(p-m)/Lam)| is at
    most half the loop length; the result is clamped to depth - 1, whose
    cap may then be too long (subdivide_snowflake checks it).
    """
    L, lam = params.L, subdivision_constant
    half = 5 * 2**depth - 4
    for m in range(1, depth):
        incoming = L ** (depth - m)
        if incoming % lam:
            continue
        if dist_a_power(params, incoming) + lam * dist_a_power(params, incoming // lam) <= half:
            return m
    return depth - 1


def subdivide_snowflake(
    params: GroupParams, depth: int, subdivision_constant: Optional[int]
) -> Diagram:
    """Subdivide the depth-p snowflake loop into boundedly many short cells.

    The central diamond becomes Lam^2 small diamonds (Lam is L when None);
    the subdivision is propagated into the branches, and every branch is
    capped by a single cell at the depth where the capping inequality first
    holds.  For p at least 2 every cell boundary is trivial and has length
    at most half the loop length; the cell count depends only on L and Lam
    once p exceeds the cap depth.  (For p = 1 the loop has the girth
    length, so no filling with cells shorter than the loop exists; the
    single-cell diagram is returned.)

    The half-length bound is checked: for p >= 2 a cell longer than half
    the loop raises InvariantViolation.  That happens where no branch depth
    meets the capping inequality (L = 12 at p = 2, whose cap is then one
    cell of length 18 > 16) and where Lam is too small to cut the central
    diamond short enough (Lam = 1, 2 or 3 at L = 6).

    The parameters are checked before the first cell is made: Lam < 1, and
    for p >= 2 a Lam over half the loop length (a cap cell holds at least
    Lam letters), a Lam that does not divide L^(p-1), or one that leaves a
    non-integral grid at a branch level, raise ValueError, as does a depth
    whose loop is longer than MAX_LETTERS.  The cells hold at most
    MAX_LETTERS letters in all (Diagram.add): L = 6 is filled up to p = 14
    (7 043 936 letters) and refused from p = 15 on.
    """
    L = params.L
    lam = subdivision_constant if subdivision_constant is not None else L
    _check_depth(depth, "loop")
    if lam < 1:
        raise ValueError(f"subdivision constant must be >= 1, got {lam}")
    diagram = Diagram(params)
    if depth == 1:
        diagram.add(snowflake_loop(params, 1).chars)
        return diagram
    half = 5 * 2**depth - 4
    if lam > half:
        raise ValueError(f"subdivision constant must be at most half the loop length, {half}, got {lam}")
    if L ** (depth - 1) % lam:
        raise ValueError(f"subdivision constant {lam} must divide L^(p-1)")
    m_star = cap_depth(params, depth, lam)
    # the exponent of the pieces a depth-m branch side is cut into, m = 1 .. m_star
    pieces = [L ** (depth - m) // lam for m in range(1, m_star + 1)]
    for m, piece in enumerate(pieces[:-1], 1):
        if piece % L:
            raise ValueError(f"subdivision constant {lam} leaves non-integral grid at depth {m}")

    # central diamond -> lam^2 small diamonds
    k1 = L ** (depth - 1) // lam
    _diamond_grid(diagram, [k1] * lam, [k1] * lam)

    # branch levels
    spell = diagram.spell
    for m, piece in enumerate(pieces[:-1], 1):
        d = piece // L
        tri_word = (spell("a", -L * d), spell("x", d), spell("y", d))
        dia_word = (spell("x", d), spell("y", -d), spell("x", -d), spell("y", d))
        for _ in range(2 ** (m + 1)):
            for _ in range(lam):
                diagram.add(tri_word)
            for _ in range((lam * lam - lam) // 2):
                diagram.add(dia_word)

    # caps
    piece_geo = invert_chars(spell("a", pieces[-1]))
    for flavor in ("s", "t"):
        cap_word = (snowflake_path(params, depth - m_star, flavor).chars, *[piece_geo] * lam)
        for _ in range(2 ** m_star):
            diagram.add(cap_word)
    if diagram.mesh > half:
        raise InvariantViolation(f"a cell of length {diagram.mesh} is longer than half the loop, {half}")
    return diagram


# ---------------------------------------------------------------------------
# corridor dual trees and the central region


@dataclass
class HnnDualTree:
    """The tree dual to the corridor decomposition of an HNN diagram.

    Nodes are vertex regions carrying the lengths of the boundary arcs
    attached to them; edges are corridors, each crossed by two boundary
    arcs of the given length.  The boundary length is the sum of all node
    arcs plus twice the sum of edge lengths.
    """

    arcs: dict[str, tuple[int, ...]]
    edges: list[tuple[str, str, int]]

    def __post_init__(self) -> None:
        nodes = set(self.arcs)
        if any(a < 0 for arcs in self.arcs.values() for a in arcs):
            raise ValueError("arc lengths must be nonnegative")
        for a, b, length in self.edges:
            if a not in nodes or b not in nodes:
                raise ValueError(f"edge ({a}, {b}) mentions an unknown node")
            if length < 0:
                raise ValueError("edge lengths must be nonnegative")
        if len(self.edges) != len(nodes) - 1:
            raise ValueError("not a tree: wrong edge count")
        if sum(1 for _ in self._walk()) != len(self.edges):
            raise ValueError("not a tree: disconnected")

    def _walk(self) -> Iterator[tuple[str, str, int]]:
        """The corridors (v, w, length) reached by a depth-first walk from the
        first node, each in the order and direction it is first crossed."""
        adj: dict[str, list[tuple[str, int]]] = {v: [] for v in self.arcs}
        for a, b, length in self.edges:
            adj[a].append((b, length))
            adj[b].append((a, length))
        root = next(iter(self.arcs))
        stack = [root]
        seen = {root}
        while stack:
            v = stack.pop()
            for w, length in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
                    yield v, w, length

    @property
    def boundary_length(self) -> int:
        return sum(sum(a) for a in self.arcs.values()) + 2 * sum(l for _, _, l in self.edges)

    def to_dot(self) -> str:
        """The tree in Graphviz DOT, every id and label a quoted string."""
        lines = ["graph dual_tree {"]
        for v in sorted(self.arcs):
            label = f"{v}|{list(self.arcs[v])}"
            lines.append(f"  {_dot_quote(v)} [label={_dot_quote(label)}];")
        for a, b, l in self.edges:
            lines.append(f'  {_dot_quote(a)} -- {_dot_quote(b)} [label="{l}"];')
        lines.append("}")
        return "\n".join(lines)


def _dot_quote(text: str) -> str:
    """text as a DOT quoted string, its backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def snowflake_hnn_tree(params: GroupParams, depth: int) -> HnnDualTree:
    """The corridor dual tree of the standard snowflake diagram.

    A central diamond node, binary-branching triangle nodes, and leaf nodes
    for the innermost a-edges (one boundary arc of length 1 each); every
    corridor has length 1.  Total arc length is the loop length 2(5 2^p - 4);
    a depth whose loop is longer than MAX_LETTERS raises ValueError.
    """
    _check_depth(depth, "loop")
    arcs: dict[str, tuple[int, ...]] = {"center": ()}
    edges: list[tuple[str, str, int]] = []

    def grow(parent: str, node: str, level: int) -> None:
        edges.append((parent, node, 1))
        if level >= depth:
            arcs[node] = (1,)
            return
        arcs[node] = ()
        for tag in ("0", "1"):
            grow(node, f"{node}.{tag}", level + 1)

    for branch in ("b0", "b1", "b2", "b3"):
        grow("center", branch, 1)
    return HnnDualTree(arcs, edges)


@dataclass(frozen=True)
class CentralLocation:
    """The unique point of the dual tree where f(x) <= 0."""

    kind: str  # 'vertex' | 'edge'
    node: Optional[str]
    edge: Optional[tuple[str, str]]
    offset: Optional[Fraction]  # distance from edge[0]
    f_value: Fraction


def _directed_masses(tree: HnnDualTree) -> dict[str, dict[str, int]]:
    """masses[v][w] = S(v -> w): boundary mass in the component of T - v containing w."""
    masses: dict[str, dict[str, int]] = {v: {} for v in tree.arcs}
    order = list(tree._walk())
    for v, w, length in reversed(order):  # children first; masses[w] holds only them so far
        masses[v][w] = 2 * length + sum(tree.arcs[w]) + sum(masses[w].values())
    total = tree.boundary_length
    for v, w, length in order:  # now fill the upward directions
        # the corridor's own two arcs belong to both directed masses
        masses[w][v] = total - masses[v][w] + 2 * length
    return masses


def _f_vertex(masses: dict[str, dict[str, int]], node: str, total: int) -> Fraction:
    """f at a node: its largest directed mass less half the boundary length."""
    return max(masses[node].values(), default=0) - Fraction(total, 2)


def f_at_vertex(tree: HnnDualTree, node: str) -> Fraction:
    """f at `node`; a node not in the tree raises ValueError naming it."""
    if node not in tree.arcs:
        raise ValueError(f"{node!r} is not a node of the tree")
    return _f_vertex(_directed_masses(tree), node, tree.boundary_length)


def f_at_edge_point(tree: HnnDualTree, edge: tuple[str, str], offset: Fraction) -> Fraction:
    """f at distance `offset` from edge[0] along the corridor `edge`.

    A pair of nodes that no corridor joins, or an offset outside
    [0, length], raises ValueError naming it.
    """
    a, b = edge
    length = next((l for x, y, l in tree.edges if {x, y} == {a, b}), None)
    if length is None:
        raise ValueError(f"{edge!r} is not an edge of the tree")
    if not 0 <= offset <= length:
        raise ValueError(f"offset {offset} is outside the edge {edge!r} of length {length}")
    masses = _directed_masses(tree)
    total = tree.boundary_length
    comp_a = total - masses[a][b] + 2 * offset
    comp_b = total - masses[b][a] + 2 * (length - offset)
    return Fraction(max(comp_a, comp_b)) - Fraction(total, 2)


def find_central_region(tree: HnnDualTree) -> CentralLocation:
    """The unique tree point where the longest complementary arc is <= half.

    Returns either a vertex (f <= 0 there) or an interior edge point where
    f vanishes.  Vertices joined by zero-length corridors are one point of
    the tree: when all that is found is such a set, its first vertex in
    `tree.arcs` order is returned.  Anything else raises InvariantViolation.
    """
    masses = _directed_masses(tree)
    total = tree.boundary_length
    half = Fraction(total, 2)
    found: list[CentralLocation] = []
    for v in tree.arcs:
        f = _f_vertex(masses, v, total)
        if f <= 0:
            found.append(CentralLocation("vertex", v, None, None, f))
    for a, b, length in tree.edges:
        m_a = total - masses[a][b]
        theta = (half - m_a) / 2
        if 0 < theta < length:
            found.append(CentralLocation("edge", None, (a, b), theta, Fraction(0)))
    vertices = {loc.node for loc in found if loc.kind == "vertex"}
    glued = sum(1 for a, b, length in tree.edges if length == 0 and a in vertices and b in vertices)
    if len(found) == 1 or (len(vertices) == len(found) > 1 and glued == len(found) - 1):
        return found[0]
    raise InvariantViolation(f"expected a unique central point, found {found}")


# ---------------------------------------------------------------------------
# worst-case area assembly


def area_budget(central: int, enfilade: int, branching: int, shells: int) -> int:
    """Worst-case area C + 4(E + B)(2^n - 1) + 2^(n+2) of the shell assembly.

    More than MAX_LETTERS shells raise ValueError before 2^(n+2) is built.
    """
    if shells < 0:
        raise ValueError("shell count must be nonnegative")
    if shells > MAX_LETTERS:
        raise ValueError(f"shell count must be at most {MAX_LETTERS}, got {shells}")
    return central + 4 * (enfilade + branching) * (2**shells - 1) + 2 ** (shells + 2)

