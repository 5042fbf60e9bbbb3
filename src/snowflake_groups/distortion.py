"""Distortion tables and limit computations for the cyclic subgroups of G_L.

|a^m| grows like m^(1/alpha) with alpha = log2 L, but not monotonically;
local minima occur near powers of L.  The witness sequence

    m_n = M L^n - M (L^(n-1) + ... + 1),   M = (L-2)/2

satisfies |a^(m_n)| = (2^(n+1) - 1) M + 2^(n+2) - 4 exactly, and its
distortion ratio converges to (L+2) / ((1/2)(L-2)^2/(L-1))^(log_L 2),
while |a^(L^n)| / (L^n)^(1/alpha) converges to 5.  The gap between the two
limits witnesses why the crude power-law bounds cannot feed the reverse
Hoelder inequality directly.
"""
from __future__ import annotations

import csv
import gc
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .params import GroupParams
from .vertex_group import HPoint, dist_a_power, dist_h, dist_table
from .words import MAX_LETTERS


class DistortionRow(NamedTuple):
    """One row (m, |a^m|, ratio) of a distortion table.

    A tuple: it unpacks as `m, dist, ratio = row` and compares equal to the
    plain tuple of its fields.
    """

    m: int
    dist: int
    ratio: float  # dist / m^(1/alpha), in [1, C), strict > 1 unless m = 1


def distortion_rows(params: GroupParams, m_max: int) -> Iterator[DistortionRow]:
    """Lazy rows (m, |a^m|, ratio) for m = 1..m_max over an eager dist_table.

    m_max below 1 or over MAX_LETTERS raises ValueError here, not on the
    first row.  The ratio is dist / 2.0 ** (log(m) / log(L)), the float
    operations of params.root in the same order, run by C-level maps.  Each
    row is made by tuple.__new__(DistortionRow, (m, dist, ratio)), which is
    what the NamedTuple's own __new__ does, but with no Python-level call
    per row.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if m_max > MAX_LETTERS:
        raise ValueError(f"m_max must be at most {MAX_LETTERS}, got {m_max}")
    table = dist_table(params, m_max)
    ms = range(1, m_max + 1)
    exponents = map(operator.truediv, map(math.log, ms), repeat(math.log(params.L)))
    roots = map(pow, repeat(2.0), exponents)
    ratios = map(operator.truediv, islice(table, 1, None), roots)
    return map(tuple.__new__, repeat(DistortionRow), zip(ms, islice(table, 1, None), ratios))


def distortion_table(params: GroupParams, m_max: int) -> list[DistortionRow]:
    """The rows of distortion_rows as a list.

    The cyclic GC is paused while the list is built: the rows hold only
    ints and floats and can form no cycle, but as tuple subclasses they stay
    tracked, and at m_max = 10^6 the collector made 8 full sweeps over them
    for nothing.  A caller that had the GC disabled keeps it disabled.  The
    rows' lengths are the shared ints of dist_table: at L = 6 and
    m_max = 10^6 the list grows the heap by about 153 MB.
    """
    rows = distortion_rows(params, m_max)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return list(rows)
    finally:
        if was_enabled:
            gc.enable()


def write_distortion_csv(rows: Iterable[DistortionRow], fp: TextIO) -> None:
    writer = csv.writer(fp)
    writer.writerow(["m", "dist", "ratio"])
    for row in rows:
        writer.writerow([row.m, row.dist, f"{row.ratio:.12g}"])


@dataclass(frozen=True)
class MnRow:
    n: int
    m: int
    dist: int
    predicted: int  # (2^(n+1) - 1) M + 2^(n+2) - 4
    ratio: float


def _mn_length(M: int, n: int) -> int:
    """(2^(n+1) - 1) M + 2^(n+2) - 4, the closed form of |a^(m_n)|."""
    return (2 ** (n + 1) - 1) * M + 2 ** (n + 2) - 4


def mn_sequence(params: GroupParams, n_max: int) -> list[MnRow]:
    """The slow witness sequence m_n with its exact closed-form lengths.

    Each row's ratio is a float, so an n_max whose |a^(m_n)| is beyond the
    float range (n_max about 1020 for L = 6) raises ValueError.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    L = params.L
    M = (L - 2) // 2
    if n_max >= sys.float_info.max_exp or _mn_length(M, n_max) > sys.float_info.max:
        raise ValueError(f"|a^(m_n)| at n_max = {n_max} is beyond the float range of its ratio")
    rows = []
    geom = 0  # L^(n-1) + ... + 1
    for n in range(n_max + 1):
        m = M * L**n - M * geom
        predicted = _mn_length(M, n)
        dist = dist_a_power(params, m)
        rows.append(MnRow(n, m, dist, predicted, dist / params.root(m)))
        geom = geom * L + 1
    return rows


def eq42_limit(params: GroupParams) -> float:
    """lim |a^(m_n)| / m_n^(1/alpha) = (L+2) / ((1/2)(L-2)^2/(L-1))^(log_L 2)."""
    L = params.L
    return (L + 2) / (0.5 * (L - 2) ** 2 / (L - 1)) ** (math.log(2) / math.log(L))


@dataclass(frozen=True)
class GapReport:
    """The gap between the limsup and liminf distortion constants, and the
    Hoelder defect, read off proxies for the two constants.

    The proxies are the limits along the two witness subsequences only:
    limsup proxy eq42_limit from m_n, liminf proxy = lim |a^(L^n)|/2^n = 5
    exactly.
    """

    gap_ratio: float  # limsup / liminf proxy, must exceed (L+6)/10
    holder_product: float | None  # (liminf/limsup) 2^(1-1/alpha) for L >= 10, must be below 1


def gap_checks(params: GroupParams) -> GapReport:
    """The gap limsup/liminf, to exceed (L+6)/10, and for L >= 10 the Hoelder defect."""
    hi, lo = eq42_limit(params), 5.0
    holder = (lo / hi) * 2.0 ** (1.0 - 1.0 / params.alpha) if params.L >= 10 else None
    return GapReport(hi / lo, holder)


_HOLDER_TOL = 1e-12  # float slack, relative to max(1, sum r_i^(1/a))


def reverse_holder_check(params: GroupParams, samples: Sequence[Sequence[float]]) -> bool:
    """Both reverse Hoelder inequalities, to _HOLDER_TOL, on each tuple of reals >= 0:

    (1/n)^(1-1/a) * sum r_i^(1/a)  <=  (sum r_i)^(1/a)  <=  sum r_i^(1/a)
    """
    a = params.alpha
    for sample in samples:
        if any(r < 0 for r in sample):
            raise ValueError("reverse Hoelder needs nonnegative inputs")
        n = len(sample)
        if n == 0:
            continue
        roots = sum(r ** (1.0 / a) for r in sample)
        total = sum(sample) ** (1.0 / a)
        slack = _HOLDER_TOL * max(1.0, roots)
        if not ((1.0 / n) ** (1.0 - 1.0 / a) * roots <= total + slack):
            return False
        if not (total <= roots + slack):
            return False
    return True


@dataclass(frozen=True)
class AgRatioScan:
    max_ratio: Fraction
    at: tuple[int, int]  # (ell, m) achieving it


def ag_ratio_scan(params: GroupParams, bound: int) -> AgRatioScan:
    """max over |ell|, |m| <= bound of (|a^ell| + |x^m|) / |a^ell x^m|.

    Finite by the splitting inequality for a-and-x products; ratios are 1
    whenever ell = 0 or m = 0.  The first strict maximum in scan order wins,
    compared in ints.  Each |a^ell| and |x^m| is computed once.
    """
    if bound < 1:
        raise ValueError("scan bound must be >= 1")
    best_n, best_d, arg = 1, 1, (0, 1)
    exps = range(-bound, bound + 1)
    x_lengths = [dist_h(params, HPoint(0, m)) for m in exps]
    for ell in exps:
        a = dist_a_power(params, ell)
        for m, x in zip(exps, x_lengths):
            if ell == 0 and m == 0:
                continue
            num = a + x
            den = dist_h(params, HPoint(ell, m))
            if num * best_d > best_n * den:
                best_n, best_d, arg = num, den, (ell, m)
    return AgRatioScan(Fraction(best_n, best_d), arg)
