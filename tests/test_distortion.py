"""Distortion tables, the slow witness sequence, and the limit checks."""

import gc
import io
import math
import random

import pytest

from snowflake_groups import (
    GroupParams,
    HPoint,
    ag_ratio_scan,
    dist_a_power,
    dist_h,
    dist_table,
    distortion,
    distortion_table,
    eq42_limit,
    gap_checks,
    mn_sequence,
    reverse_holder_check,
)
from snowflake_groups.distortion import DistortionRow, distortion_rows, write_distortion_csv


def test_table_non_monotone_witness(p10):
    rows = distortion_table(p10, 100)
    by_m = {r.m: r for r in rows}
    assert by_m[10].dist == 6
    assert by_m[9].dist == 7  # monotonicity fails
    assert by_m[1].ratio == pytest.approx(1.0)
    for r in rows:
        assert 1 - 1e-12 <= r.ratio < p10.C
        if r.m > 1:
            assert r.ratio > 1


def test_table_rejects_bad_bound(p10):
    with pytest.raises(ValueError):
        distortion_table(p10, 0)


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_table_rows_match_reference(L):
    # params.root is the reference formula; the ratio must equal it bit for bit
    params = GroupParams(L)
    m_max = 2 * 10**5
    table = dist_table(params, m_max)
    rows = distortion_table(params, m_max)
    assert len(rows) == m_max
    for m, row in enumerate(rows, 1):
        assert row.m == m
        assert row.dist == table[m]
        assert row.ratio == row.dist / params.root(m)


@pytest.mark.parametrize("m_max", [1, 7, 1000])
def test_rows_are_distortion_rows(p6, m_max):
    rows = distortion_table(p6, m_max)
    assert all(type(row) is DistortionRow for row in rows)
    assert all(type(row) is DistortionRow for row in distortion_rows(p6, m_max))


def test_rows_are_immutable_tuples(p6):
    row = distortion_table(p6, 3)[2]
    with pytest.raises(AttributeError):
        row.ratio = 1.0
    m, dist, ratio = row
    assert row == (3, dist, ratio) and (m, dist) == (3, 3)


def test_distortion_rows_validate_eagerly(p6):
    with pytest.raises(ValueError):
        distortion_rows(p6, 0)
    assert list(distortion_rows(p6, 50)) == distortion_table(p6, 50)


@pytest.mark.parametrize("enabled", [True, False])
def test_table_restores_gc_state(p6, monkeypatch, enabled):
    was = gc.isenabled()
    try:
        if not enabled:
            gc.disable()
        distortion_table(p6, 1000)
        assert gc.isenabled() is enabled

        def broken_table(params, m_max):
            # a non-number late in the table: the row build fails part way
            table = dist_table(params, m_max)
            table[-10] = "broken"
            return table

        monkeypatch.setattr(distortion, "dist_table", broken_table)
        with pytest.raises(TypeError):
            distortion_table(p6, 1000)
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()


def test_csv_export(p6):
    buf = io.StringIO()
    write_distortion_csv(distortion_table(p6, 5), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "m,dist,ratio"
    assert lines[1].startswith("1,1,")
    assert len(lines) == 6


def test_mn_examples(p6, p10):
    rows = mn_sequence(p10, 1)
    assert (rows[0].m, rows[0].dist) == (4, 4)
    assert (rows[1].m, rows[1].dist) == (36, 16)
    rows = mn_sequence(p6, 2)
    assert rows[2].m == 58
    assert rows[2].dist == 26 == rows[2].predicted


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_mn_closed_form(L):
    params = GroupParams(L)
    for row in mn_sequence(params, 25):
        assert row.dist == row.predicted


def test_eq42_values(p6, p10):
    assert eq42_limit(p10) == pytest.approx(8.191087647859346)
    assert eq42_limit(p6) == pytest.approx(6.66999638731666)
    assert eq42_limit(p6) > p6.L / 2 + 3  # the proof's lower bound on [6, inf)


def test_mn_ratio_converges(p10):
    rows = mn_sequence(p10, 40)
    assert abs(rows[40].ratio - eq42_limit(p10)) < 1e-3


@pytest.mark.parametrize("L", [6, 10, 12])
def test_gap_checks(L):
    params = GroupParams(L)
    report = gap_checks(params)
    assert report.gap_ratio == pytest.approx(eq42_limit(params) / 5)  # the liminf proxy is 5
    assert report.gap_ratio > (L + 6) / 10
    if L >= 10:
        assert report.holder_product < 1
    else:
        assert report.holder_product is None


def test_gap_check_instance_values(p10):
    report = gap_checks(p10)
    assert report.gap_ratio == pytest.approx(1.638, abs=1e-3)
    assert report.holder_product == pytest.approx(0.9909, abs=1e-3)


def test_reverse_holder_equality_cases(p6):
    # all-equal tuples make the left inequality tight; singletons make both tight
    assert reverse_holder_check(p6, [[2.5] * 4, [7.0], []])
    rng = random.Random(42)
    samples = [
        [rng.uniform(0, 100) for _ in range(rng.randint(1, 8))] for _ in range(100_000)
    ]
    assert reverse_holder_check(p6, samples)


def test_reverse_holder_rejects_negative(p6):
    with pytest.raises(ValueError):
        reverse_holder_check(p6, [[1.0, -2.0]])


def test_xy_distortion_and_steps():
    # x/y distortion stays in [1, C) and steps by exactly 1, scanned to 10^6
    for L in (6, 10):
        params = GroupParams(L)
        table = dist_table(params, 10**6)
        root = params.root
        x17, y17 = HPoint(0, 17), HPoint.generator(params, "y", 17)
        assert dist_h(params, x17) == 2 + table[17] == dist_h(params, y17)
        prev = None
        for m in range(1, 10**6 + 1):
            d = 2 + table[m]  # |x^m| = |y^m| = 2 + |a^m|
            assert 1 <= d / root(m) < params.C
            if prev is not None:
                assert abs(d - prev) == 1
            prev = d


def test_ag_ratio_scan_small(p6):
    scan = ag_ratio_scan(p6, 20)
    assert scan.max_ratio >= 1
    num = dist_a_power(p6, scan.at[0]) + dist_h(p6, HPoint(0, scan.at[1]))
    assert scan.max_ratio == num / dist_h(p6, HPoint(*scan.at))


@pytest.mark.parametrize("L, at", [(6, (-30, 5)), (8, (-24, 3)), (10, (-30, 3)), (12, (-24, 2))])
def test_ag_ratio_scan_pins_the_first_maximum(L, at):
    # the benchmark's answers: the ratio and the first (ell, m) in scan order reaching it
    scan = ag_ratio_scan(GroupParams(L), 30)
    assert (scan.max_ratio, scan.at) == (3, at)


@pytest.mark.parametrize("bound", [0, -3])
def test_ag_ratio_scan_refuses_bound_below_one(p6, bound):
    with pytest.raises(ValueError) as info:
        ag_ratio_scan(p6, bound)
    assert str(info.value) == "scan bound must be >= 1"


def test_ag_ratio_scan_regression(p6):
    # frozen regression value for the exhaustive [-200, 200]^2 scan
    scan = ag_ratio_scan(p6, 200)
    assert scan.max_ratio == 3
