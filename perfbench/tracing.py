"""Call counting and span tracing around the package's public entry points.

The wrappers live in the benchmark, not in the package.  Each entry point
is rebound in every loaded ``snowflake_groups`` module that holds it (and on
its class, for methods), so calls from one package module into another are
seen as well as calls from the benchmark.  Only coarse public entry points
are wrapped, never per-letter helpers.

A ``Recorder(timed=False)`` only counts the calls of the entry points in
``COUNTED``; it is what untraced runs use, so that the traced run can be
checked against them.  Its wrappers also call ``self.tick`` before each
counted call, so that the reference clock (refclock.py) gets its chance
between the many pair searches of one ``verify_geodesic_loop``.  A
``Recorder(timed=True)`` wraps every entry point and also records one span
per call, in memory:
(name, start, end, parent span, phase, size, peak-RSS growth in KiB).
"""
from __future__ import annotations

import importlib
import resource
import statistics
import sys
import time
from collections import Counter


def _result_letters(args, kwargs, result):
    return len(result.chars)


def _self_letters(args, kwargs, result):
    return len(args[0].chars)


def _ball_states(args, kwargs, result):
    return len(result)


def _diagram_letters(args, kwargs, result):
    return sum(len(c.boundary.chars) for c in args[0].cells)


# (module, attribute or Class.method, sizer, record peak-RSS growth)
ENTRY_POINTS = [
    ("hnn_group", "bfs_ball", _ball_states, True),
    ("hnn_group", "pair_dist", None, False),
    ("vertex_group", "dist_a_power", None, False),
    ("vertex_group", "dist_h", None, False),
    ("vertex_group", "geodesic_expression", None, False),
    ("vertex_group", "geodesic_word_a_power", _result_letters, False),
    ("vertex_group", "geodesic_word_h", _result_letters, False),
    ("words", "PathWord.vertex_keys", _self_letters, False),
    ("paths", "verify_geodesic_loop", None, False),
    ("paths", "loop_bilip_constant", None, False),
    ("paths", "enfilade_decompose", None, False),
    ("filling", "fill_bigon", None, False),
    ("filling", "fill_triangle", None, False),
    ("filling", "fill_diamond", None, False),
    ("filling", "subdivide_snowflake", None, False),
    ("filling", "find_central_region", None, False),
    ("filling", "Diagram.boundaries_trivial", _diagram_letters, False),
    ("distortion", "distortion_table", None, False),
    ("distortion", "mn_sequence", None, False),
    ("distortion", "ag_ratio_scan", None, False),
]


# Calls counted in untraced runs too: the one exact count the self-check
# cannot read off the workload's outputs.
COUNTED = ("hnn_group.pair_dist",)


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    def __init__(self, timed: bool):
        self.timed = timed
        self.tick = lambda: None
        self.calls: Counter = Counter()
        self.spans: list = []
        self.phase = ""
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap the entry points; call once, after the package is imported.

        Untimed recorders wrap only the entry points in COUNTED, so untraced
        runs carry no other wrapper.
        """
        loaded = [m for n, m in list(sys.modules.items()) if n.startswith("snowflake_groups")]
        for module, attr, sizer, rss in ENTRY_POINTS:
            name = f"{module}.{attr.rpartition('.')[2]}"
            if not self.timed and name not in COUNTED:
                continue
            mod = importlib.import_module(f"snowflake_groups.{module}")
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name)
                setattr(cls, fn_name, self._wrap(name, getattr(cls, fn_name), sizer, rss))
                continue
            orig = getattr(mod, fn_name)
            wrapper = self._wrap(name, orig, sizer, rss)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def _wrap(self, name, fn, sizer, rss):
        calls = self.calls
        if not self.timed:
            def counted(*args, **kwargs):
                self.tick()
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            phase = self.phase
            spans.append(None)
            stack.append(idx)
            rss0 = _maxrss_kib() if rss else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, phase, 0, 0)
            # sizes are taken outside the span, after a normal return only
            grown = _maxrss_kib() - rss0 if rss else 0
            size = sizer(args, kwargs, result) if sizer else 0
            spans[idx] = (name, t0, t1, parent, phase, size, grown)
            return result

        return traced


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _select(spans, name, phase=None, top=False):
    return [
        s for s in spans
        if s[0] == name and (phase is None or s[4] == phase) and (not top or s[3] == -1)
    ]


def _total(sel):
    return sum(s[2] - s[1] for s in sel) if sel else None


def _median(sel, scale):
    return statistics.median(s[2] - s[1] for s in sel) * scale if sel else None


def _rate(sel):
    if not sel:
        return None
    return sum(s[5] for s in sel) / sum(s[2] - s[1] for s in sel)


def _self_total(spans, name):
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    sel = [i for i, s in enumerate(spans) if s[0] == name]
    return sum(spans[i][2] - spans[i][1] - child[i] for i in sel) if sel else None


# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "hnn_group.bfs_ball.s": ("s", "lower"),
    "hnn_group.bfs_ball.states": ("count", "lower"),
    "hnn_group.bfs_ball.states_per_s": ("1/s", "higher"),
    "hnn_group.bfs_ball.bytes_per_state": ("B", "lower"),
    "hnn_group.pair_dist.deep.calls": ("count", "lower"),
    "hnn_group.pair_dist.deep.s": ("s", "lower"),
    "hnn_group.pair_dist.deep.p50_ms": ("ms", "lower"),
    "hnn_group.pair_dist.deep.max_ms": ("ms", "lower"),
    "hnn_group.pair_dist.shallow.calls": ("count", "lower"),
    "hnn_group.pair_dist.shallow.s": ("s", "lower"),
    "hnn_group.pair_dist.shallow.p50_ms": ("ms", "lower"),
    "hnn_group.pair_dist.shallow.max_ms": ("ms", "lower"),
    "hnn_group.reduce_word.letters_per_s": ("1/s", "higher"),
    "vertex_group.dist_a_power.cold_us": ("us", "lower"),
    "vertex_group.dist_h.us": ("us", "lower"),
    "vertex_group.geodesic_expression.us": ("us", "lower"),
    "vertex_group.geodesic_word.letters_per_s": ("1/s", "higher"),
    "vertex_group.retained_mb": ("MB", "lower"),
    "vertex_group.dist_h.s": ("s", "lower"),
    "words.vertex_keys.letters_per_s": ("1/s", "higher"),
    "paths.verify_geodesic_loop.s": ("s", "lower"),
    "paths.verify_geodesic_loop.self_s": ("s", "lower"),
    "paths.loop_bilip_constant.s": ("s", "lower"),
    "paths.enfilade_decompose.s": ("s", "lower"),
    "filling.fill_bigon.ms": ("ms", "lower"),
    "filling.fill_triangle.ms": ("ms", "lower"),
    "filling.fill_diamond.ms": ("ms", "lower"),
    "filling.boundaries_trivial.s": ("s", "lower"),
    "filling.subdivide_snowflake.s": ("s", "lower"),
    "filling.find_central_region.s": ("s", "lower"),
    "filling.cells": ("count", "lower"),
    "filling.boundary_letters": ("count", "lower"),
    "distortion.distortion_table.s": ("s", "lower"),
    "distortion.mn_sequence.s": ("s", "lower"),
    "distortion.ag_ratio_scan.s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans, counts, retained_mb) -> dict:
    """Per-layer values from one traced run; None where the run never reached them."""
    sel = lambda name, **kw: _select(spans, name, **kw)  # noqa: E731
    ball = sel("hnn_group.bfs_ball")
    states = sum(s[5] for s in ball) if ball else None
    out = {
        "hnn_group.bfs_ball.s": _total(ball),
        "hnn_group.bfs_ball.states": states,
        "hnn_group.bfs_ball.states_per_s": _rate(ball),
        "hnn_group.bfs_ball.bytes_per_state": (
            1024 * sum(s[6] for s in ball) / states if states else None
        ),
    }
    for phase in ("deep", "shallow"):
        pd = sel("hnn_group.pair_dist", phase=phase)
        key = f"hnn_group.pair_dist.{phase}"
        out[f"{key}.calls"] = len(pd) if pd else None
        out[f"{key}.s"] = _total(pd)
        out[f"{key}.p50_ms"] = _median(pd, 1e3)
        out[f"{key}.max_ms"] = max(s[2] - s[1] for s in pd) * 1e3 if pd else None
    out["hnn_group.reduce_word.letters_per_s"] = _rate(sel("filling.boundaries_trivial"))
    out["vertex_group.dist_a_power.cold_us"] = _median(
        sel("vertex_group.dist_a_power", phase="cold", top=True), 1e6
    )
    out["vertex_group.dist_h.us"] = _median(sel("vertex_group.dist_h", phase="dist_h", top=True), 1e6)
    out["vertex_group.geodesic_expression.us"] = _median(
        sel("vertex_group.geodesic_expression", phase="expr", top=True), 1e6
    )
    out["vertex_group.geodesic_word.letters_per_s"] = _rate(
        sel("vertex_group.geodesic_word_a_power", phase="words", top=True)
        + sel("vertex_group.geodesic_word_h", phase="words", top=True)
    )
    reached_vertex_group = any(s[0].startswith("vertex_group.") for s in spans)
    out["vertex_group.retained_mb"] = retained_mb if reached_vertex_group else None
    out["vertex_group.dist_h.s"] = _total(sel("vertex_group.dist_h", phase="oracle", top=True))
    out["words.vertex_keys.letters_per_s"] = _rate(sel("words.vertex_keys"))
    out["paths.verify_geodesic_loop.s"] = _total(sel("paths.verify_geodesic_loop"))
    out["paths.verify_geodesic_loop.self_s"] = _self_total(spans, "paths.verify_geodesic_loop")
    out["paths.loop_bilip_constant.s"] = _total(sel("paths.loop_bilip_constant"))
    out["paths.enfilade_decompose.s"] = _total(sel("paths.enfilade_decompose"))
    for kind in ("bigon", "triangle", "diamond"):
        out[f"filling.fill_{kind}.ms"] = _median(sel(f"filling.fill_{kind}"), 1e3)
    for name in ("boundaries_trivial", "subdivide_snowflake", "find_central_region"):
        out[f"filling.{name}.s"] = _total(sel(f"filling.{name}"))
    out["filling.cells"] = counts.get("filling.cells") or None
    out["filling.boundary_letters"] = counts.get("filling.boundary_letters") or None
    for name in ("distortion_table", "mn_sequence", "ag_ratio_scan"):
        out[f"distortion.{name}.s"] = _total(sel(f"distortion.{name}"))
    return out
