"""Command-line surface for the snowflake group toolkit.

Every subcommand prints deterministic output.  Exit codes: 0 on success,
1 when a verification fails or a stated invariant does not hold (the
counterexample is printed), 2 on usage errors, malformed inputs, words of
more than 10^7 letters, integers too long to print, exhausted search
budgets and exhausted memory.  No subcommand takes a budget option; the
limits are fixed.  `ball` stores at most hnn_group.MAX_BALL_STATES =
1.5 * 10^7 states, `verify-loop`'s distance program at most
hnn_group.MAX_POINTS = 10^6 points in its table or one layer, and a
`fill` diagram is given at most words.MAX_LETTERS = 10^7 letters, every
cell word counting, a freely trivial or repeated one too.  Input files are
read by _read_json, so a malformed or too deeply nested file is a usage
error too.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import distortion, filling, paths
from .hnn_group import BudgetExceeded, InvariantViolation, bfs_ball
from .params import GroupParams
from .vertex_group import (
    HPoint,
    dist_a_power,
    dist_h,
    geodesic_expression,
    geodesic_word_a_power,
    geodesic_word_h,
)
from .words import PathWord, parse_word

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")


def _emit(args, payload: dict, plain: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


def _cmd_dist(args) -> int:
    params = GroupParams(args.L)
    if args.a_power is not None:
        d = dist_a_power(params, args.a_power)
        _emit(args, {"L": params.L, "a_power": args.a_power, "dist": d}, str(d))
    else:
        u, v = args.h
        d = dist_h(params, HPoint(u, v))
        _emit(args, {"L": params.L, "u": u, "v": v, "dist": d}, str(d))
    return 0


def _cmd_expr(args) -> int:
    params = GroupParams(args.L)
    e = geodesic_expression(params, args.m)
    payload = {
        "L": params.L,
        "m": args.m,
        "digits": list(e.digits),
        "length": e.path_length(),
    }
    _emit(args, payload, f"digits {list(e.digits)} length {e.path_length()}")
    return 0


def _cmd_word(args) -> int:
    params = GroupParams(args.L)
    h = HPoint(*args.h) if args.h is not None else None
    w = geodesic_word_a_power(params, args.a_power) if h is None else geodesic_word_h(params, h)
    _emit(args, {"L": params.L, "word": str(w), "length": w.length}, str(w))
    return 0


def _refuse_unprintable(value: int, option: str) -> None:
    """ValueError naming `option` if str(value) would pass the interpreter's
    digit limit for int-to-str conversion (0 means no limit)."""
    limit = sys.get_int_max_str_digits()
    if limit and abs(value) >= 10**limit:
        raise ValueError(f"{option} gives an integer of more than {limit} digits, too long to print")


def _cmd_table(args) -> int:
    params = GroupParams(args.L)
    distortion.write_distortion_csv(distortion.distortion_rows(params, args.m_max), sys.stdout)
    return 0


def _cmd_mn(args) -> int:
    params = GroupParams(args.L)
    rows = distortion.mn_sequence(params, args.n_max)
    _refuse_unprintable(rows[-1].m, f"--n-max {args.n_max}")  # m_n grows with n
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"n": r.n, "m": str(r.m), "dist": r.dist, "predicted": r.predicted}
                    for r in rows
                ],
                sort_keys=True,
            )
        )
    else:
        for r in rows:
            print(f"{r.n} {r.m} {r.dist} {r.predicted} {r.ratio:.9g}")
    return 0


def _cmd_snowflake(args) -> int:
    params = GroupParams(args.L)
    if args.loop:
        w = paths.snowflake_loop(params, args.n)
    else:
        w = paths.snowflake_path(params, args.n, args.flavor)
    _emit(args, {"L": params.L, "n": args.n, "word": str(w), "length": w.length}, str(w))
    return 0


def _cmd_verify_loop(args) -> int:
    params = GroupParams(args.L)
    if args.n is not None:
        loop = paths.snowflake_loop(params, args.n)
    else:
        loop = PathWord(params, parse_word(args.word))
    report = paths.verify_geodesic_loop(params, loop)
    ok = report.geodesic
    _emit(args, {"geodesic": ok, "length": loop.length}, f"geodesic: {'true' if ok else 'false'}")
    if not ok:
        if report.witness is None:
            reason = "the loop of length 2 retraces its only edge"
        else:
            i, j = report.witness
            reason = f"vertices {i} and {j} are at distance {report.distance} < {loop.length // 2}"
        print(f"counterexample: {reason}", file=sys.stderr)
        return 1
    return 0


def _cmd_ball(args) -> int:
    params = GroupParams(args.L)
    ball = bfs_ball(params, args.radius)
    ball.dump_jsonl(sys.stdout)
    return 0


def _rational(text: str) -> Fraction:
    """--R as a Fraction.  Fraction builds 10^k for a decimal exponent k, so
    a k with more digits than int() accepts is refused before that; a zero
    denominator is a ValueError too."""
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > sys.int_info.default_max_str_digits:
        raise ValueError(f"the exponent of R = {text} is over {sys.int_info.default_max_str_digits}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"R = {text} has a zero denominator") from None


def _cmd_enfilade(args) -> int:
    params = GroupParams(args.L)
    word = PathWord(params, parse_word(args.word))
    dec = paths.enfilade_decompose(params, word, _rational(args.R))
    payload = {
        "depth": dec.depth,
        "epsilons": [str(PathWord(params, e)) for e in dec.epsilons],
        "alphas": [str(a) for a in dec.alphas],
        "betas": [str(b) for b in dec.betas],
        "end": str(dec.end),
        "flavors": list(dec.flavors),
        "exponents": list(dec.exponents),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _read_json(path: str):
    """The JSON value in the file at path.  A file nested too deeply for
    json.load raises ValueError, not RecursionError."""
    with open(path) as fp:
        try:
            return json.load(fp)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _subdivision(data, name: str) -> list[int]:
    """The exponent list `name` of a polygon file."""
    try:
        return [filling._json_int(k) for k in data[name]]
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"polygon JSON: {name!r} must be a list of integers") from None


def _cmd_fill(args) -> int:
    params = GroupParams(args.L)
    if args.shape == "snowflake":
        diagram = filling.subdivide_snowflake(params, args.p, args.subdivision_constant)
        payload = diagram.to_json()
    else:
        data = _read_json(args.input)
        poly = filling.polygon_from_json(params, data)
        names = ("subdivision", "subdivision2") if args.shape == "diamond" else ("subdivision",)
        fill = getattr(filling, f"fill_{args.shape}")
        diagram, *sides = fill(params, poly, *[_subdivision(data, name) for name in names])
        payload = diagram.to_json()
        payload["subdivisions"] = [list(side.exponents) for side in sides]
    failure = diagram.first_nontrivial_cell()
    payload["trivial"] = failure is None
    print(json.dumps(payload, sort_keys=True))
    if failure is None:
        return 0
    i, normal_form = failure
    print(f"counterexample: cell {i} reduces to {normal_form}, not 1", file=sys.stderr)
    return 1


def _cmd_central(args) -> int:
    if args.p is not None:
        params = GroupParams(args.L)
        tree = filling.snowflake_hnn_tree(params, args.p)
    else:
        tree = filling.HnnDualTree.from_json(_read_json(args.input))
    loc = filling.find_central_region(tree)
    payload = {
        "kind": loc.kind,
        "node": loc.node,
        "edge": list(loc.edge) if loc.edge else None,
        "offset": [loc.offset.numerator, loc.offset.denominator] if loc.offset is not None else None,
        "f": [loc.f_value.numerator, loc.f_value.denominator],
    }
    if args.dot:
        print(tree.to_dot())
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_area_budget(args) -> int:
    value = filling.area_budget(args.central, args.enfilade, args.branching, args.shells)
    _refuse_unprintable(value, f"--shells {args.shells}")
    _emit(args, {"area": value}, str(value))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snowflake-groups",
        description="Word metrics, geodesics, distortion and fillings in the snowflake groups G_L.",
    )
    parser.add_argument("--format", choices=("plain", "json"), default="plain")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--L", type=int, required=True, help="even defining parameter, >= 6")

    p = sub.add_parser("dist", help="distance of a^m or of an H element a^u x^v")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--a-power", type=int)
    g.add_argument("--h", nargs=2, type=int, metavar=("U", "V"))
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("expr", help="geodesic digit expression of m")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_expr)

    p = sub.add_parser("word", help="geodesic word to a^m or to a^u x^v")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--a-power", type=int)
    g.add_argument("--h", nargs=2, type=int, metavar=("U", "V"))
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("table", help="distortion table as CSV (m,dist,ratio)")
    common(p)
    p.add_argument("--m-max", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("mn", help="the slow witness sequence m_n and its lengths")
    common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_mn)

    p = sub.add_parser("snowflake", help="emit a snowflake path or loop")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--flavor", choices=("s", "t"), default="s")
    p.add_argument("--loop", action="store_true")
    p.set_defaults(func=_cmd_snowflake)

    p = sub.add_parser("verify-loop", help="check that a loop is geodesic")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int, help="use the depth-n snowflake loop")
    g.add_argument("--word", type=str, help="explicit loop word, e.g. 's a s^-1 ...'")
    p.set_defaults(func=_cmd_verify_loop)

    p = sub.add_parser("ball", help="dump the BFS ball as JSON lines")
    common(p)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("enfilade", help="R-enfilade decomposition of an escape word")
    common(p)
    p.add_argument("--word", type=str, required=True)
    p.add_argument("--R", type=str, required=True, help="rational > 2, e.g. 4 or 7/2")
    p.set_defaults(func=_cmd_enfilade)

    p = sub.add_parser("fill", help="fill a polygon file or the snowflake loop")
    common(p)
    p.add_argument("shape", choices=("bigon", "triangle", "diamond", "snowflake"))
    p.add_argument("--input", type=str, help="polygon JSON file (non-snowflake shapes)")
    p.add_argument("--p", type=int, help="snowflake depth")
    p.add_argument("--subdivision-constant", type=int, default=None)
    p.set_defaults(func=_cmd_fill)

    p = sub.add_parser("central", help="central region of a corridor dual tree")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--input", type=str, help="dual tree JSON file")
    g.add_argument("--p", type=int, help="use the depth-p snowflake tree")
    p.add_argument("--dot", action="store_true", help="also print a DOT rendering")
    p.set_defaults(func=_cmd_central)

    p = sub.add_parser("area-budget", help="worst-case area of the shell assembly")
    p.add_argument("--central", type=int, required=True)
    p.add_argument("--enfilade", type=int, required=True)
    p.add_argument("--branching", type=int, required=True)
    p.add_argument("--shells", type=int, required=True)
    p.set_defaults(func=_cmd_area_budget)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "fill":
        if args.shape == "snowflake" and args.p is None:
            parser.error("fill snowflake requires --p")
        if args.shape != "snowflake" and not args.input:
            parser.error(f"fill {args.shape} requires --input")
        # the options the shape does not read: a snowflake has no file, a polygon no depth
        unread = (
            {"--input": args.input} if args.shape == "snowflake"
            else {"--p": args.p, "--subdivision-constant": args.subdivision_constant}
        )
        ignored = [opt for opt, value in unread.items() if value is not None]
        if ignored:
            parser.error(f"fill {args.shape} does not take {' or '.join(ignored)}")
    try:
        return args.func(args)
    except (ValueError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
