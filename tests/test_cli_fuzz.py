"""Fuzzed command lines and input files for all twelve subcommands.

Each run must end in exit 0, 1 or 2, and a polygon file in exit 0 or 2;
on exit 1 or 2 stderr holds exactly one line besides argparse's usage
lines, and never a traceback.  Sizes are bounded so that nothing large is
built in-process: the refusals of large inputs have their own tests in
test_cli.  --L is drawn up to 10^30 too, so that a subcommand whose time
or memory grows with L shows.  Input files are mutated polygons and dual trees (some with an integer or a repeated
node id), and now and then JSON nested too deeply for json.load.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snowflake_groups.cli import main

FUZZ = settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _mostly(n):
    """True n - 1 times in n.  (Hypothesis leans to the first item of a
    sampled list and to small integers, so st.integers(0, n - 1) would not do.)"""
    return st.sampled_from([True] * (n - 1) + [False])


def _rarely(strategy, other):
    """strategy seven times in eight, else other."""
    return _mostly(8).flatmap(lambda common: strategy if common else other)


junk = st.sampled_from(["", "x", "1.5", "-", "1e3", "0x10", "--L", "é"])


def _int(lo, hi):
    return _rarely(st.integers(lo, hi).map(str), junk)


tokens = st.sampled_from(["a", "a^-1", "s", "s^-1", "t", "t^-1", "x", "y^2", "a^3", "1", "b", "a^x"])
word = st.lists(tokens, max_size=8).map(" ".join)
L = _rarely(st.sampled_from(["6", "6", "8", "10", "12", "5", "4", "-6", "100000000", str(10**30)]), junk)
h = st.tuples(_int(-999, 999), _int(-99, 99))
flag = st.just(())

# subcommand -> {option: strategy of its value tokens (() for a flag)}
OPTIONS = {
    "dist": {"--L": L, "--a-power": _int(-(10**30), 10**30), "--h": h},
    "expr": {"--L": L, "--m": _int(-(10**30), 10**30)},
    "word": {"--L": L, "--a-power": _int(-(10**9), 10**9), "--h": h},
    "table": {"--L": L, "--m-max": _int(-5, 300)},
    "mn": {"--L": L, "--n-max": _int(-3, 40)},
    "snowflake": {"--L": L, "--n": _int(-2, 6), "--flavor": st.sampled_from("stu"), "--loop": flag},
    "verify-loop": {"--L": L, "--n": _int(-2, 2), "--word": word},
    "ball": {"--L": L, "--radius": _int(-2, 3)},
    "enfilade": {
        "--L": L, "--word": word, "--R": st.sampled_from(["4", "7/2", "2", "1/0", "-3", "abc", "5e3"]),
    },
    "fill": {
        "--L": L, "--p": _int(-1, 3), "--subdivision-constant": _int(-2, 8), "--input": st.just("FILE"),
    },
    "central": {"--L": L, "--p": _int(-1, 5), "--dot": flag, "--input": st.just("FILE")},
    "area-budget": {
        "--central": _int(-5, 50), "--enfilade": _int(-5, 50),
        "--branching": _int(-5, 50), "--shells": _int(-5, 60),
    },
}
# options of which a valid command line has exactly one
ONE_OF = {
    "dist": ("--a-power", "--h"),
    "word": ("--a-power", "--h"),
    "verify-loop": ("--n", "--word"),
    "central": ("--p", "--input"),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    fmt = draw(_rarely(st.sampled_from([[], ["--format", "json"]]), st.just(["--format", "xml"])))
    argv = [*fmt, command]
    options = dict(OPTIONS[command])
    if command in ONE_OF and draw(_mostly(10)):
        del options[draw(st.sampled_from(ONE_OF[command]))]
    if command == "fill":
        shape = draw(st.sampled_from(["bigon", "triangle", "diamond", "snowflake", "square"]))
        argv.append(shape)
        if draw(_mostly(10)):  # the snowflake takes --p and --subdivision-constant, a polygon --input
            for option in ("--input",) if shape == "snowflake" else ("--p", "--subdivision-constant"):
                del options[option]
    for option, values in options.items():
        if draw(_mostly(10)):  # each option is left out one time in ten
            value = draw(values)
            argv += [option, *([value] if isinstance(value, str) else value)]
    if not draw(_mostly(10)):
        argv.append(draw(junk))
    return argv


any_json = st.recursive(
    st.none() | st.booleans() | st.floats(width=32) | st.integers(-20, 20) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)

# polygons that fill at L = 6, as in test_cli, one that is refused, and a small dual tree
POLYGONS = [
    {"kind": "bigon", "corners": [[0, 0], [12, 1]], "flavors": ["a", "a"],
     "exponents": [12, -12], "D": 3, "subdivision": [6, 6]},
    {"kind": "triangle", "corners": [[1, 0], [0, 2], [12, 1]], "flavors": ["x", "y", "a"],
     "exponents": [2, 2, -12], "D": 4, "subdivision": [-6, -6]},
    # an a-side whose segments mix signs, refused (its points must run one way)
    {"kind": "triangle", "corners": [[0, 0], [0, 2], [12, 0]], "flavors": ["x", "y", "a"],
     "exponents": [2, 2, -12], "D": 0, "subdivision": [16, -28]},
    {"kind": "diamond", "corners": [[0, 0], [1, 2], [12, 0], [12, -2]],
     "flavors": ["x", "y", "x", "y"], "exponents": [2, 2, -2, -2], "D": 1,
     "subdivision": [1, 1], "subdivision2": [1, 1], "corner_paths": ["1", "a^-1", "1", "1"]},
]
TREE = {
    "nodes": [{"id": "a", "arcs": [10]}, {"id": "b", "arcs": [2], "kind": "t"}, {"id": "c", "arcs": [10]}],
    "edges": [["a", "b", 0], ["b", "c", 3]],
}


def _int_slots(value):
    """(container, index) for each integer inside a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    out = []
    for k, v in items:
        out += [(value, k)] if type(v) is int else _int_slots(v)
    return out


@st.composite
def mutated(draw, documents):
    """A copy of one of documents with up to three integers nudged or
    top-level fields dropped or replaced by any JSON value; now and then
    any JSON value instead."""
    if not draw(_mostly(10)):
        return draw(any_json)
    doc = json.loads(json.dumps(draw(st.sampled_from(documents))))
    for _ in range(draw(st.integers(0, 3))):
        slots = _int_slots(doc)
        if slots and draw(st.booleans()):
            container, k = draw(st.sampled_from(slots))
            container[k] += draw(st.integers(-3, 3)) * draw(st.sampled_from([1, 6]))
        elif doc:
            key = draw(st.sampled_from(sorted(doc)))
            if draw(st.booleans()):
                del doc[key]
            else:
                doc[key] = draw(any_json)
    return doc


@st.composite
def node_ids_mutated(draw, documents):
    """A mutated dual tree in which, now and then, one node id is renamed,
    in the edges too, to an integer or to another node's id."""
    doc = draw(mutated(documents))
    nodes = doc.get("nodes") if isinstance(doc, dict) else None
    if isinstance(nodes, list) and nodes and all(isinstance(n, dict) for n in nodes) and not draw(_mostly(3)):
        node = draw(st.sampled_from(nodes))
        old = node.get("id")
        new = node["id"] = draw(st.integers(-1, 1) | st.sampled_from([n.get("id") for n in nodes]))
        for edge in doc.get("edges") if isinstance(doc.get("edges"), list) else ():
            if isinstance(edge, list):
                edge[:2] = [new if end == old else end for end in edge[:2]]
    return doc


# JSON nested deeper than json.load recurses, and once nested within it
DEEP = st.sampled_from(["[" * 200_000, '{"nodes": ' + "[" * 200_000, "[" * 500 + "]" * 500])


def files(documents):
    """The text of an input file: a document, or now and then a deeply nested one."""
    return _rarely(documents.map(json.dumps), DEEP)


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    if code:
        lines = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
        assert len(lines) == 1, (argv, err)
    return code, err


@settings(FUZZ, max_examples=400)
@given(argv=argvs(), polygon=files(mutated(POLYGONS)), tree=files(node_ids_mutated([TREE])))
def test_fuzzed_argv(tmp_path, capsys, argv, polygon, tree):
    path = tmp_path / "input.json"
    path.write_text(tree if "central" in argv else polygon)
    _run(capsys, [str(path) if a == "FILE" else a for a in argv])


@FUZZ
@given(
    polygon=mutated(POLYGONS),
    own_kind=_mostly(5),
    shape=st.sampled_from(["bigon", "triangle", "diamond"]),
    deep=_rarely(st.none(), DEEP),
)
def test_fuzzed_polygon_files(tmp_path, capsys, polygon, own_kind, shape, deep):
    # filled as the kind it names, mostly
    if own_kind and isinstance(polygon, dict) and polygon.get("kind") in ("bigon", "triangle", "diamond"):
        shape = polygon["kind"]
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps(polygon) if deep is None else deep)
    # a polygon file is input: it fills or is refused, never a failed check
    code, err = _run(capsys, ["fill", shape, "--L", "6", "--input", str(path)])
    assert code in (0, 2), (polygon, err)


@FUZZ
@given(tree=files(node_ids_mutated([TREE])), dot=st.booleans())
def test_fuzzed_dual_tree_files(tmp_path, capsys, tree, dot):
    path = tmp_path / "tree.json"
    path.write_text(tree)
    _run(capsys, ["central", "--L", "6", "--input", str(path)] + ["--dot"] * dot)
