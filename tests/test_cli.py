"""The command-line surface: outputs, determinism, exit codes."""

import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from snowflake_groups import GroupParams, InvariantViolation, distortion_table, filling, hnn_group
from snowflake_groups.cli import build_parser, main
from snowflake_groups.distortion import write_distortion_csv

# the package source, for CLI subprocesses started with -B (they write no
# bytecode into it) from any working directory
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist(capsys):
    code, out, _ = run_cli(capsys, "dist", "--L", "6", "--a-power", "36")
    assert code == 0 and out.strip() == "16"
    code, out, _ = run_cli(capsys, "dist", "--L", "10", "--h", "12", "0")
    assert code == 0 and out.strip() == "8"


def test_dist_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "dist", "--L", "6", "--a-power", "36")
    assert code == 0
    assert json.loads(out) == {"L": 6, "a_power": 36, "dist": 16}


def test_expr_and_word(capsys):
    code, out, _ = run_cli(capsys, "expr", "--L", "10", "--m", "36")
    assert code == 0 and out.strip() == "digits [-4, 4] length 16"
    code, out, _ = run_cli(capsys, "word", "--L", "6", "--a-power", "6")
    assert code == 0 and out.strip() == "s a s^-1 t a t^-1"
    code, out, _ = run_cli(capsys, "word", "--L", "6", "--h", "0", "1")
    assert code == 0 and out.strip() == "s a s^-1"


def test_snowflake_and_verify(capsys):
    code, out, _ = run_cli(capsys, "snowflake", "--L", "6", "--n", "1", "--flavor", "s")
    assert code == 0 and out.strip() == "s a s^-1 t a t^-1"
    code, out, _ = run_cli(capsys, "verify-loop", "--L", "6", "--n", "1")
    assert code == 0 and out.strip() == "geodesic: true"
    loop = (
        "s^2 a s^-1 t a t^-1 s^-1 t s a s^-1 t a t^-2 "
        "s^2 a^-1 s^-1 t a^-1 t^-1 s^-1 t s a^-1 s^-1 t a^-1 t^-2"
    )
    code, out, _ = run_cli(capsys, "snowflake", "--L", "6", "--n", "2", "--loop")
    assert code == 0 and out == loop + "\n"
    code, out, _ = run_cli(capsys, "--format", "json", "snowflake", "--L", "6", "--n", "2", "--loop")
    assert code == 0 and json.loads(out) == {"L": 6, "length": 32, "n": 2, "word": loop}


def test_verify_loop_failure_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "verify-loop", "--L", "6", "--word", "a^12 a^-12"
    )
    assert code == 1
    assert out == "geodesic: false\n"
    # the first failing antipodal pair: |a^12| = 8 < 12
    assert err == "counterexample: vertices 0 and 12 are at distance 8 < 12\n"


def test_verify_loop_length_two(capsys):
    code, out, err = run_cli(capsys, "verify-loop", "--L", "6", "--word", "s s^-1")
    assert code == 1 and out == "geodesic: false\n"
    assert err == "counterexample: the loop of length 2 retraces its only edge\n"
    code, out, err = run_cli(capsys, "verify-loop", "--L", "6", "--word", "1")
    assert (code, out, err) == (0, "geodesic: true\n", "")


@pytest.mark.parametrize(
    "word, err",
    [
        ("a^3000000", "error: path is not a closed loop\n"),
        ("x^300000 a", "error: loop checks require an {a, s, t} word (x/y edges are weighted)\n"),
    ],
    ids=["open", "weighted"],
)
def test_verify_loop_refuses_bad_loop_before_its_table(capsys, monkeypatch, word, err):
    # the line table for cap |loop|/2 - 2 would pass the state budget
    from snowflake_groups import paths

    def refuse(*args):
        raise AssertionError("the line table was built for a loop that is refused")

    monkeypatch.setattr(paths, "_line_table", refuse)
    assert run_cli(capsys, "verify-loop", "--L", "6", "--word", word) == (2, "", err)


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--L", "10", "--m-max", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,dist,ratio"
    assert lines[1].startswith("1,1,1")
    assert lines[10].startswith("10,6,")


def test_table_streams_the_library_rows(capsys):
    code, out, err = run_cli(capsys, "table", "--L", "10", "--m-max", "3000")
    buf = io.StringIO()
    write_distortion_csv(distortion_table(GroupParams(10), 3000), buf)
    assert (code, out, err) == (0, buf.getvalue(), "")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("area-budget", "--central", "1", "--enfilade", "1", "--branching", "1", "--shells", "20000"),
         "--shells 20000"),
        (("--format", "json", "area-budget", "--central", "1", "--enfilade", "1", "--branching", "1",
          "--shells", "20000"), "--shells 20000"),
        (("mn", "--L", "1000000000", "--n-max", "600"), "--n-max 600"),
        (("--format", "json", "mn", "--L", "1000000000", "--n-max", "600"), "--n-max 600"),
    ],
    ids=["area-budget", "area-budget-json", "mn", "mn-json"],
)
def test_unprintable_integer_refused(capsys, argv, option):
    limit = sys.get_int_max_str_digits()
    err = f"error: {option} gives an integer of more than {limit} digits, too long to print\n"
    assert run_cli(capsys, *argv) == (2, "", err)


def test_area_budget_at_digit_limit(capsys):
    # the area 12 * 2^n - 7 of --central 1 --enfilade 1 --branching 1
    # --shells n: its last n that prints still prints
    limit = sys.get_int_max_str_digits()
    n = 0
    while 12 * 2 ** (n + 1) - 7 < 10**limit:
        n += 1
    argv = ["area-budget", "--central", "1", "--enfilade", "1", "--branching", "1", "--shells"]
    code, out, _ = run_cli(capsys, *argv, str(n))
    assert code == 0 and len(out.strip()) == limit
    code, out, _ = run_cli(capsys, *argv, str(n + 1))
    assert code == 2 and out == ""


def test_mn(capsys):
    code, out, _ = run_cli(capsys, "mn", "--L", "10", "--n-max", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[:4] == ["0", "4", "4", "4"]
    assert lines[1].split()[:4] == ["1", "36", "16", "16"]


def test_ball_jsonl(capsys):
    code, out, _ = run_cli(capsys, "ball", "--L", "6", "--radius", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert json.loads(lines[0]) == {"normal_form": "1", "distance": 0}


def test_enfilade(capsys):
    code, out, _ = run_cli(capsys, "enfilade", "--L", "6", "--word", "s a^5 s^-1", "--R", "4")
    assert code == 0
    data = json.loads(out)
    assert data["depth"] == 0 and data["end"] == "a^5"
    assert data["exponents"] == [5]


def test_fill_snowflake(capsys):
    # every cell word is Britton-reduced, as for the polygons
    code, out, _ = run_cli(capsys, "fill", "snowflake", "--L", "6", "--p", "2")
    assert code == 0
    data = json.loads(out)
    assert data["area"] == 40
    assert data["mesh"] <= 16
    assert data["trivial"] is True


@pytest.mark.parametrize(
    "argv, code, err",
    [
        # no branch depth meets the capping inequality: a cap of length 18
        (("--L", "12", "--p", "2"), 1, "invariant violated: a cell of length 18 is longer than half the loop, 16\n"),
        (("--L", "6", "--p", "2", "--subdivision-constant", "2"), 1,
         "invariant violated: a cell of length 20 is longer than half the loop, 16\n"),
        (("--L", "6", "--p", "2", "--subdivision-constant", "0"), 2,
         "error: subdivision constant must be >= 1, got 0\n"),
        (("--L", "6", "--p", "2", "--subdivision-constant", "-6"), 2,
         "error: subdivision constant must be >= 1, got -6\n"),
    ],
    ids=["L12-p2", "lam2", "lam0", "lam-6"],
)
def test_fill_snowflake_guarantee(capsys, argv, code, err):
    assert run_cli(capsys, "fill", "snowflake", *argv) == (code, "", err)


@pytest.mark.parametrize(
    "argv, err",
    [
        (("enfilade", "--L", "6", "--word", "s a^5 s^-1", "--R", "1/0"), "error: R = 1/0 has a zero denominator\n"),
        # Fraction would build 10^99999999
        (("enfilade", "--L", "6", "--word", "s a^5 s^-1", "--R", "1e99999999"),
         "error: the exponent of R = 1e99999999 is over 4300\n"),
        # the ratio |a^(m_n)| / m_n^(1/alpha) is a float
        (("mn", "--L", "6", "--n-max", "1023"),
         "error: |a^(m_n)| at n_max = 1023 is beyond the float range of its ratio\n"),
        (("mn", "--L", "6", "--n-max", "-1"), "error: n_max must be >= 0\n"),
        (("area-budget", "--central", "1", "--enfilade", "1", "--branching", "1", "--shells", "10000000000"),
         "error: shell count must be at most 10000000, got 10000000000\n"),
        (("table", "--L", "6", "--m-max", "100000000000"), "error: m_max must be at most 10000000, got 100000000000\n"),
    ],
    ids=["R-zero-denominator", "R-huge-exponent", "mn-float-range", "mn-negative", "shells", "m-max"],
)
def test_short_argument_refused(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err)


def test_short_arguments_at_their_bounds(capsys):
    code, out, _ = run_cli(capsys, "mn", "--L", "6", "--n-max", "500")
    assert code == 0 and len(out.splitlines()) == 501
    code, out, _ = run_cli(capsys, "enfilade", "--L", "6", "--word", "s a^5 s^-1", "--R", "7/2")
    assert code == 0 and json.loads(out)["end"] == "a^5"


def _readme_commands():
    """The README's `snowflake-groups` example lines that read no input file,
    as (argv, expected stdout or None), with `> file` dropped; a comment is
    the literal output of its line."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command.partition(">")[0])
            if argv[:1] == ["snowflake-groups"] and "--input" not in argv:
                yield argv[1:], comment.strip() or None


def test_readme_examples(capsys):
    commands = list(_readme_commands())
    assert len(commands) == 13
    for argv, expected in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if expected is not None:
            assert out == expected + "\n", argv


def test_fill_polygon_file(tmp_path, capsys):
    payload = {
        "kind": "bigon",
        "corners": [[0, 0], [12, 1]],
        "flavors": ["a", "a"],
        "exponents": [12, -12],
        "D": 3,
        "subdivision": [6, 6],
    }
    path = tmp_path / "bigon.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "fill", "bigon", "--L", "6", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["trivial"] is True
    assert data["area"] <= 2
    assert data["subdivisions"] == [[-6, -6]]


def fill_file(tmp_path, capsys, shape, payload):
    path = tmp_path / f"{shape}.json"
    path.write_text(json.dumps(payload))
    return run_cli(capsys, "fill", shape, "--L", "6", "--input", str(path))


def test_fill_triangle_file(tmp_path, capsys):
    # the true triangle x^2 y^2 a^-12 with two corners moved by a and x
    payload = {
        "kind": "triangle",
        "corners": [[1, 0], [0, 2], [12, 1]],
        "flavors": ["x", "y", "a"],
        "exponents": [2, 2, -12],
        "D": 4,
        "subdivision": [-6, -6],
    }
    expected = {
        "area": 6,
        "cells": [
            {"boundary": "s a^-1 s^-1 t a^-1 t^-1 a^-5 s a s^-1 t a t^-1 a^5"},
            {"boundary": "s a^-1 s^-1 t a^-1 t^-1 a^6"},
            {"boundary": "s a^-1 s^-1 t a^-1 t^-1 s a s^-1 t a t^-1"},
            {"boundary": "t a t^-1 a^-1 t a t^-1 t a^-2 t^-1 a"},
            {"boundary": "s a s^-1 a^-6 t a t^-1"},
            {"boundary": "s a^-1 s^-1 a s a s^-1 a^-1"},
        ],
        "mesh": 22,
        "subdivisions": [[0, 2], [0, 2]],
        "trivial": True,
    }
    code, out, err = fill_file(tmp_path, capsys, "triangle", payload)
    assert code == 0 and err == ""
    assert out == json.dumps(expected, sort_keys=True) + "\n"


def test_fill_diamond_file(tmp_path, capsys):
    # the true diamond x^2 y^2 x^-2 y^-2 with one corner moved by a
    payload = {
        "kind": "diamond",
        "corners": [[0, 0], [1, 2], [12, 0], [12, -2]],
        "flavors": ["x", "y", "x", "y"],
        "exponents": [2, 2, -2, -2],
        "D": 1,
        "subdivision": [1, 1],
        "subdivision2": [1, 1],
    }
    unit = "s a s^-1 t a t^-1 s a^-1 s^-1 t a^-1 t^-1"
    expected = {
        "area": 6,
        "cells": [
            {"boundary": "t a t^-1 a^-1 t a^-1 t^-1 a"},
            {"boundary": "t a t^-1 a^-1 t a^-1 t^-1 a"},
            {"boundary": unit},
            {"boundary": unit},
            {"boundary": unit},
            {"boundary": unit},
        ],
        "mesh": 12,
        "subdivisions": [[-1, -1], [-1, -1]],
        "trivial": True,
    }
    code, out, err = fill_file(tmp_path, capsys, "diamond", payload)
    assert code == 0 and err == ""
    assert out == json.dumps(expected, sort_keys=True) + "\n"


def test_invariant_violation_exit_1(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise InvariantViolation("snap moved a corner by 9 > 2D + L = 8")

    monkeypatch.setattr(filling, "fill_triangle", broken)
    payload = {
        "kind": "triangle",
        "corners": [[0, 0], [0, 2], [12, 0]],
        "flavors": ["x", "y", "a"],
        "exponents": [2, 2, -12],
        "D": 0,
        "subdivision": [-12],
    }
    code, out, err = fill_file(tmp_path, capsys, "triangle", payload)
    assert code == 1 and out == ""
    assert err == "invariant violated: snap moved a corner by 9 > 2D + L = 8\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("ball", "--L", "6", "--radius", "5"),  # past MAX_BALL_STATES as set here
        ("verify-loop", "--L", "6", "--n", "18"),  # past hnn_group.MAX_POINTS
    ],
    ids=["ball", "verify-loop-depth-18"],
)
def test_budget_exceeded_exit_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(hnn_group, "MAX_BALL_STATES", 100)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: state budget exceeded: ") and err.count("\n") == 1


def _run_under_memory_limit(argv, megabytes, timeout=120):
    """The CLI in a subprocess whose address space is capped by RLIMIT_AS."""
    resource = pytest.importorskip("resource")
    import subprocess

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

    return subprocess.run(
        [sys.executable, "-B", "-m", "snowflake_groups.cli", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        preexec_fn=limit,
        timeout=timeout,
    )


def test_out_of_memory_exit_2():
    # the radius-9 ball of G_6 does not fit in 300 MB
    proc = _run_under_memory_limit(["ball", "--L", "6", "--radius", "9"], 300)
    assert proc.returncode == 2
    assert proc.stderr == "error: out of memory\n"


def test_verify_loop_depth_18_bounded_memory():
    # the fixed limit on the distance program trips well within 400 MB
    proc = _run_under_memory_limit(["verify-loop", "--L", "6", "--n", "18"], 400)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: state budget exceeded: ") and proc.stderr.count("\n") == 1


def test_fill_diagram_letters_bounded(tmp_path):
    # 2000 segments a^(6^15) would spell about 328 k letters per cell: the
    # diagram's letter limit stops the strip after about 30 cells
    e = 6**15
    path = tmp_path / "bigon.json"
    path.write_text(json.dumps({**_BIGON, "corners": [[0, 0], [2000 * e, 0]], "D": 0,
                                "exponents": [2000 * e, -2000 * e], "subdivision": [e] * 2000}))
    proc = _run_under_memory_limit(["fill", "bigon", "--L", "6", "--input", str(path)], 400)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: the diagram's cells would hold more than 10000000 letters\n"


def test_fill_freely_trivial_cells_letters_bounded(tmp_path):
    # the corner paths s^(10^6) s^-(10^6) make every strip cell freely
    # trivial, so no cell is stored; its 102 distinct words would spell
    # 408 M letters, and the letters given to the diagram are counted
    path = tmp_path / "bigon.json"
    path.write_text(json.dumps({
        **_BIGON, "corners": [[0, 0], [10104, 0]], "exponents": [10104, -10104], "D": 2 * 10**6,
        "corner_paths": ["s^1000000 s^-1000000"] * 2, "subdivision": [1 + i % 102 for i in range(200)],
    }))
    proc = _run_under_memory_limit(["fill", "bigon", "--L", "200", "--input", str(path)], 400, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: the diagram's cells would hold more than 10000000 letters\n"


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (("verify-loop", "--L", str(10**30), "--n", "1"), 0, "geodesic: true\n"),
        (("table", "--L", str(10**30), "--m-max", "2"), 0, "m,dist,ratio\n1,1,1\n2,2,1.9861377243\n"),
        (("ball", "--L", str(10**30), "--radius", "2"), 0, None),
        (("word", "--L", "100000000", "--a-power", "20000000"), 2, ""),
    ],
)
def test_huge_L_costs_nothing_in_L(argv, code, out):
    # the a-ball of the distance program, the last run of the table and the
    # normal forms of the ball are built from what they return, not from L;
    # the one-digit word a^(2 * 10^7) is measured before it is spelled
    proc = _run_under_memory_limit(list(argv), 400, timeout=5)
    assert proc.returncode == code, proc.stderr
    if argv[0] == "ball":
        assert len(proc.stdout.splitlines()) == 37  # 1 + 6 + 30
        assert f'"normal_form": "t^-1 a^-{10**30} x"' in proc.stdout  # a^-1 t^-1 = t^-1 y^-1
    else:
        assert proc.stdout == out
    assert proc.stderr == ("" if code == 0 else "error: geodesic word longer than 10000000 letters\n")


def test_fill_deeply_nested_corner_path(tmp_path):
    # free reduction is one pass, so the corner path s^n s^-n, nested n
    # deep, is cancelled in time linear in n
    path = tmp_path / "bigon.json"
    path.write_text(json.dumps({**_BIGON, "corners": [[0, 0], [6, 0]], "exponents": [6, -6], "D": 10**7,
                                "subdivision": [6], "corner_paths": ["s^200000 s^-200000", "1"]}))
    proc = _run_under_memory_limit(["fill", "bigon", "--L", "6", "--input", str(path)], 400, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["trivial"] is True


def test_fill_snowflake_constant_refused_before_any_cell():
    # Lam = 6^11 divides 6^11 but is over half the loop, 20476: refused
    # before its Lam^2 central cells are built
    proc = _run_under_memory_limit(
        ["fill", "snowflake", "--L", "6", "--p", "12", "--subdivision-constant", str(6**11)], 400
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: subdivision constant must be at most half the loop length, 20476, got 362797056\n"
    )


_BIGON = {"kind": "bigon", "corners": [[0, 0], [12, 1]], "flavors": ["a", "a"],
          "exponents": [12, -12], "D": 3, "subdivision": [6, 6]}


@pytest.mark.parametrize(
    "change, err",
    [
        # the gap from a^12 to the corner a^(10^21) is measured, not spelled
        ({"corners": [[0, 0], [10**21, 0]]}, "error: corner path 0 has length 734426360 > D = 3\n"),
        ({"subdivision": [10**21, 12 - 10**21]}, "error: geodesic word longer than 10000000 letters\n"),
        (
            {"corners": [[0, 0], [10**21 + 12, 0]], "exponents": [10**21 + 12, -(10**21) - 12],
             "D": 0, "subdivision": [10**21 + 12]},
            "error: geodesic word longer than 10000000 letters\n",
        ),
    ],
)
def test_fill_oversize_geodesic_refused_before_spelling(tmp_path, change, err):
    # each of these would spell a word of more than 10^8 letters
    path = tmp_path / "bigon.json"
    path.write_text(json.dumps({**_BIGON, **change}))
    proc = _run_under_memory_limit(["fill", "bigon", "--L", "6", "--input", str(path)], 400)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


@pytest.mark.parametrize(
    "argv, payload, err",
    [
        # int() would read these as 6, 12 and 1
        (("fill", "bigon"), {**_BIGON, "subdivision": [6, 6.9]},
         "polygon JSON: 'subdivision' must be a list of integers"),
        (("fill", "bigon"), {**_BIGON, "exponents": ["12", -12]},
         "polygon JSON: malformed field: expected an integer, got str"),
        (("fill", "bigon"), {**_BIGON, "D": True},
         "polygon JSON: malformed field: expected an integer, got bool"),
        (("central",), {"nodes": [{"id": "a", "arcs": [1.5]}], "edges": []},
         "dual tree JSON: malformed field: expected an integer, got float"),
        (("central",), {"nodes": [{"id": "a"}, {"id": "b"}], "edges": [["a", "b", False]]},
         "dual tree JSON: malformed field: expected an integer, got bool"),
    ],
)
def test_input_files_take_json_integers_only(tmp_path, capsys, argv, payload, err):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert run_cli(capsys, *argv, "--L", "6", "--input", str(path)) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "change",
    [
        # "aa" iterates as the flavors a and a
        {"flavors": "aa"},
        # "11" iterates as two empty corner paths, which close a bigon whose corners meet
        {"corners": [[0, 0], [12, 0]], "corner_paths": "11"},
    ],
    ids=["flavors", "corner_paths"],
)
def test_polygon_text_fields_take_lists_only(tmp_path, capsys, change):
    (field,) = set(change) - {"corners"}
    path = tmp_path / "bigon.json"
    path.write_text(json.dumps({**_BIGON, **change}))
    err = f"error: polygon JSON: malformed field: {field} must be a list of strings\n"
    assert run_cli(capsys, "fill", "bigon", "--L", "6", "--input", str(path)) == (2, "", err)


@pytest.mark.parametrize(
    "argv, payload, err",
    [
        (("fill", "bigon"), {**_BIGON, "corners": [[0], [12, 1]]},
         "polygon JSON: malformed field: corners[0] must be a list of 2 entries"),
        (("fill", "bigon"), {**_BIGON, "corners": [[0, 0], [12, 1, 0]]},
         "polygon JSON: malformed field: corners[1] must be a list of 2 entries"),
        (("fill", "bigon"), {**_BIGON, "corners": 5}, "polygon JSON: malformed field: corners must be a list"),
        (("central",), {"nodes": [{"id": "a"}, {"id": "b"}], "edges": [["a", "b"]]},
         "dual tree JSON: malformed field: edges[0] must be a list of 3 entries"),
    ],
    ids=["corner-of-1", "corner-of-3", "corners-not-a-list", "edge-of-2"],
)
def test_input_rows_of_the_wrong_size(tmp_path, capsys, argv, payload, err):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert run_cli(capsys, *argv, "--L", "6", "--input", str(path)) == (2, "", f"error: {err}\n")


_TRIANGLE = {"kind": "triangle", "corners": [[0, 0], [0, 2], [12, 0]], "flavors": ["x", "y", "a"],
             "exponents": [2, 2, -12], "D": 0, "subdivision": [-6, -6]}
_DIAMOND = {"kind": "diamond", "corners": [[0, 0], [1, 2], [12, 0], [12, -2]],
            "flavors": ["x", "y", "x", "y"], "exponents": [2, 2, -2, -2], "D": 1,
            "subdivision": [1, 1], "subdivision2": [1, 1]}


@pytest.mark.parametrize(
    "shape, payload, err",
    [
        ("bigon", {**_BIGON, "kind": "pentagon"}, "unknown polygon kind 'pentagon'"),
        ("bigon", {**_BIGON, "corners": [[0, 0], [12, 1], [0, 0]]}, "bigon needs 2 corners/flavors/exponents"),
        ("bigon", {**_BIGON, "flavors": ["a"]}, "bigon needs 2 corners/flavors/exponents"),
        ("triangle", {**_TRIANGLE, "exponents": [2, 2]}, "triangle needs 3 corners/flavors/exponents"),
        ("triangle", {**_TRIANGLE, "flavors": ["y", "x", "a"]},
         "triangle sides must have flavors ('x', 'y', 'a')"),
        ("diamond", {**_DIAMOND, "flavors": ["x", "y", "y", "x"]},
         "diamond sides must have flavors ('x', 'y', 'x', 'y')"),
        ("bigon", {**_BIGON, "flavors": ["a", "x"]}, "bigon sides must share one flavor"),
        ("bigon", {**_BIGON, "corner_paths": ["1"]}, "need one corner path per side"),
        # a given corner path must end at the next corner: not outside H,
        # not at another point of H
        ("bigon", {**_BIGON, "corner_paths": ["s", "1"]}, "corner path 0 does not join side 0 to corner 1"),
        ("bigon", {**_BIGON, "corner_paths": ["x^-1", "x"]}, "corner path 0 does not join side 0 to corner 1"),
        # a corner path longer than D, given or measured: the second given
        # one here; the first geodesic once D drops below its length 3
        ("bigon", {**_BIGON, "corner_paths": ["s a s^-1", "s a^-1 s^-1 a^2 a^-2"]},
         "corner path 1 has length 7 > D = 3"),
        ("bigon", {**_BIGON, "D": 2}, "corner path 0 has length 3 > D = 2"),
        ("bigon", {**_BIGON, "corners": [[0, 0], [0, 0]], "exponents": [0, 0], "subdivision": []},
         "subdivision must have at least one segment"),
        ("bigon", {**_BIGON, "flavors": ["s", "s"]}, "not an H generator: 's'"),
        # the a-side's points are rounded to multiples of L one by one, so its
        # segments must share one sign; the sum is checked first
        ("triangle", {**_TRIANGLE, "subdivision": [16, -28]}, "a-side subdivision has segments of both signs"),
        ("triangle", {**_TRIANGLE, "subdivision": [-15, 1, 2]}, "a-side subdivision has segments of both signs"),
        ("triangle", {**_TRIANGLE, "subdivision": [16, -27]}, "a-side subdivision sums to -11, expected -12"),
    ],
    ids=["kind", "corners", "flavors", "exponents", "triangle-flavors", "diamond-flavors",
         "bigon-flavors", "corner-paths", "corner-path-outside-h", "corner-path-wrong-point",
         "long-corner-path", "long-geodesic-corner",
         "empty-subdivision", "stable-flavor",
         "mixed-a-side", "mixed-a-side-that-filled", "mixed-a-side-sum"],
)
def test_polygon_refusals(tmp_path, capsys, shape, payload, err):
    assert fill_file(tmp_path, capsys, shape, payload) == (2, "", f"error: {err}\n")


def _wrong_speller(monkeypatch, piece):
    """Make filling spell `piece` with one letter a too many."""
    spell = filling._geodesic_chars

    def wrong(params, flavor, k):
        return spell(params, flavor, k) + ("a" if (flavor, k) == piece else "")

    monkeypatch.setattr(filling, "_geodesic_chars", wrong)


def test_fill_exit_1_when_a_spelling_is_wrong(tmp_path, capsys, monkeypatch):
    # nothing is trusted from the speller: one wrong piece makes cells that
    # are not trivial, and fill says so with exit 1 and names the first one
    _wrong_speller(monkeypatch, ("a", 6))
    code, out, err = fill_file(tmp_path, capsys, "bigon", _BIGON)
    assert (code, err) == (1, "counterexample: cell 0 reduces to a, not 1\n")
    data = json.loads(out)
    assert data["trivial"] is False and data["area"] == 2


def test_fill_snowflake_exit_1_when_a_spelling_is_wrong(capsys, monkeypatch):
    # the snowflake's cells are checked as the polygons' are: the caps read
    # a^1 backward lam = 6 times, so with a^1 spelled wrong they reduce to a^-6
    _wrong_speller(monkeypatch, ("a", 1))
    code, out, err = run_cli(capsys, "fill", "snowflake", "--L", "6", "--p", "3")
    assert (code, err) == (1, "counterexample: cell 120 reduces to a^-6, not 1\n")
    data = json.loads(out)
    assert data["trivial"] is False and data["area"] == 128


def test_central_from_file(tmp_path, capsys):
    tree = {
        "nodes": [
            {"id": "a", "arcs": [10]},
            {"id": "b", "arcs": [2]},
            {"id": "c", "arcs": [10]},
        ],
        "edges": [["a", "b", 0], ["b", "c", 0]],
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    code, out, _ = run_cli(capsys, "central", "--L", "6", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "vertex" and data["node"] == "b"
    assert data["f"] == [-1, 1]


def test_central_tie_from_file(tmp_path, capsys):
    # a zero-length corridor glues a and b into one point: the first is returned
    tree = {"nodes": [{"id": "a", "arcs": [5]}, {"id": "b", "arcs": [5]}], "edges": [["a", "b", 0]]}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    code, out, err = run_cli(capsys, "central", "--L", "6", "--input", str(path))
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["kind"] == "vertex" and data["node"] == "a"
    assert data["f"] == [0, 1]


def test_central_dot_escapes_ids(tmp_path, capsys):
    # a quote or backslash in an id stays inside its DOT string
    ids = ['a"b', "c\\d"]
    tree = {"nodes": [{"id": v, "arcs": [3]} for v in ids], "edges": [[*ids, 1]]}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    code, out, err = run_cli(capsys, "central", "--L", "6", "--input", str(path), "--dot")
    assert (code, err) == (0, "")
    assert out.splitlines()[:5] == [
        "graph dual_tree {",
        r'  "a\"b" [label="a\"b|[3]"];',
        r'  "c\\d" [label="c\\d|[3]"];',
        r'  "a\"b" -- "c\\d" [label="1"];',
        "}",
    ]


@pytest.mark.parametrize("argv", [("fill", "bigon"), ("central",)])
def test_deeply_nested_input_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "input.json"
    path.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, *argv, "--L", "6", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: JSON nested too deeply\n")


@pytest.mark.parametrize(
    "nodes, err",
    [
        # the second "a" would drop the arcs of the first
        ([{"id": "a", "arcs": [10]}, {"id": "b", "arcs": [2]}, {"id": "a", "arcs": [10]}],
         "dual tree JSON: node id 'a' is repeated"),
        # an integer next to strings would not sort for --dot
        ([{"id": "a", "arcs": [10]}, {"id": 1, "arcs": [2]}, {"id": "c", "arcs": [10]}],
         "dual tree JSON: node id 1 is not a string"),
        ([{"id": ["a"]}], "dual tree JSON: node id ['a'] is not a string"),
    ],
    ids=["repeated", "integer", "list"],
)
def test_dual_tree_node_ids_checked(tmp_path, capsys, nodes, err):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": [["a", "b", 0], ["b", "c", 3]]}))
    assert run_cli(capsys, "central", "--L", "6", "--input", str(path), "--dot") == (2, "", f"error: {err}\n")


def test_central_snowflake(capsys):
    code, out, _ = run_cli(capsys, "central", "--L", "6", "--p", "3")
    assert code == 0
    data = json.loads(out)
    assert data["node"] == "center"


def test_area_budget(capsys):
    code, out, _ = run_cli(
        capsys, "area-budget", "--central", "10", "--enfilade", "3", "--branching", "4", "--shells", "5"
    )
    assert code == 0 and out.strip() == "1006"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["dist", "--L", "6"])  # neither --a-power nor --h
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv, err",
    [
        (("fill", "snowflake", "--L", "6"), "fill snowflake requires --p"),
        (("fill", "bigon", "--L", "6", "--p", "2"), "fill bigon requires --input"),
    ],
    ids=["snowflake-without-p", "bigon-without-input"],
)
def test_fill_needs_its_source(capsys, argv, err):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1] == f"snowflake-groups: error: {err}"


@pytest.mark.parametrize(
    "shape, extra, err",
    [
        ("snowflake", ("--input", "missing.json"), "fill snowflake does not take --input"),
        ("bigon", ("--p", "3"), "fill bigon does not take --p"),
        ("bigon", ("--p", "3", "--subdivision-constant", "5"),
         "fill bigon does not take --p or --subdivision-constant"),
        ("triangle", ("--subdivision-constant", "5"), "fill triangle does not take --subdivision-constant"),
        ("diamond", ("--p", "2"), "fill diamond does not take --p"),
    ],
)
def test_fill_refuses_options_its_shape_does_not_read(tmp_path, capsys, shape, extra, err):
    # without the extra option the call succeeds; with it, it is a usage
    # error, before any file is opened
    payload = {
        "bigon": {"kind": "bigon", "corners": [[0, 0], [12, 1]], "flavors": ["a", "a"],
                  "exponents": [12, -12], "D": 3, "subdivision": [6, 6]},
        "triangle": {"kind": "triangle", "corners": [[0, 0], [0, 2], [12, 0]], "flavors": ["x", "y", "a"],
                     "exponents": [2, 2, -12], "D": 0, "subdivision": [-6, -6]},
        "diamond": {"kind": "diamond", "corners": [[0, 0], [0, 2], [12, 0], [12, -2]],
                    "flavors": ["x", "y", "x", "y"], "exponents": [2, 2, -2, -2], "D": 0,
                    "subdivision": [1, 1], "subdivision2": [1, 1]},
    }
    if shape == "snowflake":
        source = ["--p", "2"]
    else:
        path = tmp_path / f"{shape}.json"
        path.write_text(json.dumps(payload[shape]))
        source = ["--input", str(path)]
    argv = ["fill", shape, "--L", "6", *source]
    assert run_cli(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as info:
        main([*argv, *extra])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1] == f"snowflake-groups: error: {err}"
    if shape == "snowflake":  # the snowflake's own option is still taken
        assert run_cli(capsys, *argv, "--subdivision-constant", "6")[0] == 0


def test_budget_only_on_searches(capsys):
    # the limits are fixed: no subcommand, ball and verify-loop included, takes --budget
    valid = {
        "dist": ["--L", "6", "--a-power", "36"],
        "expr": ["--L", "6", "--m", "36"],
        "word": ["--L", "6", "--a-power", "6"],
        "table": ["--L", "6", "--m-max", "10"],
        "mn": ["--L", "6", "--n-max", "3"],
        "snowflake": ["--L", "6", "--n", "1"],
        "verify-loop": ["--L", "6", "--n", "2"],
        "ball": ["--L", "6", "--radius", "1"],
        "enfilade": ["--L", "6", "--word", "s a s^-1", "--R", "4"],
        "fill": ["snowflake", "--L", "6", "--p", "2"],
        "central": ["--L", "6", "--p", "2"],
        "area-budget": ["--central", "1", "--enfilade", "1", "--branching", "1", "--shells", "1"],
    }
    assert sorted(valid) == sorted(build_parser()._subparsers._group_actions[0].choices)
    for command, argv in valid.items():
        assert main([command, *argv]) == 0, command
        with pytest.raises(SystemExit) as info:
            main([command, *argv, "--budget", "5"])
        assert info.value.code == 2, command
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --budget 5\n"), command


def test_ball_negative_radius_exit_2(capsys):
    code, out, err = run_cli(capsys, "ball", "--L", "6", "--radius", "-1")
    assert (code, out) == (2, "")
    assert err == "error: radius must be nonnegative, got -1\n"


def test_value_error_becomes_exit_2(capsys):
    code, _, err = run_cli(capsys, "dist", "--L", "5", "--a-power", "1")
    assert code == 2
    assert "even" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("snowflake", "--L", "6", "--n", "40"),
        ("verify-loop", "--L", "6", "--n", "40"),
        ("fill", "snowflake", "--L", "6", "--p", "40"),
        ("central", "--L", "6", "--p", "40"),
    ],
)
def test_snowflake_depth_beyond_max_letters_exit_2(capsys, argv):
    # the depth-40 path has about 2^42 letters: refused before anything is built
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    kind = "path" if argv[0] == "snowflake" else "loop"
    assert err == f"error: the depth-40 snowflake {kind} is longer than 10000000 letters\n"


def test_huge_exponent(capsys):
    # |a^m| and the digit expansion are one loop over the digits of m, not a
    # recursion per digit, so 10^1000 (1286 base-6 digits) is fine
    m = str(10**1000)
    code, dist, err = run_cli(capsys, "dist", "--L", "6", "--a-power", m)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, "expr", "--L", "6", "--m", m)
    assert code == 0 and err == ""
    assert out.startswith("digits [") and out.endswith(f"] length {dist}")
    # spelling out a word that long is refused before it is built
    for argv in (
        ("word", "--L", "6", "--a-power", m),
        ("word", "--L", "6", "--h", m, "1"),
        ("enfilade", "--L", "6", "--word", "a^10000000000", "--R", "4"),
        ("verify-loop", "--L", "6", "--word", "a^5000000 a^-5000001"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


@pytest.mark.parametrize(
    "argv, payload",
    [
        (("fill", "bigon"), {"kind": "bigon"}),
        (("fill", "bigon"), ["not", "an", "object"]),
        (
            ("fill", "diamond"),
            {
                "kind": "diamond",
                "corners": [[0, 0], [0, 1], [6, 0], [6, -1]],
                "flavors": ["x", "y", "x", "y"],
                "exponents": [1, 1, -1, -1],
                "D": 0,
                "subdivision": [1],
            },
        ),
        (("central",), {"nodes": 3}),
        (("central",), {"nodes": [{"id": "a"}]}),
        (("central",), {"nodes": [{"id": "a", "arcs": [-3]}], "edges": []}),
        (("central",), {"nodes": [{"id": "a", "arcs": [1]}, {"id": "b", "arcs": [2]}], "edges": [["a", "b", -1]]}),
    ],
)
def test_malformed_input_file_exit_2(tmp_path, capsys, argv, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, *argv, "--L", "6", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "--format", "json", "mn", "--L", "6", "--n-max", "5")
        outs.add(out)
    assert len(outs) == 1


def test_console_script_entry_point():
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-B", "-m", "snowflake_groups.cli", "dist", "--L", "6", "--a-power", "11"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "9"
