"""Properties of the package source itself."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import snowflake_groups

SOURCES = sorted(Path(snowflake_groups.__file__).parent.glob("*.py"))


def test_no_assert_in_package():
    # `python -O` strips asserts, so every stated guarantee needs a real check
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_stdlib_only():
    # the runtime uses the standard library only; relative imports stay inside
    assert SOURCES
    found = [
        f"{path.name}:{lineno} {name}"
        for path in SOURCES
        for lineno, name in _absolute_imports(ast.parse(path.read_text(), filename=str(path)))
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


_CACHES = {"cache", "lru_cache"}


def _functools_caches(tree):
    """(lineno, name) of every functools.cache or lru_cache the module imports or applies."""
    aliases = {"functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "functools")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from ((node.lineno, a.name) for a in node.names if a.name in _CACHES)
        elif isinstance(node, ast.Attribute) and node.attr in _CACHES:
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                yield node.lineno, node.attr


@pytest.mark.parametrize(
    "source, found",
    [
        ("from functools import lru_cache\n", [(1, "lru_cache")]),
        ("import functools as ft\n@ft.cache\ndef f(): pass\n", [(2, "cache")]),
        ("import functools\ng = functools.lru_cache(maxsize=None)(len)\n", [(2, "lru_cache")]),
        ("from functools import reduce\ncache = {}\n", []),
    ],
)
def test_cache_check_sees_imports_and_decorators(source, found):
    assert sorted(_functools_caches(ast.parse(source))) == found


def test_no_functools_cache_in_package():
    # memoized results live with the call or object that made them, never in
    # a process-wide cache that outlives it
    assert SOURCES
    found = [
        f"{path.name}:{lineno} {name}"
        for path in SOURCES
        for lineno, name in _functools_caches(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def _rebinding_statements(tree):
    """(lineno, keyword) of every global and nonlocal statement."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            yield node.lineno, type(node).__name__.lower()


@pytest.mark.parametrize(
    "source, found",
    [
        ("n = 0\ndef f():\n    global n\n    n += 1\n", [(3, "global")]),
        ("def f():\n    n = 0\n    def g():\n        nonlocal n\n        n += 1\n", [(4, "nonlocal")]),
        ("class A:\n    def f(self):\n        global x, y\n", [(3, "global")]),
        ("def f():\n    n = [0]\n    def g():\n        n[0] += 1\n", []),
    ],
)
def test_rebinding_check_sees_global_and_nonlocal(source, found):
    assert sorted(_rebinding_statements(ast.parse(source))) == found


def test_no_global_or_nonlocal_in_package():
    # state lives with the object or call that owns it: no function rebinds
    # a name of its module or of an enclosing function
    assert SOURCES
    found = [
        f"{path.name}:{lineno} {keyword}"
        for path in SOURCES
        for lineno, keyword in _rebinding_statements(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


ROOT = Path(__file__).resolve().parents[1]
# the sources whose calls and reads keep a name, an option or a field alive
CALLERS = [*SOURCES, *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]

# public names with no caller that stay: each states a result of the paper,
# checked by the unit tests
PAPER_STATEMENTS = {
    "closest_points_on_a_line": "the two closest points of <a> to h are equidistant from it",
    "project_to_x_line": "x^(p/L) is the unique closest point of <x> to a^p",
    "from_xyz": "the H-length formula is stated for a^l x^m y^n",
    "reverse_holder_check": "the reverse Hoelder inequalities behind the distortion bounds",
}


def _defined_names(tree):
    """The name of every top-level def and class and of every method of a
    top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, ast.FunctionDef))


def _used_names(tree):
    """Every Name id, Attribute attr and dotted segment of a string
    constant (the benchmark's ENTRY_POINTS name methods as "Class.method")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def _uncalled(defining, using):
    """The public names the `defining` sources define that no `using` source
    names, by name only: a name that anything else shares (a local, a
    field, a method of another class) counts as used."""
    used = {name for source in using for name in _used_names(ast.parse(source))}
    return sorted(
        name
        for source in defining
        for name in _defined_names(ast.parse(source))
        if not name.startswith("_") and name not in used
    )


def test_public_names_check_flags_an_unused_def():
    defining = "class A:\n    def m(self): pass\n    def _p(self): pass\ndef f(): pass\ndef g(): pass\n"
    using = "A().m()\nx = 'mod.f'\n"
    assert _uncalled([defining], [using]) == ["g"]


def test_public_names_have_callers():
    # public API earns its place by a caller in the package, the benchmark
    # or the acceptance tests, or by stating a result of the paper.  The
    # scan matches names, not objects: a name that something else shares
    # passes it with no caller of its own, as trace, head, total, reverse,
    # identity and to_json did, so such names still need reading.
    package = [path for path in SOURCES if path.name != "__init__.py"]
    using = [*package, *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    uncalled = _uncalled([p.read_text() for p in package], [p.read_text() for p in using])
    found = [name for name in uncalled if name not in PAPER_STATEMENTS]
    assert found == [], f"public names with no caller: {', '.join(found)}"


def test_benchmark_entry_points_resolve():
    # the benchmark's tracer wraps these (module, attribute) pairs at
    # install(); each must still name something in the package.  The
    # tracer's source is read, not imported.
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    (table,) = [
        node.value
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "ENTRY_POINTS"
    ]
    points = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    assert points
    missing = []
    for module, attr in points:
        obj = importlib.import_module(f"snowflake_groups.{module}")
        for name in attr.split("."):
            obj = getattr(obj, name, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []


# parameters with a default that no caller sets but that stay, with why
TEST_SEAMS = {
    ("main", "argv"): "the CLI's test seam: the CLI tests run main in process on their own arguments",
}


def _named(node):
    """The name a Name or Attribute node ends in, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def _fields(tree):
    """(class, field, position, defaulted) for each field of every dataclass
    and NamedTuple, nested ones too.  position is the field's place among
    the constructor's parameters, None for a field(init=False); defaulted
    says whether the field has a default."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if "dataclass" not in map(_named, decorators) and "NamedTuple" not in map(_named, node.bases):
            continue
        i = 0
        for item in node.body:
            if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
                continue
            value, options = item.value, {}
            if isinstance(value, ast.Call) and _named(value.func) == "field":
                options = {kw.arg: kw.value for kw in value.keywords}
                value = options.get("default", options.get("default_factory"))
            init = getattr(options.get("init"), "value", True) is not False
            yield node.name, item.target.id, i if init else None, value is not None
            i += init


def _defaulted_parameters(tree):
    """(def, parameter, position) for each parameter with a default of every
    def, nested ones too, and of every constructor: (class, field, position)
    for each init field with a default of a dataclass or NamedTuple.
    position is None for a keyword-only parameter."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield node.name, arg.arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None
    for cls, name, i, defaulted in _fields(tree):
        if defaulted and i is not None:
            yield cls, name, i


def _calls(tree):
    """(callee name, positions filled, keywords) for every call whose callee
    is a name or an attribute.  An attribute call fills one more position,
    as it may be a bound method; a *args fills every position and a
    **kwargs every keyword (None)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name, filled = func.id, len(node.args)
        elif isinstance(func, ast.Attribute):
            name, filled = func.attr, len(node.args) + 1
        else:
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            filled = float("inf")
        keywords = {kw.arg for kw in node.keywords}
        yield name, filled, keywords


def _default_uses(defining, using):
    """(def, parameter, uses) for each defaulted parameter of the `defining`
    sources: uses holds True if some call in the `using` sources sets it,
    by keyword or by position, and False if some call leaves it to its
    default.  Calls match defs by name only, as _uncalled does."""
    calls: dict[str, list] = {}
    for source in using:
        for name, filled, keywords in _calls(ast.parse(source)):
            calls.setdefault(name, []).append((filled, keywords))
    for source in defining:
        for name, param, i in _defaulted_parameters(ast.parse(source)):
            uses = {
                param in keywords or None in keywords or (i is not None and filled > i)
                for filled, keywords in calls.get(name, ())
            }
            yield name, param, uses


def _unset_defaults(defining, using):
    """(def, parameter) for each defaulted parameter that no call sets."""
    found = _default_uses(defining, using)
    return sorted((name, param) for name, param, uses in found if True not in uses)


def _unomitted_defaults(defining, using):
    """(def, parameter) for each defaulted parameter that no call leaves to
    its default."""
    found = _default_uses(defining, using)
    return sorted((name, param) for name, param, uses in found if False not in uses)


def test_defaulted_parameters_check_flags_an_unset_option():
    defining = (
        "def f(a, b=1, *, c=2): pass\n"
        "def k(p, q=0): pass\n"
        "class A:\n    def m(self, d=3, e=4): pass\n"
        "def g(h=5, i=6):\n    def inner(j=7): pass\n"
    )
    using = "f(0, 1)\nk(1)\nA().m(0)\nx.m(e=1)\ng(*args)\ninner(**opts)\n"
    assert _unset_defaults([defining], [using]) == [("f", "c"), ("k", "q")]


_RECORDS = (
    "from dataclasses import dataclass, field\n"
    "@dataclass(frozen=True)\nclass A:\n    a: int\n    b: int = 1\n"
    "    _c: list = field(default_factory=list, init=False)\n"
    "    d: str = field(default='x')\n    e: int = field(init=False)\n"
    "class P(typing.NamedTuple):\n    u: int\n    v: int = 0\n"
    "class Plain:\n    w: int = 2\n"
    "def f(g=3): pass\n"
)


def test_defaulted_parameters_include_constructor_fields():
    # a dataclass's init fields are its constructor's parameters, in order;
    # a field(init=False) is none of them, and a plain class has no fields
    assert sorted(_defaulted_parameters(ast.parse(_RECORDS))) == [
        ("A", "b", 1), ("A", "d", 2), ("P", "v", 1), ("f", "g", 0)
    ]
    using = "A(0, 2, 'y')\nP(1)\nf()\n"
    assert _unset_defaults([_RECORDS], [using]) == [("P", "v"), ("f", "g")]
    assert _unomitted_defaults([_RECORDS], [using]) == [("A", "b"), ("A", "d")]


def test_defaulted_parameters_have_callers():
    # an option earns its default by a caller that sets it in the package,
    # the benchmark or the acceptance tests: one that only the unit tests
    # set is a second path through the code.  Like the public-names check,
    # calls match defs by name, not by object.
    unset = _unset_defaults([p.read_text() for p in SOURCES], [p.read_text() for p in CALLERS])
    found = [f"{name}({param})" for name, param in unset if (name, param) not in TEST_SEAMS]
    assert found == [], f"defaulted parameters no caller sets: {', '.join(found)}"


def test_defaulted_parameters_check_flags_an_unused_default():
    defining = (
        "def f(a, b=1, *, c=2): pass\n"
        "def k(p, q=0): pass\n"
        "class A:\n    def m(self, d=3, e=4): pass\n"
        "def g(h=5): pass\n"
        "def n(r=6): pass\n"
    )
    using = "f(0, 1)\nf(0, c=3)\nk(1, 2)\nk(*args)\nA().m(0)\nx.m(e=1)\ng(**opts)\n"
    assert _unomitted_defaults([defining], [using]) == [("g", "h"), ("k", "q"), ("n", "r")]


def test_defaulted_parameters_are_left_to_their_default():
    # a default earns its place by a caller that relies on it, in the
    # package, the benchmark or the acceptance tests; with
    # test_defaulted_parameters_have_callers, every default is an option
    # with two values in use.  Calls match defs by name, not by object.
    always_set = _unomitted_defaults([p.read_text() for p in SOURCES], [p.read_text() for p in CALLERS])
    found = [f"{name}({param})" for name, param in always_set]
    assert found == [], f"defaulted parameters every call sets: {', '.join(found)}"


# public fields that no caller reads but that stay, with why
UNREAD_FIELDS = {
    "GapReport.holder_product": "the paper's Hoelder defect, below 1 for L >= 10",
    "BilipReport.repeated_at": "the witness of a loop that is not embedded: where a vertex repeats",
}


def _unread_fields(defining, using):
    """"Class.field" for each public field of a dataclass or NamedTuple of the
    `defining` sources that no `using` source reads as an attribute.  Reads
    match fields by name only, as _uncalled does."""
    read = {
        node.attr
        for source in using
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{cls}.{name}"
        for source in defining
        for cls, name, _, _ in _fields(ast.parse(source))
        if not name.startswith("_") and name not in read
    )


def test_public_fields_check_flags_an_unread_field():
    # a store is not a read, and neither is a subscript by the field's name
    using = "print(x.a, p.u)\ny.d = 1\nz['b']\nw.e += 1\nq.w\n"
    assert _unread_fields([_RECORDS], [using]) == ["A.b", "A.d", "A.e", "P.v"]


def test_public_fields_are_read():
    # a field earns its place by a reader in the package, the benchmark or
    # the acceptance tests: one that nothing reads costs each constructor
    # call and states nothing.  Reads match fields by name, not by object,
    # so a field that shares its name with anything read passes.
    unread = _unread_fields([p.read_text() for p in SOURCES], [p.read_text() for p in CALLERS])
    found = [name for name in unread if name not in UNREAD_FIELDS]
    assert found == [], f"public fields no caller reads: {', '.join(found)}"
