"""Stdlib stand-ins for a linter's unused-import and unused-parameter rules
over the engine sources (``__init__.py`` re-exports by design and is skipped
for imports), a rule that every private module-level helper is used
somewhere in the engine, a rule that only ``series`` and ``algebra`` touch
the raw forms, a rule that only ``series`` reads the Taylor coefficients, a
rule that only ``series`` reads the key layout of a ``Codec``, a rule
against accumulation loops, and a no-floating-point rule: hopfc computes
exactly."""

import ast
from pathlib import Path

import pytest

SRC = sorted(p for p in (Path(__file__).parent.parent / "src" / "hopfc").glob("*.py")
             if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_parameters(source):
    """(qualified function name, parameter) for every parameter that the
    function body never reads; ``self`` and ``cls`` are exempt."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [p.arg for p in (a.vararg, a.kwarg) if p]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)}
                found.extend((name, p) for p in params
                             if p not in ("self", "cls") and p not in read)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


#: per file, (function, parameter) pairs allowed to go unread; none today
ALLOWED_UNUSED = {}

#: the only ``math`` functions the exact engine may call
MATH_ALLOWED = {"factorial", "gcd", "lcm", "ceil", "floor"}

#: per file, wall-clock fields (outside the byte-identical report) that may
#: hold floats; none today
FLOAT_ALLOWED = {}


def float_uses(source, allowed=()):
    """(line, what) for every float or complex literal, ``float(...)`` call,
    and ``math`` name outside MATH_ALLOWED; annotated assignments whose
    qualified target is in ``allowed`` are skipped."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix + child.name + ".")
                continue
            if (isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name)
                    and prefix + child.target.id in allowed):
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, (float, complex)):
                found.append((child.lineno, f"literal {child.value!r}"))
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "float"):
                found.append((child.lineno, "float()"))
            elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                  and child.value.id == "math" and child.attr not in MATH_ALLOWED):
                found.append((child.lineno, f"math.{child.attr}"))
            elif isinstance(child, ast.ImportFrom) and child.module == "math":
                found.extend((child.lineno, f"math.{a.name}") for a in child.names
                             if a.name not in MATH_ALLOWED)
            visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


ALL_SRC = sorted((Path(__file__).parent.parent / "src" / "hopfc").glob("*.py"))


def unreferenced_private(sources):
    """(file, name) for every ``_``-prefixed module-level function or class
    in ``sources`` ({file name: source}) that no code there refers to, by
    name, attribute or import."""
    defined, used = [], set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        defined += [(fname, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(d for d in defined if d[1] not in used)


#: the modules that own the raw forms: only they read ``.raw`` or use a
#: private name of ``series``
RAW_OWNERS = ("series.py", "algebra.py")


def raw_uses(source):
    """(line, what) for every ``.raw`` read and every private name of
    ``series`` imported from it or read off it as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "raw":
            found.append((node.lineno, ".raw"))
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id == "series"):
            found.append((node.lineno, f"series.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("series"):
            found.extend((node.lineno, f"series.{a.name}") for a in node.names
                         if a.name.startswith("_"))
    return sorted(found)


RAW_USERS = [p for p in ALL_SRC if p.name not in RAW_OWNERS]


def taylor_coeffs_uses(source):
    """(line, what) for every import and every read, by name or as an
    attribute, of ``taylor_coeffs``: outside ``series`` a Taylor expansion
    is ``series.taylor``, which owns the coefficients."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, "import taylor_coeffs") for a in node.names
                         if a.name == "taylor_coeffs")
        elif isinstance(node, ast.Name) and node.id == "taylor_coeffs":
            found.append((node.lineno, "taylor_coeffs"))
        elif isinstance(node, ast.Attribute) and node.attr == "taylor_coeffs":
            found.append((node.lineno, ".taylor_coeffs"))
    return sorted(found)


OUTSIDE_SERIES = [p for p in ALL_SRC if p.name != "series.py"]


#: the ``Codec`` attributes that lay out the fields of a key: outside
#: ``series`` a field is read through ``Codec.field``
KEY_LAYOUT = {"masks", "shifts", "offsets", "steps", "lows", "tops", "top"}


def key_layout_uses(source):
    """(line, what) for every read of a ``KEY_LAYOUT`` attribute."""
    return sorted((node.lineno, f".{node.attr}") for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in KEY_LAYOUT)


def _update_of(value, name):
    """``+`` or ``-`` if ``value`` is ``name + ...`` or ``name - ...``."""
    if (isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub))
            and isinstance(value.left, ast.Name) and value.left.id == name):
        return "+" if isinstance(value.op, ast.Add) else "-"
    return None


def accumulations(source):
    """(line, what) for every ``name = name + ...`` or ``name = name - ...``
    in the body of a ``for`` or ``while`` loop, also as either branch of a
    conditional expression (``name = x if ... else name + ...``), and every
    builtin ``sum`` given a start value.  A series or tensor sum copies its
    left operand, so such a loop is quadratic in the size of the sum;
    ``series.lincomb`` and ``algebra.lincomb`` both sum through
    ``series._sum``, over the one accumulator of the engine."""
    tree = ast.parse(source)
    in_loop = {id(node) for loop in ast.walk(tree) if isinstance(loop, (ast.For, ast.While))
               for stmt in loop.body for node in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and id(node) in in_loop and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            name, v = node.targets[0].id, node.value
            branches = [v.body, v.orelse] if isinstance(v, ast.IfExp) else [v]
            if op := next(filter(None, (_update_of(b, name) for b in branches)), None):
                found.append((node.lineno, f"{name} = {name} {op} ..."))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "sum"
              and (len(node.args) > 1 or any(k.arg == "start" for k in node.keywords))):
            found.append((node.lineno, "sum(..., start)"))
    return sorted(found)


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", ALL_SRC, ids=[p.name for p in ALL_SRC])
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == ALLOWED_UNUSED.get(path.name, [])


@pytest.mark.parametrize("path", ALL_SRC, ids=[p.name for p in ALL_SRC])
def test_no_floating_point(path):
    assert float_uses(path.read_text(), FLOAT_ALLOWED.get(path.name, ())) == []


def test_no_unreferenced_private_helpers():
    assert unreferenced_private({p.name: p.read_text() for p in ALL_SRC}) == []


@pytest.mark.parametrize("path", RAW_USERS, ids=[p.name for p in RAW_USERS])
def test_only_the_owners_read_raw_forms(path):
    assert raw_uses(path.read_text()) == []


@pytest.mark.parametrize("path", OUTSIDE_SERIES, ids=[p.name for p in OUTSIDE_SERIES])
def test_only_series_reads_taylor_coeffs(path):
    assert taylor_coeffs_uses(path.read_text()) == []


@pytest.mark.parametrize("path", OUTSIDE_SERIES, ids=[p.name for p in OUTSIDE_SERIES])
def test_only_series_reads_the_key_layout(path):
    assert key_layout_uses(path.read_text()) == []


@pytest.mark.parametrize("path", ALL_SRC, ids=[p.name for p in ALL_SRC])
def test_no_accumulation_loops(path):
    assert accumulations(path.read_text()) == []


def test_check_flags_an_accumulation_loop():
    source = ("def f(xs, t, n):\n    acc = t\n    for x in xs:\n        acc = acc + x\n"
              "        n = n - 1 if x else n\n        t = x + t\n        for y in x:\n"
              "            n = n * y\n            s = y if s is None else s + y\n"
              "    while t:\n        t = t - 1\n    acc = acc + t\n"
              "    return sum(xs, t), sum(xs), sum(xs, start=n)\n")
    assert accumulations(source) == [(4, "acc = acc + ..."), (5, "n = n - ..."),
                                     (9, "s = s + ..."), (11, "t = t - ..."),
                                     (13, "sum(..., start)"), (13, "sum(..., start)")]


def test_check_flags_a_raw_form_use():
    source = ("from .series import Ring, _reduce\nfrom . import series\n"
              "def f(x):\n    return x.raw, x.terms, series._series, series.Series\n")
    assert raw_uses(source) == [(1, "series._reduce"), (4, ".raw"), (4, "series._series")]


def test_check_flags_a_key_layout_use():
    source = ("def f(codec, a):\n    mask, zero, unit = codec.field(0)\n"
              "    return codec.masks[0] << codec.shifts[0], a.top, a.topmost, codec.zero\n")
    assert key_layout_uses(source) == [(3, ".masks"), (3, ".shifts"), (3, ".top")]


def test_check_flags_a_taylor_coeffs_use():
    source = ("from .series import taylor, taylor_coeffs as tc\nfrom . import series\n"
              "def f(n):\n    return taylor_coeffs('exp', n), series.taylor_coeffs(n), tc\n")
    assert taylor_coeffs_uses(source) == [(1, "import taylor_coeffs"), (4, ".taylor_coeffs"),
                                          (4, "taylor_coeffs")]


def test_check_flags_an_unreferenced_private_helper():
    sources = {"a.py": "def _used():\n    pass\n"
                       "class _Gone:\n    def _m(self):\n        pass\n",
               "b.py": "from a import _used\nimport a\na._attr()\ndef _attr():\n    pass\n"}
    assert unreferenced_private(sources) == [("a.py", "_Gone")]


def test_check_flags_floating_point():
    source = ("import math\nfrom math import gcd, sqrt\n"
              "class R:\n    elapsed: float = 0.0\n    other: float = 1e3\n"
              "def f(x):\n    return float(x) + math.log(x) + math.gcd(x, 2) + 2j\n")
    assert float_uses(source, {"R.elapsed"}) == [
        (2, "math.sqrt"), (5, "literal 1000.0"),
        (7, "float()"), (7, "literal 2j"), (7, "math.log")]


def test_check_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nprint(c)\n") == [(1, "os"), (2, "b")]


def test_check_flags_an_unused_parameter():
    source = ("def f(a, b=1, *args, c, **kw):\n    return a + c + len(args)\n"
              "class C:\n    def m(self, x, y):\n"
              "        def g(z):\n            return y\n        return g\n")
    assert unused_parameters(source) == [("C.m", "x"), ("C.m.g", "z"), ("f", "b"), ("f", "kw")]
