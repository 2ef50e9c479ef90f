"""Every public name of the package, and every function, class and method
it defines, has a reader outside the tests: code that only tests run belongs
in ``tests/oracles.py``, not in ``src/``, and a helper whose last caller
is gone goes with it. Every oracle there has a reader among the tests."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maf"
# the readers: the package itself, the scripts, and the acceptance gate
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
# names with no reader in the code, each with the reason it stays
EXEMPT: set[str] = set()


def _name_read(node: ast.AST) -> str | None:
    """The name a node loads, reads as an attribute or imports, if any."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _names_read(tree: ast.AST) -> set[str]:
    """Names a syntax tree loads, reads as attributes or imports."""
    return {name for node in ast.walk(tree) if (name := _name_read(node)) is not None}


_TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
# every top-level statement of the readers, with the names it reads
_STATEMENTS = [(stmt, _names_read(stmt)) for tree in _TREES.values() for stmt in tree.body]

_MODULES = [importlib.import_module(name) for name in
            ["maf", *(f"maf.{p.stem}" for p in sorted(PACKAGE.glob("*.py"))
                      if not p.stem.startswith("_"))]]


@pytest.mark.parametrize("module", [m for m in _MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_public_name_has_a_reader_outside_the_tests(module):
    read = set().union(*(names for _, names in _STATEMENTS))
    short = module.__name__.removeprefix("maf.")
    unread = [n for n in module.__all__ if n not in read and f"{short}.{n}" not in EXEMPT]
    assert not unread, f"{module.__name__} exports names only tests read: {unread}"


_DEFINED = [(path.stem, stmt) for path in sorted(PACKAGE.glob("*.py")) for stmt in _TREES[path].body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and f"{path.stem}.{stmt.name}" not in EXEMPT]


@pytest.mark.parametrize("definition", [d for _, d in _DEFINED],
                         ids=[f"{stem}.{d.name}" for stem, d in _DEFINED])
def test_every_function_and_class_has_a_reader_outside_the_tests(definition):
    """Private ones included. A read inside the definition itself does not
    count, so recursion keeps nothing alive."""
    assert any(definition.name in names for stmt, names in _STATEMENTS if stmt is not definition), \
        f"'{definition.name}' is read only by the tests, or only by itself"


_METHODS = [(f"{path.stem}.{cls.name}.{fn.name}", fn) for path in sorted(PACKAGE.glob("*.py"))
            for cls in _TREES[path].body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))]


@pytest.mark.parametrize("method", [m for _, m in _METHODS], ids=[name for name, _ in _METHODS])
def test_every_method_has_a_reader_outside_itself(method):
    """Every method and property but the dunders is read by a reader, a
    sibling method included; a read inside the method itself does not
    count, so recursion keeps nothing alive."""
    inside = {id(n) for n in ast.walk(method)}
    assert any(_name_read(node) == method.name for tree in _TREES.values()
               for node in ast.walk(tree) if id(node) not in inside), \
        f"'{method.name}' is read only by the tests, or only by itself"


def _optional_parameters():
    """(name, definition, parameter, position) for every parameter with a
    default and every keyword-only one (position None) of a function or
    method in the package. A method's position counts from its first
    argument after self or cls, as its callers pass them."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _TREES[path].body:
            for fn in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                # a class is called by its own name to run __init__
                name = stmt.name if fn.name == "__init__" else fn.name
                shift = int(fn is not stmt and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list))
                positional = fn.args.posonlyargs + fn.args.args
                first = len(positional) - len(fn.args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    yield name, fn, arg.arg, i - shift
                for arg in fn.args.kwonlyargs:
                    yield name, fn, arg.arg, None


def _sets(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether a call passes the parameter, by keyword or by position; an
    unpacked ``*args`` or ``**kwargs`` may pass it."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args[:position + 1]) \
        or len(call.args) > position


_OPTIONAL = list(_optional_parameters())
# the imported name behind each ``import ... as`` alias of the readers
_ORIGINAL = {a.asname: a.name for tree in _TREES.values() for a in ast.walk(tree)
             if isinstance(a, ast.alias) and a.asname}


def _callee(call: ast.Call) -> str | None:
    """The name a call calls, ``f`` of ``f(...)`` and ``x.f(...)``, past any alias."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    return _ORIGINAL.get(name, name)


@pytest.mark.parametrize("name, definition, parameter, position", _OPTIONAL,
                         ids=[f"{name}({parameter}=)" for name, _, parameter, _ in _OPTIONAL])
def test_every_optional_parameter_is_set_outside_the_tests(name, definition, parameter, position):
    """A default no reader overrides, or a keyword-only option, is a mode
    only the tests run; calls inside the definition itself do not count."""
    inside = {id(n) for n in ast.walk(definition)}
    calls = [c for tree in _TREES.values() for c in ast.walk(tree)
             if isinstance(c, ast.Call) and id(c) not in inside and _callee(c) == name]
    assert any(_sets(c, parameter, position) for c in calls), \
        f"'{name}' parameter '{parameter}' is set only by the tests, or never"


ORACLES = ROOT / "tests" / "oracles.py"
# each function and class of the oracles, with the names its body reads
_ORACLE_DEFS = {stmt.name: _names_read(stmt)
                for stmt in ast.parse(ORACLES.read_text(encoding="utf-8")).body
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}


def _oracles_reached() -> set[str]:
    """The oracles a test reads, and those they read in turn."""
    reached = set().union(*(_names_read(ast.parse(path.read_text(encoding="utf-8")))
                            for path in sorted(ORACLES.parent.glob("test_*.py"))))
    todo = [name for name in _ORACLE_DEFS if name in reached]
    while todo:
        for name in _ORACLE_DEFS[todo.pop()] & (_ORACLE_DEFS.keys() - reached):
            reached.add(name)
            todo.append(name)
    return reached


_REACHED = _oracles_reached()


@pytest.mark.parametrize("name", sorted(_ORACLE_DEFS))
def test_every_oracle_is_read_by_a_test(name):
    """Read by a ``tests/test_*.py`` file, or by an oracle that one reads;
    an oracle no test reaches checks nothing."""
    assert name in _REACHED, f"tests/oracles.py defines '{name}', which no test reaches"


def _json_parses(tree: ast.Module):
    """The top-level definition around each ``json.load``/``json.loads``
    of a module, and each import of either by name."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                yield getattr(stmt, "name", "module level")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                yield "from json import"


def test_json_is_parsed_only_by_read_json_object():
    """Every JSON document the package reads back goes through one parser,
    so each reader refuses bad bytes, bad JSON and deep nesting alike."""
    parses = [(path.stem, where) for path in sorted(PACKAGE.glob("*.py"))
              for where in _json_parses(_TREES[path])]
    assert parses == [("data", "read_json_object")]


def test_the_package_needs_only_numpy():
    """NumPy is the one runtime dependency in pyproject.toml. The suite runs
    with the test extra installed, so a stray import of a test package
    shows only in a fresh interpreter: importing ``maf`` and every module
    of it loads no package but NumPy beyond the standard library."""
    names = [m.__name__ for m in _MODULES]
    child = ("import importlib, sys\n"
             "before = set(sys.modules)\n"
             f"for name in {names!r}:\n"
             "    importlib.import_module(name)\n"
             "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
             "print(sorted(new - set(sys.stdlib_module_names)))\n"
             "loaded = {m.split('.')[0] for m in sys.modules}\n"
             "print(sorted({'scipy', 'hypothesis', 'pytest'} & loaded))\n")
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True, timeout=120)
    assert run.stdout == "['maf', 'numpy']\n[]\n"
