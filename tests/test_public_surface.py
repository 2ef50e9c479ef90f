"""Every public name of the package, and every function and class it
defines, has a reader outside the tests: code that only tests run belongs
in ``tests/oracles.py``, not in ``src/``, and a helper whose last caller
is gone goes with it."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maf"
# the readers: the package itself, the scripts, and the acceptance gate
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
# names with no reader in the code, each with the reason it stays
EXEMPT = {
    # writes the sidecar matrix files the README documents for building a corpus
    "data.write_matrix_file",
}


def _names_read(tree: ast.AST) -> set[str]:
    """Names a syntax tree loads, reads as attributes or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


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
