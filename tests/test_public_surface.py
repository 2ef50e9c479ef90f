"""Every public name of the package has a reader outside the tests: code
that only tests run belongs in ``tests/oracles.py``, not in ``src/``."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maf"
# the readers: the package itself, the scripts, and the acceptance gate
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
# public names with no reader in the code, each with the reason it stays
EXEMPT = {
    # writes the sidecar matrix files the README documents for building a corpus
    "data.write_matrix_file",
}


def _names_read(path: Path) -> set[str]:
    """Names a file loads, reads as attributes or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


_MODULES = [importlib.import_module(name) for name in
            ["maf", *(f"maf.{p.stem}" for p in sorted(PACKAGE.glob("*.py"))
                      if not p.stem.startswith("_"))]]


@pytest.mark.parametrize("module", [m for m in _MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_public_name_has_a_reader_outside_the_tests(module):
    read = set().union(*(_names_read(p) for p in READERS))
    short = module.__name__.removeprefix("maf.")
    unread = [n for n in module.__all__ if n not in read and f"{short}.{n}" not in EXEMPT]
    assert not unread, f"{module.__name__} exports names only tests read: {unread}"
