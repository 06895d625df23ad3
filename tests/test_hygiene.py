"""Every name a module of the package imports is used in that module.

The package has no linter, so this test is the guard against dead imports:
each costs a reader a search for a caller that does not exist.  A name
counts as used when the module loads it anywhere (code or annotation).
``__init__.py`` only re-exports, and ``from __future__`` imports switch on
features, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "denthex"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in loaded]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"cli.py", "counting.py", "regions.py", "render.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom math import prod, gcd\ngcd(1, 2)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: prod"]
