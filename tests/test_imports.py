"""Static checks on the package's imports, by reading its source with ast."""

import ast
from pathlib import Path

import pytest

import windmills

MODULES = sorted(
    path for path in Path(windmills.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    # names bound by an import statement and never read anywhere in the module;
    # `from __future__` imports bind nothing
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_are_found():
    assert {path.stem for path in MODULES} >= {"cli", "decomp", "lattice2d", "windmill"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source,expected",
    [
        ("import os\n", ["os (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from math import gcd, isqrt\nisqrt(4)\n", ["gcd (line 1)"]),
        ("from .x import y as z\nz()\n", []),
        ("from __future__ import annotations\n", []),
        ("from typing import Iterator\ndef f() -> Iterator[int]: ...\n", []),
    ],
)
def test_finds_what_is_never_read(source, expected):
    assert unused_imports(source) == expected
