"""Every name a src module imports is used in it (pyflakes' F401, by ast)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lendingdyn"


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, except on an import
    marked "# noqa: F401" and names that __all__ lists."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            span = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations and __all__ entries
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "from dataclasses import dataclass, field\n"
              "from typing import Iterable\n"
              "import numpy as np\n"
              "from ._random import substream  # noqa: F401\n"
              "__all__ = ['np']\n"
              "@dataclass\n"
              "class A:\n"
              "    x: 'Iterable[int]'\n")
    assert unused_imports(source) == ["field (line 2)"]
