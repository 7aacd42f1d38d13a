"""Every name a src module imports is used in it (pyflakes' F401, by ast),
or is imported only for the benchmark tracer to wrap."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lendingdyn"
TRACING = ROOT / "perfbench" / "tracing.py"


def _noqa(node, lines) -> bool:
    return any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno])


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
            if _noqa(node, lines):
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


def traced_names() -> set[tuple[str, str]]:
    """(module, attribute) of every TARGETS entry in perfbench/tracing.py."""
    tree = ast.parse(TRACING.read_text())
    targets = next(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in node.targets))
    return {(where, attr) for _, where, attr in ast.literal_eval(targets)}


def noqa_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of every name source imports on a "# noqa: F401"
    import."""
    lines = source.splitlines()
    return [(alias.asname or alias.name, node.lineno)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and _noqa(node, lines) for alias in node.names]


def untraced_imports(source: str, module: str, traced) -> list[str]:
    """The noqa imports of source that no tracer target wraps at module."""
    return [f"{name} (line {line})" for name, line in noqa_imports(source)
            if (module, name) not in traced]


def _module(path) -> str:
    return "lendingdyn" + ("" if path.stem == "__init__" else f".{path.stem}")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_noqa_imports_are_tracer_targets(path):
    assert untraced_imports(path.read_text(), _module(path),
                            traced_names()) == []


def test_the_noqa_imports_were_found():
    # Guards the parsers above: these are the tracer-only imports.
    found = {(_module(path), name) for path in SRC.glob("*.py")
             for name, _ in noqa_imports(path.read_text())}
    assert found == {("lendingdyn.cli", "simulate_group"),
                     ("lendingdyn.dynamics", "step_uniforms"),
                     ("lendingdyn.dynamics", "substream"),
                     ("lendingdyn.interventions", "uniform_block")}
    assert found <= traced_names()


def test_the_check_finds_an_untraced_noqa_import():
    source = ("from ._random import substream  # noqa: F401\n"
              "from ._random import (derive_seed,  # noqa: F401\n"
              "                      step_uniforms)\n")
    assert untraced_imports(source, "lendingdyn.dynamics",
                            traced_names()) == ["derive_seed (line 2)"]
