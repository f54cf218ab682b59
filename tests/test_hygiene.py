"""Source hygiene: every name a library module imports is used in it, every
public name is used by the library or the benchmark, and every module the
library imports from outside the package is in the standard library.

A deletion that leaves its import behind fails here, and so does a public
name that only tests reach. Names imported under ``if TYPE_CHECKING:``
serve string annotations only and count as used.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coalloc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted(
    p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.parent.parts
)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    """Imported names that no ``Name`` node in the module reads."""
    exempt = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
        for inner in ast.walk(node)
    }
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(parse(path)) == []


def test_an_unused_import_is_caught():
    tree = ast.parse(
        "import functools\nimport heapq\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from .graph import TaskDag\n"
        "heapq.heapify([])\n"
        "if TYPE_CHECKING:\n    pass\n"
    )
    assert unused_imports(tree) == ["functools (line 1)"]


def unused_public_names(package: ast.Module, users: list[ast.Module]) -> list[str]:
    """Names the package module imports that no ``Name`` node and no
    attribute access in ``users`` spells."""
    used = set()
    for tree in users:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        alias.asname or alias.name
        for node in package.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]


def test_every_public_name_is_used_outside_the_tests():
    users = [parse(path) for path in MODULES + BENCHMARK]
    assert unused_public_names(parse(SRC / "__init__.py"), users) == []


def test_an_unused_public_name_is_caught():
    package = ast.parse("from .graph import TaskDag, build_dag, release\n")
    users = [ast.parse("dag = build_dag(tasks)\n"), ast.parse("graph.release(p)\n")]
    assert unused_public_names(package, users) == ["TaskDag"]


def non_stdlib_imports(tree: ast.Module) -> list[str]:
    """Absolute imports whose top-level module is not in the standard library."""
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    names += [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    ]
    return sorted(
        {n for n in names if n.split(".")[0] not in sys.stdlib_module_names}
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    assert non_stdlib_imports(parse(path)) == []


def test_a_third_party_import_is_caught():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json\nimport numpy.linalg\nfrom yaml import safe_load\n"
        "from . import graph\nfrom .model import TaskSpec\n"
    )
    assert non_stdlib_imports(tree) == ["numpy.linalg", "yaml"]
