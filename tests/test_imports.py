"""Every import in a liegen module is used by that module.

No linter ships with the project, and a deleted function can leave its
imports behind; this reads each module's syntax tree with the standard
``ast`` module instead.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "liegen"


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport sys\n"
              "from .x import a, b as c\nsys.exit(a)\n")
    assert unused_imports(source) == ["c (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []
