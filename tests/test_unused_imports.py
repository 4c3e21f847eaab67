"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this AST scan stands in for its
unused-import check. `__init__.py` is skipped: its imports are the public
re-exports.
"""
import ast
from pathlib import Path

import pytest

import repcause

MODULES = sorted(
    p for p in Path(repcause.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nfrom typing import List, Set\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "os"), (2, "Set")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
