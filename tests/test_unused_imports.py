"""Every name a module of the package imports is used in that module, and
every module-level private name of the package is referenced somewhere in it.
The exhaustive searches stay in `oracles.py`: no other module imports
`itertools.combinations` or the oracle module, and none imports
`permutations`.

No linter ships with the project, so these AST scans stand in for its
unused-import and dead-code checks. The unused-import scan skips
`__init__.py`: its imports are the public re-exports.
"""
import ast
from pathlib import Path

import pytest

import repcause

PACKAGE_FILES = sorted(Path(repcause.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE_FILES if p.name != "__init__.py"]


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


def unused_private_names(sources):
    """(module, line, name) of each module-level function, class or
    assignment named with one leading underscore that no module of
    `sources`, a dict from module name to source, reads, imports or reaches
    as an attribute."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(
                    (module, node.lineno, t.id) for t in targets if isinstance(t, ast.Name)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(
        (module, line, name)
        for module, line, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    )


def imports_of(source: str):
    """The (module, name) pairs a source takes: `from m import n` gives
    (m, n), with one leading dot per relative level; `import m` gives
    (m, None), and reading attribute n of that module gives (m, n) too."""
    tree = ast.parse(source)
    taken = set()
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            taken.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                taken.add((alias.name, None))
                modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                taken.add((modules[node.value.id], node.attr))
    return taken


def takes_an_oracle(taken) -> bool:
    return any(
        module in (".oracles", "repcause.oracles")
        or (module in (".", "repcause") and name == "oracles")
        for module, name in taken
    )


def test_import_scan_sees_each_form():
    source = (
        "import itertools as it\nfrom itertools import permutations\n"
        "from . import oracles\nx = it.combinations\n"
    )
    taken = imports_of(source)
    assert ("itertools", "combinations") in taken
    assert ("itertools", "permutations") in taken
    assert takes_an_oracle(taken)
    assert not takes_an_oracle(imports_of("from .tuple_causes import oracle\n"))


@pytest.mark.parametrize("module", PACKAGE_FILES, ids=lambda p: p.name)
def test_exhaustive_search_stays_in_the_oracle_module(module):
    taken = imports_of(module.read_text(encoding="utf-8"))
    assert not any(name == "permutations" for _, name in taken)
    if module.name != "oracles.py":
        assert ("itertools", "combinations") not in taken
    if module.name != "__init__.py":
        assert not takes_an_oracle(taken)


def test_scan_finds_an_unused_import():
    source = "import os\nfrom typing import List, Set\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "os"), (2, "Set")]


def test_scan_finds_an_unused_private_name():
    sources = {
        "a": "_KEPT = 1\n_LEFT = 2\ndef _helper():\n    return _KEPT\nclass _Old:\n    pass\n",
        "b": "from .a import _helper\n__all__ = []\ndef public():\n    pass\n",
    }
    assert unused_private_names(sources) == [("a", 2, "_LEFT"), ("a", 5, "_Old")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_package_references_every_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_FILES}
    assert unused_private_names(sources) == []
