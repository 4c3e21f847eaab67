"""Mutation check of the transversal engine: does the suite notice a small
change to `tuple_repairs` or `tuple_causes`?

Run by hand from the repository root; it is not part of tier-1:

    python tests/mutation.py [MODULE ...]

MODULE names a module of `src/repcause`; the default is `tuple_repairs` and
`tuple_causes`. The script copies the repository into a temporary directory
once, then makes one mutant at a time with `ast`: it swaps a comparison
operator (`<`/`<=`, `>`/`>=`, `==`/`!=`, `in`/`not in`, `is`/`is not`),
`+`/`-` or `and`/`or`, drops a `not`, or adds one to an int constant. Each
mutant replaces the module in the copy and runs `TESTS` with pytest in a
subprocess, serially, capped at `CAP_S` seconds. A mutant is killed when the
run fails or passes the cap (a mutant that makes a loop run forever shows as
`timeout`), and survives when it passes. The script prints each mutant's
line, function and mutation with its outcome, then the counts per module,
and exits 1 when something survived. It installs nothing and uses the
standard library only: `ast` for the mutants, `subprocess` for the runs.

A survivor is either a gap in `TESTS`, which a new test closes, or an
equivalent mutant, one that no input can tell from the original, which is
listed here with the reason. None is listed: every survivor so far was a gap.
"""
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("tuple_repairs", "tuple_causes")
TESTS = (
    "tests/test_tuple_repairs.py",
    "tests/test_tuple_causes.py",
    "tests/test_components.py",
    "tests/test_small_hypergraphs.py",
)
CAP_S = 60

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
    ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or",
}


def _swap(op: ast.AST) -> str:
    return f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"


def mutations(tree: ast.Module):
    """Each mutation of `tree` as (walk index, operand index, description),
    in `ast.walk` order, so that a fresh parse of the same source finds the
    same node at the same index."""
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                yield i, j, _swap(op)
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            yield i, 0, _swap(node.op)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield i, 0, "drop not"
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)
        ):
            yield i, 0, f"{node.value} -> {node.value + 1}"


def functions(tree: ast.Module):
    """The name of the innermost function around each node, by node id."""
    names = {}
    for node in ast.walk(tree):  # outer functions come first, inner ones overwrite
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                names[id(inner)] = node.name
    return names


def mutant(source: str, index: int, operand: int):
    """The source with one mutation applied, and the mutated node's line."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    node = nodes[index]
    if isinstance(node, ast.Compare):
        node.ops[operand] = SWAPS[type(node.ops[operand])]()
    elif isinstance(node, (ast.BinOp, ast.BoolOp)):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.UnaryOp):
        for parent in nodes:
            for name, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, name, node.operand)
                elif isinstance(value, list):
                    value[:] = [node.operand if v is node else v for v in value]
    else:
        node.value += 1
    return ast.unparse(tree), node.lineno


def run_tests(copy: Path) -> str:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    try:
        done = subprocess.run(
            command, cwd=copy, env=env, timeout=CAP_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "killed" if done.returncode else "survived"


def check_module(copy: Path, module: str):
    """(mutants, survivors) for one module, each outcome printed."""
    path = copy / "src" / "repcause" / f"{module}.py"
    source = path.read_text()
    tree = ast.parse(source)
    names = functions(tree)
    nodes = list(ast.walk(tree))
    plan = list(mutations(tree))
    path.write_text(ast.unparse(tree))
    if run_tests(copy) != "survived":
        raise SystemExit(f"{module}: the tests fail on the unmutated module")
    survivors = 0
    try:
        for index, operand, description in plan:
            text, line = mutant(source, index, operand)
            path.write_text(text)
            outcome = run_tests(copy)
            where = f"{module}.py:{line} ({names.get(id(nodes[index]), 'module')})"
            print(f"  {outcome:8} {where}: {description}", flush=True)
            survivors += outcome == "survived"
    finally:
        path.write_text(source)
    return len(plan), survivors


def main(modules) -> int:
    with tempfile.TemporaryDirectory() as workdir:
        copy = Path(workdir) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", "_out"),
        )
        totals = {}
        for module in modules:
            print(f"{module}:", flush=True)
            totals[module] = check_module(copy, module)
    for module, (count, survivors) in totals.items():
        print(f"{module}: {count} mutants, {survivors} survived")
    return 1 if any(survivors for _, survivors in totals.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or MODULES))
