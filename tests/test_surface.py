"""Every function under src/autotab has a caller in the program itself.

A function that only tests call is API the program does not need. A name
counts as used when it appears, outside its own definition, as a name, an
attribute or a string constant (perfbench's tracer wraps functions by name)
in src/, scripts/ or perfbench/. A use under scripts/ or perfbench/ does not
count when that tree defines a function of the same name: it calls its own.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "perfbench")
# the oracle that tests/test_metrics.py checks roc_auc against
EXEMPT = {"roc_auc_pairwise"}


def _parse_program():
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in PROGRAM_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def _name_uses(trees):
    uses = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.end_lineno, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                uses.append((path, node.lineno, node.value))
    return uses


def _function_defs(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _top(path):
    return path.relative_to(ROOT).parts[0]


def test_every_function_has_a_program_caller():
    trees = _parse_program()
    own_defs = {top: set() for top in PROGRAM_DIRS if top != "src"}
    for path, tree in trees.items():
        if _top(path) in own_defs:
            own_defs[_top(path)].update(node.name for node in _function_defs(tree))
    uses = [(p, line, n) for p, line, n in _name_uses(trees) if n not in own_defs.get(_top(p), ())]
    unused = []
    for path, tree in trees.items():
        if ROOT / "src" / "autotab" not in path.parents:
            continue
        for node in _function_defs(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in EXEMPT:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (p == path and line in own) for p, line, n in uses):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined but never used by the program:\n" + "\n".join(unused)
