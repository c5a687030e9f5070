"""Every function under src/autotab has a caller in the program itself.

A function that only tests call is API the program does not need. A name
counts as used when it appears, outside its own definition, as a name, an
attribute or a string constant (perfbench's tracer wraps functions by name)
in src/, scripts/ or perfbench/.
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


def test_every_function_has_a_program_caller():
    trees = _parse_program()
    uses = _name_uses(trees)
    unused = []
    for path, tree in trees.items():
        if ROOT / "src" / "autotab" not in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in EXEMPT:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (p == path and line in own) for p, line, n in uses):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined but never used by the program:\n" + "\n".join(unused)
