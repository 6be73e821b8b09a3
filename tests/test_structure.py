"""Structural checks on the package source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fordlab"
SCANNED = [ROOT / "src", ROOT / "tests", ROOT / "bench"]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(paths):
    for base in paths:
        for path in sorted(base.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _references(tree):
    """Every name the tree refers to: names, attributes, imported names
    and string constants (a dotted string refers to its last part)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.rsplit(".", 1)[-1]


def test_every_definition_is_referenced():
    """A non-dunder function, method or class of the package that nothing
    in src/, tests/ or bench/ refers to is dead code."""
    used = set()
    for _, tree in _trees(SCANNED):
        used.update(_references(tree))
    unused = sorted(
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in _trees([PACKAGE])
        for node in ast.walk(tree)
        if isinstance(node, _DEFS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used)
    assert not unused, "defined but never referenced:\n" + "\n".join(unused)
