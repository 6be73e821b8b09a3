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


def _field_reads(tree):
    """Every name the tree reads as an attribute or names in a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.rsplit(".", 1)[-1]


def test_every_field_is_read():
    """An annotated field in a class body of the package that nothing in
    src/, tests/ or bench/ reads as an attribute or names in a string is
    dead data."""
    read = set()
    for _, tree in _trees(SCANNED):
        read.update(_field_reads(tree))
    unread = sorted(
        f"{path.relative_to(ROOT)}:{stmt.lineno} {cls.name}.{stmt.target.id}"
        for path, tree in _trees([PACKAGE])
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read)
    assert not unread, "fields never read:\n" + "\n".join(unread)
