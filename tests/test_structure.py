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


def _defaulted_params(tree):
    """(callee name, parameter name, positional index or None) of every
    defaulted parameter of the tree's functions and methods, with the index
    counted as a call passes arguments: past self or cls for methods, and
    a class's ``__init__`` called by the class name."""
    for cls in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = fn.name
            if name == "__init__" and isinstance(cls, ast.ClassDef):
                name = cls.name
            elif name.startswith("__") and name.endswith("__"):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = isinstance(cls, ast.ClassDef) and not static
            positional = [*fn.args.posonlyargs, *fn.args.args][skip:]
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield name, arg.arg, i
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def _calls(tree):
    """(callee name, positional count, keyword names) of every call; a
    ``*`` or ``**`` argument counts as passing every position or name."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        yield (name, float("inf") if starred else len(node.args),
               keywords)


def test_every_default_is_set_somewhere():
    """A defaulted parameter of a package function or method that no call
    in src/, tests/ or bench/ sets, by keyword or by position, is a
    constant in disguise."""
    calls = {}
    for _, tree in _trees(SCANNED):
        for name, count, keywords in _calls(tree):
            calls.setdefault(name, []).append((count, keywords))

    def is_set(name, param, index):
        return any(None in keywords or param in keywords
                   or (index is not None and count > index)
                   for count, keywords in calls.get(name, []))

    unset = sorted(
        f"{path.relative_to(ROOT)} {name}({param}=...)"
        for path, tree in _trees([PACKAGE])
        for name, param, index in _defaulted_params(tree)
        if not is_set(name, param, index))
    assert not unset, "defaults no call sets:\n" + "\n".join(unset)
