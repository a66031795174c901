"""No import that its module never uses, in the program, tests, benchmarks or examples.

The stdlib-``ast`` twin of ruff's F401, which ``make lint`` runs: an
imported name counts as used when the module reads it anywhere, names it in
``__all__``, or names it in a string annotation. ``from __future__`` imports
and explicit re-exports (``import x as x``) are exempt. Unlike ruff it does
not track scopes: a name read anywhere in the module counts for every
import of it.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("src", "tests", "benchmarks", "examples")


def _names_in_string_annotation(annotation):
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def unused_imports(source):
    """``(line, name)`` of every import binding ``source`` never uses."""
    bound, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _names_in_string_annotation(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _names_in_string_annotation(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_in_string_annotation(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("root", ROOTS)
def test_no_unused_imports(root):
    found = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for path in sorted((REPO / root).rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


@pytest.mark.parametrize("source,expected", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", [(1, "c")]),
    ("from a import b as b\n", []),
    ("from __future__ import annotations\n", []),
    ("from a import B\n__all__ = ['B']\n", []),
    ("from a import B\ndef f(x: 'B') -> 'list[B]': pass\n", []),
    ("from a import B\nx: 'B'\n", []),
    ("from a import B\n'B'\n", [(1, "B")]),
])
def test_scanner_reads_usage_like_f401(source, expected):
    assert unused_imports(source) == expected
