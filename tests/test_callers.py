"""Every function and class of the package has a caller outside the tests.

A reference is a name, an attribute or an imported name, in any Python
file under ``src/``, ``scripts/`` or ``pipebench/``.  Dunder methods are
called by the language and are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "pipebench")


def referenced_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def definitions(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name


def test_no_function_or_class_is_called_only_from_tests():
    callers = referenced_names(p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py"))
    uncalled = [f"{path.stem}.{name}" for path in sorted((ROOT / "src" / "litrel").glob("*.py"))
                for name in definitions(path) if name not in callers]
    assert uncalled == [], f"defined in src/litrel but called from no code outside tests/: {uncalled}"

