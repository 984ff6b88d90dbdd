"""Every function, class and training key of the package has a user outside the tests.

A reference is a name, an attribute or an imported name, in any Python
file under ``src/``, ``scripts/`` or ``pipebench/``.  Dunder methods are
called by the language and are exempt.  A :class:`TrainConfig` field
either has a command-line flag or is set by name, as a keyword argument
or a dict key, in ``scripts/`` or ``pipebench/``: a key that only a
config file reaches is code that no run needs.
"""

import ast
import dataclasses
import pathlib

from litrel.training import TrainConfig

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


def assigned_names(paths):
    """Names given as a keyword argument or as a dict key."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
            elif isinstance(node, ast.Dict):
                names.update(k.value for k in node.keys if isinstance(k, ast.Constant))
    return names


def test_every_train_config_field_has_a_flag_or_a_caller_that_sets_it():
    set_by_name = assigned_names(p for d in ("scripts", "pipebench") for p in (ROOT / d).rglob("*.py"))
    config_only = [f.name for f in dataclasses.fields(TrainConfig)
                   if not f.metadata["key"].flag and f.name not in set_by_name]
    assert config_only == [], f"TrainConfig fields with no flag, set by name in no script: {config_only}"
