"""Every function, class, configuration key and import of the package has a user outside the tests.

A reference is a name, an attribute or an imported name, in any Python
file under ``src/``, ``scripts/`` or ``pipebench/``.  A re-export is not
one: an ``__init__.py`` import, and its ``__all__`` entry, only pass a
name on to callers that may not exist.  Dunder methods are
called by the language and are exempt.  A key of ``litrel.cli.KEYS``
either has a command-line flag or is set by name, as a keyword argument
or a dict key, in ``scripts/`` or ``pipebench/``: a key that only a
config file reaches is code that no run needs.  A module under ``src/``
or ``scripts/`` uses every name it imports.
"""

import ast
import pathlib

from litrel.cli import KEYS

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "pipebench")


def referenced_names(paths):
    """Names, attributes and imported names; ``__all__`` strings are not names."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py":
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_a_re_export_is_not_a_caller(tmp_path):
    package, module = tmp_path / "__init__.py", tmp_path / "user.py"
    package.write_text('from litrel.data import helper\n\n__all__ = ["helper"]\n')
    module.write_text("from litrel.data import helper\n")
    assert "helper" not in referenced_names([package])
    assert "helper" in referenced_names([package, module])


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
    """Every ``cli.KEYS`` entry, the :class:`TrainConfig` fields among them."""
    set_by_name = assigned_names(p for d in ("scripts", "pipebench") for p in (ROOT / d).rglob("*.py"))
    config_only = [name for name, key in KEYS.items() if not key.flag and name not in set_by_name]
    assert config_only == [], f"config keys with no flag, set by name in no script: {config_only}"


def unused_imports(path):
    """Names that ``path`` imports and never reads; ``__all__`` entries count as read."""
    imported, read = {}, set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1]) if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    unused = [entry for d in ("src", "scripts") for path in sorted((ROOT / d).rglob("*.py"))
              for entry in unused_imports(path)]
    assert unused == [], f"imported and never used: {unused}"
