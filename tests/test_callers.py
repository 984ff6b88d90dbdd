"""Every function, class, configuration key and import of the package has a user outside the tests.

A reference is a name, an attribute or an imported name, in any Python
file under ``src/``, ``scripts/`` or ``pipebench/``.  A re-export is not
one: an ``__init__.py`` import, and its ``__all__`` entry, only pass a
name on to callers that may not exist.  Dunder methods are
called by the language and are exempt.  Nor is a function's own body a
caller of it: every function and method has a reference outside its own
``def``, where an identifier in a string counts too (pipebench wraps
functions by dotted name), but one in a docstring does not.  A key of ``litrel.cli.KEYS``
either has a command-line flag or is set by name, as a keyword argument
or a dict key, in ``scripts/`` or ``pipebench/``: a key that only a
config file reaches is code that no run needs.  A module under ``src/``
or ``scripts/`` uses every name it imports.  No default of a function
is passed by every call of that function's name: such a default is a
branch that only tests take.  Only ``scoring`` builds the lanes of a
block loop: no other module constructs a similarity kernel or picks a
scoring model out of ``MODELS``.  Inputs are converted where they are
loaded: no module under ``src/`` calls ``np.asarray``, nor
``np.ascontiguousarray`` on a parameter of the function it is in.
"""

import ast
import pathlib
import re

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


def references(paths):
    """``(path, line, name)`` of every name, attribute, imported name and identifier in a non-docstring string."""
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.value) for node in ast.walk(tree)
                      if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield path, node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield path, node.lineno, node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from ((path, node.lineno, alias.name.rpartition(".")[2]) for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                yield from ((path, node.lineno, word) for word in re.findall(r"[A-Za-z_]\w*", node.value))


def referenced_only_by_their_own_def(root):
    """``module.name`` of each non-dunder function or method under ``src/litrel`` with no reference but its own body."""
    found = list(references(path for d in CALLER_DIRS for path in (root / d).rglob("*.py")))
    functions = [(path, node) for path in sorted((root / "src" / "litrel").glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not (node.name.startswith("__") and node.name.endswith("__"))]
    return [f"{path.stem}.{node.name}" for path, node in functions
            if not any(name == node.name and not (at == path and node.lineno <= line <= node.end_lineno)
                       for at, line, name in found)]


def test_the_own_def_guard_skips_self_references_and_docstrings_and_reads_strings(tmp_path):
    for d in CALLER_DIRS:
        (tmp_path / d).mkdir()
    (tmp_path / "src" / "litrel").mkdir()
    (tmp_path / "src" / "litrel" / "m.py").write_text(
        'def walk(n):\n    return walk(n - 1) if n else 0\n\n'
        'def named():\n    pass\n\n'
        'def documented():\n    """Not named() or walk()."""\n')
    assert referenced_only_by_their_own_def(tmp_path) == ["m.walk", "m.named", "m.documented"]
    (tmp_path / "pipebench" / "spans.py").write_text('WRAPS = ["m.named"]\nwalk(3)\n')
    assert referenced_only_by_their_own_def(tmp_path) == ["m.documented"]


def test_every_function_has_a_reference_outside_its_own_def():
    alone = referenced_only_by_their_own_def(ROOT)
    assert alone == [], f"functions with no reference in src/, scripts/ or pipebench/ but their own def: {alone}"


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


def defaulted_parameters(path):
    """``(function, parameter, position)`` of every defaulted parameter; keyword-only ones have no position.

    A method's position counts from its first argument after ``self``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and "staticmethod" not in (getattr(d, "id", None) for d in node.decorator_list)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][id(node) in methods:]
            first = len(positional) - len(args.defaults)
            for position, name in enumerate(positional[first:], first):
                yield node.name, name, position
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def calls_by_name(paths):
    """Every call, under the name it calls: ``f(...)`` and ``x.f(...)`` both under ``f``."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def passes(call, parameter, position):
    """Whether ``call`` passes ``parameter``; a ``*args`` or ``**kwargs`` call may, so it counts."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return (position is not None and len(call.args) > position) or parameter in (k.arg for k in call.keywords)


def defaults_every_caller_passes(root):
    calls = calls_by_name(p for d in CALLER_DIRS for p in (root / d).rglob("*.py"))
    return [f"{path.stem}.{function}({parameter})"
            for path in sorted((root / "src" / "litrel").glob("*.py"))
            for function, parameter, position in defaulted_parameters(path)
            if calls.get(function) and all(passes(c, parameter, position) for c in calls[function])]


def test_the_default_guard_counts_positional_keyword_and_star_calls(tmp_path):
    (tmp_path / "src" / "litrel").mkdir(parents=True)
    (tmp_path / "src" / "litrel" / "m.py").write_text(
        "class C:\n    def f(self, a, b=1, *, c=2):\n        pass\n\n"
        "def g(a, b=1):\n    pass\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "pipebench").mkdir()
    user = tmp_path / "scripts" / "user.py"
    user.write_text("C().f(0, 1, c=2)\nC().f(*xs, **kw)\ng(0, b=1)\n")
    assert sorted(defaults_every_caller_passes(tmp_path)) == ["m.f(b)", "m.f(c)", "m.g(b)"]
    user.write_text("C().f(0, c=2)\ng(0, 1)\ng(0)\n")
    assert defaults_every_caller_passes(tmp_path) == ["m.f(c)"]


def test_no_default_is_passed_by_every_caller():
    passed = defaults_every_caller_passes(ROOT)
    assert passed == [], f"defaults that every call outside tests/ passes, so only tests take them: {passed}"


def lane_builds(path):
    """``path:line: name`` of each ``SimilarityBlocks``/``GradientBlocks`` call and ``MODELS`` subscript."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            target, names = node.func, ("SimilarityBlocks", "GradientBlocks")
        elif isinstance(node, ast.Subscript):
            target, names = node.value, ("MODELS",)
        else:
            continue
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name in names:
            found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_the_lane_guard_finds_constructions_and_model_lookups(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from litrel.scoring import MODELS, SimilarityBlocks\n"
                      "SimilarityBlocks(None, e)\nscoring.GradientBlocks(2, e)\nMODELS[kind]()\n"
                      "scoring.lanes(scoring.SimilarityBlocks, kind, tables)\ntuple(scoring.MODELS)\n")
    assert lane_builds(module) == ["m.py:2: SimilarityBlocks", "m.py:3: GradientBlocks", "m.py:4: MODELS"]


def test_only_scoring_builds_lanes():
    found = [entry for path in sorted((ROOT / "src" / "litrel").glob("*.py")) if path.name != "scoring.py"
             for entry in lane_builds(path)]
    assert found == [], f"kernels or scoring models built outside scoring.lanes: {found}"


def conversions(path):
    """``path:line: call`` of each ``np.asarray`` call and each ``np.ascontiguousarray`` of its function's parameter."""
    found = []
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = function.args
        parameters = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        for node in ast.walk(function):
            name = isinstance(node, ast.Call) and getattr(node.func, "attr", None)
            if name == "asarray" or (name == "ascontiguousarray" and node.args
                                     and getattr(node.args[0], "id", None) in parameters):
                found.append(f"{path.name}:{node.lineno}: {name}")
    return sorted(set(found))


def test_the_conversion_guard_finds_asarray_and_contiguous_copies_of_parameters(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(a, *, b):\n    return np.asarray(a)\n\n"
                      "def g(a, b):\n    c = np.ascontiguousarray(b)\n    return np.ascontiguousarray(a.T), c\n\n"
                      "def h(a):\n    c = a + 1\n    return np.ascontiguousarray(c)\n")
    assert conversions(module) == ["m.py:2: asarray", "m.py:5: ascontiguousarray"]


def test_inputs_are_converted_where_they_are_loaded():
    found = [entry for path in sorted((ROOT / "src" / "litrel").glob("*.py")) for entry in conversions(path)]
    assert found == [], f"per-call conversions of arrays that their loaders already convert: {found}"
