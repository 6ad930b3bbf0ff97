"""Reach guard: every public definition in the library is named where the commands or criteria look.

This is a name check, not a proof of use.  A definition passes when its name
appears as an ``ast.Name``, an ``ast.Attribute`` or a ``from ... import`` name
anywhere in the ``src/skelsig`` modules (``__init__.py`` aside, which holds
only the version) or in ``tests/test_acceptance.py``, so a method whose
name is shared with a live method or a local variable passes too.  What it
catches is a public function, class, method or property that nothing in the
library and no criterion mentions at all: such code belongs in
``tests/oracles.py`` or nowhere.  In the same sources, every keyword-only
parameter of a library function must be passed by name at some call of that
function's name; one that never is only ever takes its default.  The same
name check holds ``tests/oracles.py`` to the test files: each public
definition there must be named by a ``tests/test_*.py`` file or by another
oracle, so deleting a test cannot leave its reference behind.  Within each
``tests/test_*.py`` module, every top-level helper (a function, class or
assigned name that pytest does not collect) must be named by another
top-level statement of that module, so no strategy or transform outlives
the tests that used it.
"""

from __future__ import annotations

import ast
import re
from itertools import chain
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skelsig"


def _script_targets() -> set[str]:
    """Function names of the ``[project.scripts]`` entry points, read by regex (no tomllib on 3.10)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n?)*)", text, re.M)
    assert section, "pyproject.toml has no [project.scripts] table"
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', section.group(1)))


def _public_definitions(tree: ast.Module) -> list[str]:
    """Public top-level functions and classes, and the public methods and properties of those classes."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found.extend(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )
    return found


def _parsed_sources() -> tuple[list[Path], dict[Path, ast.Module]]:
    """The library modules, and the syntax trees of those modules and of the criteria."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    sources = modules + [ROOT / "tests" / "test_acceptance.py"]
    return modules, {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def _named(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_is_named_by_the_library_or_a_criterion():
    modules, trees = _parsed_sources()
    named = set().union(*(_named(tree) for tree in trees.values()))
    allowed = _script_targets()
    assert allowed == {"console_main"}
    unreached = [
        f"{path.stem}.{qualname}"
        for path, tree in trees.items()
        if path in modules
        for qualname in _public_definitions(tree)
        if qualname.rpartition(".")[2] not in named | allowed
    ]
    assert unreached == []


def _orphans(body: list[ast.stmt], defined, named: set[str]) -> list[str]:
    """What ``defined`` finds in each statement of ``body`` that neither ``named`` nor
    another statement of ``body`` names."""
    per_node = [_named(node) for node in body]
    return [
        qualname
        for i, node in enumerate(body)
        for qualname in defined(node)
        if qualname.rpartition(".")[2]
        not in named.union(*(names for j, names in enumerate(per_node) if j != i))
    ]


def test_every_oracle_is_named_by_a_test_or_another_oracle():
    tests = ROOT / "tests"
    named = set().union(
        *(_named(ast.parse(path.read_text(encoding="utf-8"))) for path in tests.glob("test_*.py"))
    )
    body = ast.parse((tests / "oracles.py").read_text(encoding="utf-8")).body
    orphans = _orphans(body, lambda node: _public_definitions(ast.Module([node], [])), named)
    assert orphans == []


def _helpers(node: ast.stmt) -> list[str]:
    """The functions, classes and names a top-level statement defines, tests aside."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    else:
        names = [n.id for n in ast.walk(node)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return [name for name in names if not name.startswith(("test_", "Test"))]


def test_every_test_helper_is_named_by_another_statement_of_its_module():
    orphans = [
        f"{path.stem}.{name}"
        for path in sorted((ROOT / "tests").glob("test_*.py"))
        for name in _orphans(ast.parse(path.read_text(encoding="utf-8")).body, _helpers, set())
    ]
    assert orphans == []


def _keywords_passed(trees: Iterable[ast.AST]) -> dict[str, set[str]]:
    """For each name called as ``f(...)`` or ``x.f(...)``, the keywords passed at those calls."""
    passed: dict[str, set[str]] = {}
    for node in chain.from_iterable(map(ast.walk, trees)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                passed.setdefault(name, set()).update(kw.arg for kw in node.keywords if kw.arg)
    return passed


def test_every_keyword_only_parameter_is_passed_by_name():
    modules, trees = _parsed_sources()
    passed = _keywords_passed(trees.values())
    unpassed = [
        f"{path.stem}.{node.name}({arg.arg}=)"
        for path in modules
        for node in ast.walk(trees[path])
        if isinstance(node, ast.FunctionDef)
        for arg in node.args.kwonlyargs
        if arg.arg not in passed.get(node.name, ())
    ]
    assert unpassed == []


def test_package_namespace_holds_only_the_version():
    body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert len(body) == 2
    docstring, assignment = body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert isinstance(assignment, ast.Assign)
    assert [t.id for t in assignment.targets] == ["__version__"]
