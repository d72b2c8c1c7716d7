"""Every public function and class of the package has a caller inside it.

The CLI is the package's one entry point, so a public name that no module
of src/priorcast names or imports is API that only tests use. Oracles and
reference code of that kind belong in tests/ instead.
"""

import ast
from pathlib import Path

import priorcast

PACKAGE = Path(priorcast.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def _public_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_has_a_caller_in_the_package():
    modules = _modules()
    used = set().union(*map(_referenced, modules.values()))
    unused = sorted(f"{module}.{name}" for module, tree in modules.items()
                    for name in _public_definitions(tree) if name not in used)
    assert unused == []
