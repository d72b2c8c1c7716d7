"""Checks on the package source, parsed with ast.

Every public function and class of the package has a caller inside it:
the CLI is the package's one entry point, so a public name that no module
of src/priorcast names or imports is API that only tests use. Oracles and
reference code of that kind belong in tests/ instead.

No module raises a bare ValueError or Exception, and the CLI's main
catches none.

The encoder's forward cache holds only what backward reads.

The reference modules in tests/ (reference_*.py) are oracles for the
package's kernels, so they may take from priorcast only containers,
seeding, initialisers, pseudo_inverse and select_prior: never a step-loop
or ranking kernel, which would then be checked against itself.
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


def _top_level(tree, kind, name):
    return next(node for node in tree.body if isinstance(node, kind) and node.name == name)


# Input errors are ConfigError or FormatError, raised where the input enters;
# any other ValueError is a bug and must reach the user as one (exit 1).
_BROAD = {"ValueError", "Exception", "BaseException"}


def _is_broad(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return any(map(_is_broad, node.elts))
    return node is None or isinstance(node, ast.Name) and node.id in _BROAD


def test_no_module_raises_value_error_and_main_catches_none():
    modules = _modules()
    raised = sorted(f"{module}:{node.lineno}" for module, tree in modules.items()
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Raise) and node.exc is not None
                    and _is_broad(node.exc))
    main = _top_level(modules["cli"], ast.FunctionDef, "main")
    caught = [f"cli:{node.lineno}" for node in ast.walk(main)
              if isinstance(node, ast.ExceptHandler) and _is_broad(node.type)]
    assert raised == [] and caught == []


def test_backward_reads_every_forward_cache_field():
    encoder = _modules()["encoder"]
    fields = {node.target.id for node in _top_level(encoder, ast.ClassDef, "ForwardCache").body
              if isinstance(node, ast.AnnAssign)}
    read = {node.attr for node in ast.walk(_top_level(encoder, ast.FunctionDef, "backward"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cache"}
    assert sorted(fields - read) == []


# What tests/reference_*.py may import from priorcast
_REFERENCE_ALLOWED = {
    "EncoderParams", "PriorMatrix", "RunConfig", "ModalityData", "MultimodalDataset",
    "SynthConfig",  # containers
    "make_rng", "split_seed",  # seeding
    "init_params", "random_orthogonal",  # initialisers
    "pseudo_inverse", "select_prior",
}


def _priorcast_imports(tree):
    """Names a module imports from priorcast; a whole module counts by its name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "priorcast":
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "priorcast"]
    return names


def test_reference_modules_import_no_priorcast_kernel():
    tests = Path(__file__).parent
    found = {path.name: _priorcast_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(tests.glob("reference_*.py"))}
    assert sorted(found) == ["reference_losses.py", "reference_ranking.py",
                             "reference_synth.py", "reference_training.py"]
    assert {name: sorted(set(names) - _REFERENCE_ALLOWED)
            for name, names in found.items()} == dict.fromkeys(found, [])
