"""The package's import layers: each module imports only modules below it."""

import ast
from pathlib import Path

import capable2

# bottom up; a module may import only modules of an earlier layer
LAYERS = [
    {"hall_core", "errors"},
    {"lattice", "group"},
    {"oracle"},
    {"class2"},
    {"nilprod"},
    {"capability"},
    {"cli"},
]
# the referees see group laws only, never a model's structural shortcuts
ORACLE_IMPORTS = {"errors", "group", "hall_core"}

PACKAGE = Path(capable2.__file__).parent


def relative_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, from its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, (module, ast.dump(node))
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("capable2") for a in node.names), module
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set().union(*LAYERS)


def test_modules_import_only_lower_layers():
    below = set()
    for layer in LAYERS:
        for module in sorted(layer):
            assert relative_imports(module) <= below, module
        below |= layer


def test_oracle_imports_no_structure():
    assert relative_imports("oracle") <= ORACLE_IMPORTS
