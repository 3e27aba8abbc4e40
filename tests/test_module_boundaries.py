"""Structure guards on the package's import graph, read from the source AST.

The package shows imbalance in two independent ways: forced closed forms
(``payments``, ``witness``) and exact elimination (``feasibility``).  The
elimination route may build on the shared value types and rules only,
the forced route never reaches into elimination, and ``cli`` reaches the
forced route only through ``witness``.  Every module other than
``__init__`` also uses each name it imports, so a name moved to another
module leaves no stale import behind, and each private module-level
function or class is referenced somewhere in the package, so a helper
whose last caller is gone is deleted with it.
"""

import ast
from pathlib import Path

import pytest

import imbalance

PACKAGE = Path(imbalance.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, relatively or by full name."""
    out = set()
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "imbalance":
                parts = node.module.split(".")
                out.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "imbalance" and len(parts) > 1:
                    out.add(parts[1])
    return out


def test_modules_are_found():
    assert {"bids", "feasibility", "payments", "rationals", "rules", "witness"} <= set(MODULES)


def test_elimination_builds_on_value_types_and_rules_only():
    assert package_imports("feasibility") <= {"bids", "rationals", "rules"}


@pytest.mark.parametrize("module", ["payments", "witness"])
def test_forced_route_never_imports_elimination(module):
    assert "feasibility" not in package_imports(module)


def test_cli_reaches_the_forced_route_only_through_witness():
    assert "payments" not in package_imports("cli")


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    module_tree = tree(module)
    bound = {}
    for node in ast.walk(module_tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(module_tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in bound.items() if name not in used} == {}


def private_helpers(module: str) -> list[str]:
    """The module-level functions and classes of ``module`` named ``_name``."""
    return [node.name for node in tree(module).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def test_private_helpers_are_found():
    assert "_certificate" in private_helpers("feasibility")


@pytest.mark.parametrize("module", MODULES)
def test_every_private_helper_is_referenced(module):
    referenced = set()
    for other in [*MODULES, "__init__"]:
        for node in ast.walk(tree(other)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert [name for name in private_helpers(module) if name not in referenced] == []
