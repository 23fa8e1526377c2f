"""The package declares exactly the third-party packages it imports, and
its modules import one another in the allowed direction only."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports(package_dir: Path) -> set[str]:
    names = set()
    for path in package_dir.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {package_dir.name}


def _declared(*extras: str) -> set[str]:
    """The names of the project's dependencies and of those of ``extras``."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    deps = project["dependencies"] + [d for e in extras
                                      for d in project["optional-dependencies"][e]]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in deps}


def test_declared_dependencies_are_the_imported_ones():
    assert _third_party_imports(ROOT / "src" / "eurqsi") == _declared() == {"numpy"}


def test_the_test_extra_declares_what_the_tests_import():
    # the tests' own helper module and the package under test are no
    # third-party imports
    imported = _third_party_imports(ROOT / "tests") - {"conftest", "eurqsi"}
    assert imported == _declared("test") == {"hypothesis", "jsonschema", "numpy", "pytest",
                                             "scipy"}


def _package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports relatively."""
    return {node.module for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}


def test_the_simulator_imports_nothing_from_recovery():
    # a circuit step is a Kraus stack: the simulator needs no CP-map machinery
    assert "recovery" not in _package_imports(ROOT / "src" / "eurqsi" / "simulate.py")
