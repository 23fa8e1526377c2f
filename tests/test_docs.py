"""The README library tour and the demos run against the current API, and
every code reference in the docstrings and the README names something that
exists."""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.S)
    assert tour, "README has no python block under 'Library tour'"
    proc = _run(["-c", tour.group(1)])
    assert proc.returncode == 0, proc.stderr


def test_all_four_demos_present():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr


PACKAGE = ROOT / "src" / "eurqsi"
ROLE = re.compile(r":(?:func|meth|class|attr|mod):`~?([\w.]+)`")


def _modules():
    """Each source file of the package, imported: {stem: module}."""
    names = {p.stem: "eurqsi" if p.stem == "__init__" else f"eurqsi.{p.stem}"
             for p in sorted(PACKAGE.glob("*.py"))}
    return {stem: importlib.import_module(name) for stem, name in names.items()}


def _lookup(base, dotted):
    """``base.a.b...`` for ``dotted = "a.b..."``, or None where a link is missing."""
    for part in dotted.split("."):
        base = getattr(base, part, None)
        if base is None:
            return None
    return base


def _docstring_roles(path):
    """(enclosing class name or None, role target) of every Sphinx role in
    the docstrings of one source file."""
    def walk(node, cls):
        # a class's own docstring is inside it
        cls = node.name if isinstance(node, ast.ClassDef) else cls
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            for target in ROLE.findall(ast.get_docstring(node) or ""):
                yield cls, target
        for child in ast.iter_child_nodes(node):
            yield from walk(child, cls)

    return list(walk(ast.parse(path.read_text()), None))


def test_every_docstring_role_resolves():
    modules = _modules()
    seen, stale = 0, []
    for stem, module in modules.items():
        for cls, target in _docstring_roles(PACKAGE / f"{stem}.py"):
            seen += 1
            # absolute, then relative to the module, then to the enclosing class
            tries = [(module, target)]
            if target.startswith("eurqsi."):
                tries.insert(0, (modules["__init__"], target.removeprefix("eurqsi.")))
            if cls:
                tries.append((getattr(module, cls), target))
            if all(_lookup(base, name) is None for base, name in tries):
                stale.append(f"{module.__name__}: {target}")
    assert seen and stale == []


def _package_names(modules):
    """Every attribute of a package module and of a class defined in the
    package, dataclass and NamedTuple fields included."""
    names = set()
    for module in modules.values():
        names.update(dir(module))
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__.startswith("eurqsi"):
                names.update(dir(cls))
                if dataclasses.is_dataclass(cls):
                    names.update(f.name for f in dataclasses.fields(cls))
    return names


def test_every_bare_private_name_exists():
    # `_name` in the README and ``_name`` in a docstring name no module or
    # class, so neither the role test nor the dotted-reference test sees them
    modules = _modules()
    refs = re.findall(r"`(_\w+)`", (ROOT / "README.md").read_text())
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                refs += re.findall(r"``(_\w+)``", ast.get_docstring(node) or "")
    assert refs
    assert sorted(set(refs) - _package_names(modules)) == []


def test_every_dotted_readme_reference_resolves():
    # `module._name` or `Class.attr`, the first part a module or a public name
    modules = _modules()
    package = modules["__init__"]
    refs = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", (ROOT / "README.md").read_text())
    ours = [r for r in refs if r.split(".")[0] in modules or hasattr(package, r.split(".")[0])]
    assert ours
    assert [r for r in ours if _lookup(package, r) is None] == []
