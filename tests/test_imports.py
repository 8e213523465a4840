"""Import hygiene of the package, read from its source with ``ast``.

No module imports another module's private (``_``-prefixed) names, no
module imports a name it never uses, and every private name a module binds
at its top level is used in it. The package ``__init__`` is exempt from the
second rule: its imports are the package's public interface. Every public
name a module binds at its top level is read somewhere under ``src/`` or
``tests/``, or listed in the README as public API. Every name the README
lists as kept public API exists in its module. No module uses
``linalg.partial_trace``, the tests' reference for the package's reductions.
The package's ``__version__`` is the version ``pyproject.toml`` declares.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entbroadcast"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    """(module, imported name, name bound here) for every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module or ".", alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.name, alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_names_across_modules(path):
    tree = ast.parse(path.read_text())
    private = [f"{mod}.{name}" for mod, name, _ in _imports(tree) if name.startswith("_")]
    assert not private, f"{path.name} imports private names {private}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [bound for _, _, bound in _imports(tree) if bound not in used]
    assert not unused, f"{path.name} never uses {unused}"


def _top_level_bindings(tree):
    """Every name bound by a statement at the top level of ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (bound for _, _, bound in _imports(node))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_module_name_is_used(path):
    tree = ast.parse(path.read_text())
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    private = {name for name in _top_level_bindings(tree)
               if name.startswith("_") and not name.startswith("__")}
    unused = sorted(private - loaded)
    assert not unused, f"{path.name} never uses {unused}"


def _readme_api():
    """(module, name) for each name in the README's "## Python API" list,
    whose items read "- `module`: `name`, `name`, ..."."""
    section = ROOT.joinpath("README.md").read_text().split("## Python API\n")[1]
    section = section.split("\n## ")[0]
    for item in re.findall(r"^- (.*(?:\n  .*)*)", section, re.MULTILINE):
        module, *names = re.findall(r"`([^`]+)`", item)
        yield from ((module, name) for name in names)


def test_readme_api_names_exist():
    listed = list(_readme_api())
    assert {module for module, _ in listed} == {"analysis", "broadcast", "cloner", "cli",
                                                "linalg"}
    missing = [f"{module}.{name}" for module, name in listed
               if not hasattr(importlib.import_module(f"entbroadcast.{module}"), name)]
    assert not missing, f"README lists {missing} as public API"


def _read_names(tree):
    """Every name ``tree`` reads: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
    yield from (name for _, name, _ in _imports(tree))


def _defined_public_names(path):
    """The public names ``path`` binds at its top level, other than by import."""
    tree = ast.parse(path.read_text())
    imported = {bound for _, _, bound in _imports(tree)}
    return {name for name in _top_level_bindings(tree)
            if not name.startswith("_") and name not in imported}


def test_every_public_module_name_is_read():
    read = {name for path in [*PACKAGE.rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py")]
            for name in _read_names(ast.parse(path.read_text()))}
    read |= {name for _, name in _readme_api()}
    unread = sorted(f"{path.stem}.{name}" for path in MODULES
                    for name in _defined_public_names(path) - read)
    assert not unread, f"nothing reads {unread}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_uses_the_reference_partial_trace(path):
    # the tests hold the package's reductions to partial_trace; a package
    # route through it would make that a check of itself
    assert "partial_trace" not in _read_names(ast.parse(path.read_text()))


def test_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads(ROOT.joinpath("pyproject.toml").read_text())["project"]
    assert importlib.import_module("entbroadcast").__version__ == project["version"]
