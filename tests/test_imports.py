"""Import hygiene of the package, read from its source with ``ast``.

No module imports another module's private (``_``-prefixed) names, no
module imports a name it never uses, and every private name a module binds
at its top level is used in it. The package ``__init__`` is exempt from the
second rule: its imports are the package's public interface.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entbroadcast"
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
