"""Every public function, class and method of the package has a caller.

The package, ``scripts/`` and ``perfbench/`` are parsed with ``ast``; a name
counts as referenced when it appears as a name or an attribute anywhere but
inside its own definition.  Re-exports in ``__init__.py`` and the tests do
not count, so a helper whose only caller is its unit test is reported.
Methods are matched by attribute name, not by type.  Every ``__all__``
entry must name an attribute its module defines, so a deletion leaves no
stale export.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logflow"


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name, node) of public module-level functions and
    classes and of public methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _references(node: ast.AST, inside: tuple = ()):
    """(name, names of the definitions enclosing the reference)."""
    if isinstance(node, ast.Name):
        yield node.id, inside
    elif isinstance(node, ast.Attribute):
        yield node.attr, inside
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside + (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def unreferenced() -> list[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    referenced = set()
    defs = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, inside in _references(tree):
            referenced.add((name, inside))
        if path.parent == PACKAGE:
            defs += list(_definitions(tree, path.stem))
    used = {}
    for name, inside in referenced:
        used.setdefault(name, []).append(inside)
    # a reference counts unless it sits inside a definition of the same name
    return sorted(qual for qual, name, _ in defs
                  if not any(name not in inside for inside in used.get(name, [])))


def test_every_public_name_has_a_caller():
    assert unreferenced() == []



def test_every_exported_name_is_defined():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "logflow" if path.stem == "__init__" else f"logflow.{path.stem}")
        stale += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", [])
                  if not hasattr(module, name)]
    assert stale == []
