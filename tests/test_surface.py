"""The package's public surface has no dead entry points.

Every public module-level function and every public method in
``src/doublerep`` is either named somewhere in the package's own code or
exported in ``doublerep.__all__``.  A public function that only tests call is
a second way to reach a computation the package already reaches another way;
tests compare against references kept under ``tests/`` instead.  Names are
matched bare, so a method is not caught when another class has a method of
the same name.
"""

import ast
from pathlib import Path

import doublerep

SRC = Path(doublerep.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _public_definitions(tree):
    """(qualified name, bare name) of each public module-level function and
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def _names_used(tree):
    """Every name and attribute that an expression of the tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_function_is_used_or_exported():
    trees = _trees()
    defined = {q for tree in trees.values() for q, _ in _public_definitions(tree)}
    assert {"hom_space", "pairing_rank", "Mat.cols", "Echelon.add"} <= defined
    used = {name for tree in trees.values() for name in _names_used(tree)}
    exported = set(doublerep.__all__)
    dead = [f"{module}:{qualified}" for module, tree in trees.items()
            for qualified, name in _public_definitions(tree)
            if name not in used and name not in exported]
    assert not dead, f"public but neither used in src nor exported: {dead}"
