"""The package's public names are the ones its own code uses.

A name in a module's ``__all__`` that no code in ``src/mlmsa/`` refers to,
outside its own definition, serves tests only; such references belong in
``tests/reference.py``.  A module-level private function or class that no
package code refers to is dead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mlmsa"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _public(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in stmt.targets):
            return ast.literal_eval(stmt.value)
    return []


def _loaded(stmt):
    """The names a statement loads, reads as attributes or imports a module by."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module.rpartition(".")[2]


def _own_definition(stmt, name):
    return isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == name


def test_every_public_name_is_used_by_the_package():
    unused = [f"{module}.{name}" for module, tree in sorted(TREES.items())
              for name in _public(tree)
              if not any(name in _loaded(stmt) for other, other_tree in TREES.items()
                         for stmt in other_tree.body
                         if not (other == module and _own_definition(stmt, name)))]
    assert unused == []


def test_every_private_function_and_class_is_used_by_the_package():
    # the _cmd_<subcommand> handlers are looked up by name in cli._DISPATCH
    unused = [f"{module}.{stmt.name}" for module, tree in sorted(TREES.items())
              for stmt in tree.body
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and stmt.name.startswith("_") and not stmt.name.startswith(("__", "_cmd_"))
              and not any(stmt.name in _loaded(other) for other_tree in TREES.values()
                          for other in other_tree.body if other is not stmt)]
    assert unused == []
