"""Source checks that stand in for a linter and for a traced benchmark run.

No module of the package imports a name it never uses, and every function
that ``perfbench/layers.py`` names in a ``Target(module, "attr")`` still
exists, so deleting API cannot silently break a traced benchmark run. Both
checks parse the files with ``ast`` and edit nothing.
"""

import ast
import importlib
from pathlib import Path as FilePath

import pytest

ROOT = FilePath(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "rwmm").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _named_by_strings(node: ast.AST) -> list:
    """The parts of a node whose string values name code: annotations, ``__all__``."""
    if isinstance(node, ast.arg):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    if isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    ):
        return list(node.value.elts)
    return []


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, inside string annotations and ``__all__`` too."""
    strings = [
        part.value
        for node in ast.walk(tree)
        for part in _named_by_strings(node)
        if isinstance(part, ast.Constant) and isinstance(part.value, str)
    ]
    trees = [tree, *(ast.parse(text, mode="eval") for text in strings)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", PACKAGE, ids=lambda path: path.name)
def test_no_unused_imports(module):
    tree = ast.parse(module.read_text())
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert unused == {}


def test_benchmark_targets_resolve():
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    targets = [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Target"
    ]
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"rwmm.{module}"), attr, None))
    ]
    assert missing == []
