"""Source checks that stand in for a linter and for a traced benchmark run.

No module of the package imports a name it never uses, and every function
that ``perfbench/layers.py`` names in a ``Target(module, "attr")`` still
exists, so deleting API cannot silently break a traced benchmark run. Every
name in ``rwmm.__all__`` resolves, every ``rwmm`` command in the README's
code blocks parses, and each README config loads and sets every key of its
config class, so the documented API, CLI and configs cannot drift from the
code. The checks read the files and edit nothing.
"""

import ast
import dataclasses
import importlib
import re
import shlex
from pathlib import Path as FilePath

import pytest

import rwmm
from rwmm.cli import build_parser
from rwmm.config import (
    ContinuousConfig,
    DiscreteConfig,
    load_continuous_config,
    load_discrete_config,
)

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


def test_public_names_resolve():
    assert rwmm.__all__
    assert [name for name in rwmm.__all__ if not hasattr(rwmm, name)] == []


def _readme_commands() -> list[str]:
    """Each line of the README's code blocks that runs ``rwmm``."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    return [
        line.strip()
        for block in blocks
        for line in block.splitlines()
        if line.strip().startswith("rwmm ")
    ]


def test_readme_lists_commands():
    assert len(_readme_commands()) >= 5


@pytest.mark.parametrize("command", _readme_commands(), ids=lambda command: command.split()[1])
def test_readme_command_parses(command):
    # optional arguments are shown in brackets; parse them as given
    argv = shlex.split(command.replace("[", "").replace("]", ""))[1:]
    build_parser().parse_args(argv)


def _readme_configs() -> dict[str, str]:
    """Each ``ini`` block of the README, keyed by the file name on its first line."""
    text = (ROOT / "README.md").read_text()
    return dict(re.findall(r"^```ini\n# (\S+)\n(.*?)^```", text, re.M | re.S))


@pytest.mark.parametrize(
    "name, load, config",
    [
        ("discrete.cfg", load_discrete_config, DiscreteConfig),
        ("continuous.cfg", load_continuous_config, ContinuousConfig),
    ],
    ids=["discrete", "continuous"],
)
def test_readme_config_sets_every_key(name, load, config):
    text = _readme_configs()[name]
    load(text)
    lines = (line.split("#", 1)[0] for line in text.splitlines())
    set_keys = {line.split("=", 1)[0].strip() for line in lines if "=" in line}
    keys = {field.name for field in dataclasses.fields(config) if "parse" in field.metadata}
    assert set_keys == keys
