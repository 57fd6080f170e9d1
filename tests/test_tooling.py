"""Source checks that stand in for a linter and for a traced benchmark run.

No module of the package imports a name it never uses, no module but
``geometry`` does cell-id arithmetic with a grid's width, ``processes``,
``cli`` and ``continuous`` do not import ``Cell``, no module takes
``hypot`` from numpy, only ``geometry`` calls ``rwmm.geometry.Path``, only
``_sample_legs`` calls the leg interpolation, only ``_node_counts`` calls
``bincount`` in ``analysis``, the package subtracts a leg's start point from its end point in one function, ``io`` spells a number with the ``.6f`` format spec in one
function, and every function
that ``perfbench/layers.py`` names in a ``Target(module, "attr")``, every
``rwmm`` module attribute that ``perfbench/workload.py`` reads and every
``alphabet.<name>`` either reads still exists, so deleting API cannot
silently turn benchmark steps into failed operations, a tiny continuous
run and a ``verify-channel`` run traced through those targets count the legs
and the cylinders they handled, and the benchmark's closed form of a path
cylinder equals ``path_process_prob`` on ``walk-exact`` events, so a change
of representation cannot break the benchmark's hooks or its exact step.
Every name in ``rwmm.__all__`` resolves, the README's python quick start
runs, every ``rwmm`` command in the README's code blocks parses, and each
README config loads and sets every key of its config class, so the
documented API, CLI and configs cannot drift from the code. A fresh
interpreter runs ``analyze`` without importing ``numpy.ma``. Every command
with ``--out`` refuses an ``--out`` that names one of its input files, so
a new command cannot skip the out-check. The checks read the files and edit
nothing.
"""

import argparse
import ast
import dataclasses
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path as FilePath
from types import SimpleNamespace

import pytest

import rwmm
from rwmm import cli, processes
from rwmm.cli import build_parser
from rwmm.config import (
    ContinuousConfig,
    DiscreteConfig,
    load_continuous_config,
    load_discrete_config,
)
from rwmm.continuous import simulate_continuous
from rwmm.geometry import GridSpec, build_alphabet

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


# arithmetic of a cell id with the grid's width: `% width`, `// width`,
# `* width`, `*= width`, `width +` or `width *`
WIDTH_ARITHMETIC = re.compile(r"(%|//|\*=?)\s*[\w.]*width\b|width\s*(\+|\*)")


@pytest.mark.parametrize("name", ["processes", "cli", "continuous"])
def test_cells_are_ids_below_the_api(name):
    # a Cell is what a user names; these modules take and pass cell ids
    tree = ast.parse((ROOT / "src" / "rwmm" / f"{name}.py").read_text())
    assert "Cell" not in _imported(tree)


def test_cell_layout_is_stated_once():
    # the row-major cell layout lives in GridSpec: other modules convert
    # through GridSpec.xy and GridSpec.ids
    sites = [
        f"{module.name}:{number}: {line.strip()}"
        for module in PACKAGE
        if module.name != "geometry.py"
        for number, line in enumerate(module.read_text().splitlines(), start=1)
        if WIDTH_ARITHMETIC.search(line)
    ]
    assert sites == []


# the columns of a leg table's start and end points
START_POINT, END_POINT = {"X0", "Y0", "_FROM"}, {"X1", "Y1", "_TO"}


def _leg_displacements(tree: ast.Module) -> list[str]:
    """The functions that subtract a leg's start point from its end point.

    An operand counts as a point when it names a point column, itself or
    through a name that the function binds, by assignment or in a loop, to
    an expression that does.
    """
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        bound: dict[str, set[str]] = {}  # name -> the point columns it stands for

        def columns(node: ast.AST) -> set[str]:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            via = set().union(*(bound.get(name, ()) for name in names))
            return (names | via) & (START_POINT | END_POINT)

        bindings = []  # (target, value)
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                bindings += [(target, node.value) for target in node.targets]
            elif isinstance(node, ast.For):
                bindings.append((node.target, node.iter))
        for _ in bindings:  # enough rounds for a name to reach the last binding
            for target, value in bindings:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        bound[name.id] = bound.get(name.id, set()) | columns(value)
        if any(
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and columns(node.left) & END_POINT
            and columns(node.right) & START_POINT
            for node in ast.walk(function)
        ):
            found.append(function.name)
    return found


def test_position_formula_is_stated_once():
    # x1 - x0 of x0 + a * (x1 - x0) lives in _displacement, which the
    # interpolation and the trace's end-point rule both call, so that they
    # cannot drift apart: no module of the package restates it
    sites = [
        (module.name, function)
        for module in PACKAGE
        for function in _leg_displacements(ast.parse(module.read_text()))
    ]
    assert sites == [("continuous.py", "_displacement")]


def _format_spec_sites(tree: ast.Module, spec: str) -> list[str]:
    """The functions, in source order, with a string holding the format spec ``spec``.

    A ``format`` spec, an f-string's spec and a ``%`` template all count;
    docstrings do not. Code outside every function counts as ``<module>``.
    """
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Constant)
                and isinstance(child.value, str)
                and spec in child.value
                and id(child) not in docstrings
            ):
                found.append(owner)
            functions = (ast.FunctionDef, ast.AsyncFunctionDef)
            visit(child, child.name if isinstance(child, functions) else owner)

    visit(tree, "<module>")
    return found


def test_fixed_format_is_stated_once():
    # the ns-2 script's numbers are spelled by _fixed_words from the digit
    # tables, and format only spells what the tables cannot: a per-line or
    # per-value formatter cannot creep back beside it
    source = (ROOT / "src" / "rwmm" / "io.py").read_text()
    assert _format_spec_sites(ast.parse(source), ".6f") == ["_fixed_words"]


def test_trace_format_is_stated_once():
    # trace and report numbers read as %.9g spells them: _format_float is
    # the one place that spells it, and the trace speller's format
    # fallback goes through it, so a second spelling cannot drift apart
    source = (ROOT / "src" / "rwmm" / "io.py").read_text()
    assert _format_spec_sites(ast.parse(source), ".9g") == ["_format_float"]


def test_fixed_format_is_found():
    # a format spec, an f-string's spec, a % template and a str.format
    # template, nested or at module level; docstrings are not code
    source = '''
"""Numbers read as %.6f spells them."""
HEADER = "%.6f" % 1.0

def spec(v):
    """Spelled as format(v, ".6f")."""
    return format(v, ".6f")

def lines(rows):
    def line(x, y):
        return f"{x:.6f} {y}"
    return [line(*row) for row in rows]

def method(v):
    return "{:.6f}".format(v)
'''
    assert _format_spec_sites(ast.parse(source), ".6f") == ["<module>", "spec", "line", "method"]


def test_leg_displacement_is_found():
    # the columns subtracted directly, through unpacked names, and through
    # loop names
    source = """
def direct(legs):
    return legs[:, X1] - legs[:, X0]

def unpacked(rows):
    p0, p1 = rows[:, _FROM], rows[:, _TO]
    out = p1 - p0

def looped(legs):
    for x0, x1 in ((X0, X1), (Y0, Y1)):
        p = legs[:, x1] - legs[:, x0]

def backwards(legs):
    return legs[:, X0] - legs[:, X1] + legs[:, Y1]
"""
    assert _leg_displacements(ast.parse(source)) == ["direct", "unpacked", "looped"]


def _numpy_hypot_sites(tree: ast.Module) -> list[int]:
    """The lines that read ``hypot`` from numpy: ``np.hypot``, ``numpy.hypot``, an import."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "hypot"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )
        or (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("numpy")
            and any(alias.name == "hypot" for alias in node.names)
        )
    ]


@pytest.mark.parametrize("module", PACKAGE, ids=lambda path: path.name)
def test_travel_times_use_math_hypot(module):
    # np.hypot differs from math.hypot in the last bit on 12,079 of 2e6
    # uniform pairs in [-1000, 1000]^2, which would change the leg tables
    # and every position pin
    assert _numpy_hypot_sites(ast.parse(module.read_text())) == []


def test_numpy_hypot_is_found():
    tree = ast.parse("import numpy as np\nfrom numpy import hypot\nd = np.hypot(1, 2)\n")
    assert _numpy_hypot_sites(tree) == [2, 3]


def _path_calls(tree: ast.Module, defines: bool = False) -> list[str]:
    """The functions and methods, in source order, that call ``rwmm.geometry.Path``.

    The class is called by a name that ``from .geometry import Path`` (or
    ``from rwmm.geometry``) binds, as ``geometry.Path`` through a name that
    ``from . import geometry`` (or ``from rwmm``) binds, or, in the module
    that ``defines`` it, by its own name. ``pathlib.Path`` does not count.
    """
    names, modules = {"Path"} if defines else set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if source in (".geometry", "rwmm.geometry") and alias.name == "Path":
                    names.add(alias.asname or alias.name)
                elif source in (".", "rwmm") and alias.name == "geometry":
                    modules.add(alias.asname or alias.name)
    return _call_owners(
        tree,
        lambda func: (isinstance(func, ast.Name) and func.id in names)
        or (
            isinstance(func, ast.Attribute)
            and func.attr == "Path"
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ),
    )


def _call_owners(tree: ast.Module, calls) -> list[str]:
    """The functions and methods, in source order, with a call whose callee ``calls`` accepts."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and calls(child.func):
                found.append(owner)
            scopes = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            visit(child, f"{owner}.{child.name}".lstrip(".") if isinstance(child, scopes) else owner)

    visit(tree, "")
    return found


def test_only_geometry_builds_a_path():
    # the alphabet's id view is the one place that makes a Path: the
    # continuous bridge emits cell ids, as the discrete model does
    sites = [
        (module.name, function)
        for module in PACKAGE
        for function in _path_calls(ast.parse(module.read_text()), module.name == "geometry.py")
    ]
    assert sites == [("geometry.py", "_PathMapping.__getitem__")]


def test_one_continuous_sampler():
    # positions, the writers and discretize all sample a leg table through
    # _sample_legs: no second sampler calls the interpolation with sample
    # counts of its own
    def interpolates(func):
        return (isinstance(func, ast.Name) and func.id == "_interpolate") or (
            isinstance(func, ast.Attribute) and func.attr == "_interpolate"
        )

    sites = [
        (module.name, function)
        for module in PACKAGE
        for function in _call_owners(ast.parse(module.read_text()), interpolates)
    ]
    assert sites == [("continuous.py", "_sample_legs")]


def test_one_occupancy_count():
    # cell_time_averages and location_histogram count every node at once
    # through one helper: no second bincount counts one node's ids alone
    def bincount(func):
        return isinstance(func, ast.Attribute) and func.attr == "bincount"

    tree = ast.parse((ROOT / "src" / "rwmm" / "analysis.py").read_text())
    assert _call_owners(tree, bincount) == ["_node_counts"]


def test_path_calls_are_found():
    # an imported name, an alias, a module attribute; pathlib's Path and a
    # Path that is not called do not count
    source = """
from pathlib import Path
from . import geometry as g
from .geometry import GridSpec, Path as P

def read(name):
    return Path(name).read_text()

class Bridge:
    def legs(self, cells):
        return [P(cells), g.Path(cells)]

def annotated(path: P) -> P:
    return path
"""
    assert _path_calls(ast.parse(source)) == ["Bridge.legs", "Bridge.legs"]


def _rwmm_modules(tree: ast.Module) -> dict[str, str]:
    """Each name that a ``from rwmm import`` binds, with the module it names."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rwmm"
        for alias in node.names
    }


def _attribute_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """``(name, attr)`` for each ``name.attr`` in the tree."""
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }


def test_benchmark_targets_resolve():
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    workload = ast.parse((ROOT / "perfbench" / "workload.py").read_text())
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
    modules = _rwmm_modules(workload)
    reads = _attribute_reads(workload)
    read = {(modules[name], attr) for name, attr in reads if name in modules}
    assert {("io", "parse_ns2"), ("cli", "main")} <= read
    missing += [
        f"{module}.{attr}"
        for module, attr in read
        if not hasattr(importlib.import_module(f"rwmm.{module}"), attr)
    ]
    alphabet = build_alphabet(GridSpec(2, 2), [1])
    names = {attr for name, attr in reads | _attribute_reads(tree) if name == "alphabet"}
    assert {"all_paths", "family_id_set", "max_path_length"} <= names
    missing += [f"PathAlphabet.{name}" for name in names if not hasattr(alphabet, name)]
    assert missing == []


def test_traced_continuous_run_counts_legs(tmp_path, monkeypatch):
    # perfbench's modules import each other by bare name, as its scripts run them
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    text = (
        "area_width = 100\narea_height = 100\nmin_speed = 1\nmax_speed = 5\n"
        "pause_time = 2\nnodes = 2\nduration = 60\ntime_step = 1\n"
    )
    config = tmp_path / "c.cfg"
    config.write_text(text)
    common = ["--config", str(config), "--seed", "3", "--out"]
    tracer = layers.tracer()
    with tracer.active("run"):
        assert cli.main(["simulate-continuous", *common, str(tmp_path / "p.txt")]) == 0
        assert cli.main(["export", "--format", "ns2", *common, str(tmp_path / "m.tcl")]) == 0
    cfg = load_continuous_config(text)
    trace = simulate_continuous(cfg.area(), cfg.nodes, cfg.duration, cfg.time_step, 3)
    metrics = layers.per_layer_metrics(tracer)
    # both commands simulate the run once
    assert metrics["continuous.simulate_continuous.legs"]["value"] == 2 * sum(map(len, trace.legs))
    assert metrics["continuous.simulate_continuous.samples"]["value"] == 2 * 2 * 61
    assert metrics["io.export_ns2.bytes"]["value"] == (tmp_path / "m.tcl").stat().st_size


def test_traced_verify_channel_counts_cylinders(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    workload = importlib.import_module("workload")
    config = tmp_path / "walk.cfg"
    config.write_text(workload.WORKLOADS["walk-exact"].config)
    argv = ["verify-channel", "--config", str(config), "--seed", "7", "--horizon", "3"]
    tracer = layers.tracer()
    with tracer.active("run"):
        assert cli.main(argv + ["--prefixes", "5"]) == 0
    assert "all checks passed" in capsys.readouterr().out
    metrics = layers.per_layer_metrics(tracer)
    # the hooks read the prefixes that the checks were given
    assert metrics["processes.check_channel_stationarity.cylinders"]["value"] > 0
    assert metrics["processes.channel_total_mass.cylinders"]["value"] > 0


def test_benchmark_closed_form_equals_path_process_prob(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workload = importlib.import_module("workload")
    work = workload.WORKLOADS["walk-exact"]
    cfg = load_discrete_config(work.config)
    alphabet = build_alphabet(cfg.grid(), cfg.speeds)
    spec = cfg.waypoint_spec()
    # sample_events reads a run's seed and its workload's event count
    chained = workload.sample_events(SimpleNamespace(seed=5, workload=work), spec, alphabet)
    # the same pairs reversed, from index 2: most no longer chain
    events = chained + [processes.CylinderEvent(2, e.symbols[::-1]) for e in chained]
    values = [processes.path_process_prob(spec, alphabet, event) for event in events]
    assert values == [workload.closed_form_prob(spec, alphabet, event) for event in events]
    assert all(values[: len(chained)]) and 0 in values[len(chained) :]


def test_analyze_does_not_import_numpy_ma(tmp_path):
    # the first np.unique call in a process imports numpy.ma, 10-20 ms of
    # every analyze run
    config = tmp_path / "d.cfg"
    config.write_text("grid_width = 3\ngrid_height = 3\nspeeds = 1, 2\nhorizon = 200\nnodes = 2\n")
    trace = tmp_path / "t.txt"
    common = ["--config", str(config), "--seed", "1"]
    assert cli.main(["simulate-discrete", *common, "--out", str(trace)]) == 0
    argv = ["analyze", "--trace", str(trace), *common[:2], "--out", str(tmp_path / "r.csv")]
    code = (
        "import sys\nfrom rwmm import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "r.csv").exists()


def _out_commands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand of ``cli.build_parser()`` that takes ``--out``, by name."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: parser
        for name, parser in commands.choices.items()
        if "--out" in parser._option_string_actions
    }


def test_every_out_refuses_its_inputs(tmp_path, capsys):
    # an option that takes a plain string, other than --out, names a file the
    # command reads; the out-check must refuse it as --out before anything is
    # opened, so the inputs' bytes, which no loader would take, are kept
    commands = _out_commands()
    assert sorted(commands) == ["analyze", "export", "simulate-continuous", "simulate-discrete"]
    for name, parser in commands.items():
        argv, inputs = [name], []
        for action in parser._actions:
            option = action.option_strings[-1] if action.option_strings else None
            if option in (None, "--help", "--out"):
                continue
            if action.type is None and action.choices is None:
                path = tmp_path / f"{name}{option}"
                path.write_bytes(b"not a loadable file\n")
                argv += [option, str(path)]
                inputs.append((option, path))
            elif action.required:
                argv += [option, str(action.choices[0] if action.choices else 1)]
        assert inputs, name
        for option, path in inputs:
            capsys.readouterr()
            assert cli.main(argv + ["--out", str(path)]) == 2, (name, option)
            assert f"is the {option} file" in capsys.readouterr().err, (name, option)
            assert path.read_bytes() == b"not a loadable file\n"


def test_public_names_resolve():
    assert rwmm.__all__
    assert [name for name in rwmm.__all__ if not hasattr(rwmm, name)] == []


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


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
