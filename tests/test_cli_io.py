"""Config parsing, trace file, and command-line behavior tests."""

import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hashlib import sha256
from itertools import count
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rwmm import continuous, errors
from rwmm import io as trace_io
from rwmm.cli import main
from rwmm.config import load_continuous_config, load_discrete_config
from rwmm.continuous import (
    DURATION,
    START,
    X0,
    X1,
    Y0,
    Y1,
    ContinuousAreaSpec,
    ContinuousTrace,
    simulate_continuous,
)
from rwmm.errors import ConfigurationError, VerificationError
from rwmm.geometry import Cell, GridSpec
from rwmm.io import (
    _fixed_words,
    _stamp_words,
    _value_columns,
    export_csv_report,
    export_ns2,
    load_locations,
    load_positions,
    parse_ns2,
    save_locations,
    save_positions,
)
from rwmm.location import JointTrace, LocationTrace

from oracles import (
    loadtxt_location_ids,
    per_line_ns2_script,
    per_row_location_body,
    per_row_position_body,
)


@st.composite
def position_columns(draw):
    """A time step > 0 and positions of 1-12 nodes x 1-20 steps, any finite floats."""
    nodes, steps = draw(st.integers(1, 12)), draw(st.integers(1, 20))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return (
        draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        draw(arrays(np.float64, (nodes, steps, 2), elements=finite)),
    )


def held_trace(time_step: float, positions: np.ndarray) -> ContinuousTrace:
    """A trace at ``positions``: each node holds still at each sample time.

    Every sample is one zero-duration leg at its time, and sampling gives
    such a leg's point exactly. A time step whose last time overflows is
    refused when the trace is made.
    """
    nodes, steps, _ = positions.shape
    legs = np.zeros((nodes, steps, 7))
    with np.errstate(over="ignore"):
        legs[..., START] = np.arange(steps) * time_step
    legs[..., [X0, Y0]] = legs[..., [X1, Y1]] = positions
    return ContinuousTrace(ContinuousAreaSpec(1, 1, 1, 1), time_step, steps, tuple(legs))


def overflows(time_step: float, steps: int) -> bool:
    """Whether the last of ``steps`` sample times ``k * time_step`` is not finite."""
    return not math.isfinite((steps - 1) * time_step)


def printed(values: np.ndarray) -> np.ndarray:
    """The values as a position trace stores them: %.9g, read back as floats."""
    return np.array([float(format(v, ".9g")) for v in values.ravel().tolist()]).reshape(
        values.shape
    )


# 11 nodes x 3 steps, so node ids reach two digits: -0.0, subnormals, and
# magnitudes where %.9g turns to exponent form (below 1e-4, from 1e9)
PINNED_POSITIONS = np.array(
    [[[-0.0, 5e-324], [2.225e-308, -9.99999999e-05], [1e9, -1.797e308]]] * 11
)


@st.composite
def location_traces(draw, max_cells=50_000, max_rows=3000):
    """Joint location traces whose node ids, steps, x and y reach several digits."""
    width = draw(st.integers(1, 1200))
    grid = GridSpec(width, draw(st.integers(1, max(1, max_cells // width))))
    nodes = draw(st.integers(1, 150))
    steps = draw(st.integers(1, max(1, max_rows // nodes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return JointTrace(grid, rng.integers(0, grid.size, (nodes, steps)))


def value_text(values) -> bytes:
    """The text ``_value_columns`` spells for ``values``, value after value."""
    (words,) = _value_columns(np.asarray(values, dtype=np.float64)[None, :, None])
    return words.tobytes().translate(None, b"\0")


def formatted(values) -> bytes:
    """``,`` and ``format(v, ".9g")`` for each value, value after value."""
    return "".join(f",{format(v, '.9g')}" for v in values).encode()


def fixed_texts(values) -> list[bytes]:
    """The text ``_fixed_words`` spells for each of ``values``."""
    words = _fixed_words(np.asarray(values, dtype=np.float64))
    return [slot.tobytes().translate(None, b"\0") for slot in words]


def fixed_formatted(values) -> list[bytes]:
    """``format(v, ".6f")`` for each of ``values``."""
    return [format(v, ".6f").encode() for v in values]


def exact_ties(exponent: int) -> list[float]:
    """Floats v = N + 1/2 units of the 9th significant digit, N in [1e8, 1e9).

    ``v * 10**(8 - exponent)`` is ``N + 1/2`` exactly when
    ``v = m * 2**(exponent - 9)`` with ``m = (2N + 1) / 5**(8 - exponent)``
    an odd integer: each such m below 2**53 gives one.
    """
    five = 5 ** (8 - exponent)
    odd = range(-(-(2 * 10**8 + 1) // five) | 1, (2 * 10**9 - 1) // five + 1, 2)
    return [math.ldexp(m, exponent - 9) for m in odd[:: max(1, len(odd) // 200)]]


DISCRETE_CFG = """\
# comment line
grid_width = 3
grid_height = 3
speeds = 1, 2
horizon = 500
nodes = 2
waypoints = iid-uniform
"""

CONTINUOUS_CFG = """\
area_width = 200
area_height = 100
min_speed = 1
max_speed = 5
duration = 30
time_step = 0.5
nodes = 2
pause_time = 0.5
"""

# The benchmark's walk-exact config: 6x6 lazy walk with six speeds.
WALK_CFG = """\
grid_width = 6
grid_height = 6
speeds = 1, 4/3, 3/2, 2, 5/2, 3
horizon = 100000
nodes = 4
waypoints = lazy-walk
"""

# Small continuous config with pauses whose output bytes are pinned below.
PINNED_CFG = """\
area_width = 200
area_height = 100
min_speed = 1
max_speed = 5
duration = 50
time_step = 0.5
nodes = 3
pause_time = 2
"""
# sha256 of its ns-2 script at seed 11
PINNED_NS2_SHA256 = "97c632dbec694b6c516b57655a442fa765544393326c69dbf9beee27cf73587d"


class TestConfigParsing:
    def test_discrete_happy_path(self):
        cfg = load_discrete_config(DISCRETE_CFG)
        assert cfg.grid_width == 3
        assert cfg.speeds == (Fraction(1), Fraction(2))
        assert cfg.nodes == 2
        assert cfg.waypoints == "iid-uniform"
        assert len(cfg.digest) == 64

    def test_defaults(self):
        cfg = load_discrete_config(
            "grid_width=2\ngrid_height=2\nspeeds=1\nhorizon=10\n"
        )
        assert cfg.nodes == 1
        assert cfg.waypoints == "iid-uniform"

    def test_lazy_walk_with_stay(self):
        cfg = load_discrete_config(
            "grid_width=2\ngrid_height=2\nspeeds=1\nhorizon=10\nwaypoints=lazy-walk:1/3\n"
        )
        assert cfg.waypoints == "lazy-walk"
        assert cfg.stay == Fraction(1, 3)
        spec = cfg.waypoint_spec()
        assert spec.denominator is not None
        assert spec.targets[0] == 0  # cell 0's first successor is itself
        assert Fraction(int(spec.weights[0]), spec.denominator) == Fraction(1, 3)

    def test_fractional_speeds(self):
        cfg = load_discrete_config(
            "grid_width=2\ngrid_height=2\nspeeds=3/2, 1\nhorizon=10\n"
        )
        assert cfg.speeds == (Fraction(1), Fraction(3, 2))

    def test_all_errors_reported_with_line_numbers(self):
        bad = "\n".join(
            [
                "grid_width = 3",  # 1
                "grid_width = 4",  # 2: duplicate
                "not a pair",  # 3: no '='
                "mystery = 1",  # 4: unknown key
                "speeds = fast",  # 5: bad value
                "horizon = 100",  # 6
            ]
        )
        with pytest.raises(ConfigurationError) as err:
            load_discrete_config(bad)
        message = str(err.value)
        assert "line 2" in message and "duplicate" in message and "line 1" in message
        assert "line 3" in message
        assert "line 4" in message and "mystery" in message
        assert "line 5" in message and "speeds" in message
        assert "grid_height" in message  # missing required key

    def test_semantic_errors(self):
        with pytest.raises(ConfigurationError) as err:
            load_discrete_config(
                "grid_width=0\ngrid_height=2\nspeeds=1\nhorizon=0\nnodes=-1\n"
            )
        message = str(err.value)
        assert "grid" in message and "horizon" in message and "nodes" in message

    @pytest.mark.parametrize(
        "load, edit, error",
        [
            (load_discrete_config, lambda cfg: cfg + "= 1\n", "line 8: empty key"),
            (
                load_discrete_config,
                lambda cfg: cfg.replace("speeds = 1, 2", "speeds = , ,"),
                "'speeds': empty speed list",
            ),
            (
                load_discrete_config,
                lambda cfg: cfg.replace("iid-uniform", "brownian"),
                "expected 'iid-uniform', 'lazy-walk', or 'lazy-walk:<stay>', got 'brownian'",
            ),
            (
                load_discrete_config,
                lambda cfg: cfg.replace("iid-uniform", "lazy-walk:3/2"),
                r"stay probability must be in \[0, 1\), got 3/2",
            ),
            (
                load_continuous_config,
                lambda cfg: cfg.replace("nodes = 2", "nodes = 0"),
                "nodes must be >= 1, got 0",
            ),
            (
                load_continuous_config,
                lambda cfg: cfg.replace("duration = 30", "duration = -1"),
                "duration and time_step must be > 0",
            ),
        ],
        ids=["empty-key", "empty-speeds", "unknown-waypoints", "stay-3/2", "nodes-0",
             "negative-duration"],
    )
    def test_refused_values(self, load, edit, error):
        text = edit(DISCRETE_CFG if load is load_discrete_config else CONTINUOUS_CFG)
        with pytest.raises(ConfigurationError, match=error):
            load(text)

    def test_continuous_happy_path(self):
        cfg = load_continuous_config(CONTINUOUS_CFG)
        assert cfg.area().pause_time == 0.5
        assert cfg.nodes == 2

    def test_continuous_range_errors_reported_together(self):
        text = (
            CONTINUOUS_CFG.replace("nodes = 2", "nodes = 0")
            .replace("min_speed = 1", "min_speed = 0")
            .replace("duration = 30", "duration = -1")
        )
        with pytest.raises(ConfigurationError) as err:
            load_continuous_config(text)
        assert str(err.value) == (
            "nodes must be >= 1, got 0; minimum speed must be > 0, got 0.0; "
            "duration and time_step must be > 0"
        )

    def test_continuous_degenerate_speed(self):
        with pytest.raises(ConfigurationError):
            load_continuous_config(CONTINUOUS_CFG.replace("min_speed = 1", "min_speed = 0"))

    def test_digest_ignores_comments_and_order(self):
        base = load_discrete_config(DISCRETE_CFG).digest
        reordered = load_discrete_config(
            "waypoints = iid-uniform\nnodes = 2\nhorizon = 500\n"
            "speeds = 1, 2\ngrid_height = 3\ngrid_width = 3\n# different comment\n"
        ).digest
        assert base == reordered
        changed = load_discrete_config(
            DISCRETE_CFG.replace("horizon = 500", "horizon = 501")
        ).digest
        assert changed != base


def resign(text):
    """A trace's text with its ``# body:`` header line set to its body's digest."""
    lines = text.splitlines(keepends=True)
    split = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    digest = sha256("".join(lines[split:]).encode()).hexdigest()
    return "".join(
        f"# body: {digest}\n" if line.startswith("# body:") else line for line in lines[:split]
    ) + "".join(lines[split:])


def rewrite_body(path, edit):
    """Apply ``edit`` to a trace's body rows (header row excluded) and re-sign the body."""
    lines = path.read_text().splitlines()
    split = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    rows = lines[split + 1 :]
    edit(rows)
    path.write_text(resign("\n".join([*lines[: split + 1], *rows]) + "\n"))


class TestTraceFiles:
    def test_locations_round_trip(self, tmp_path):
        grid = GridSpec(3, 2)
        ids = np.array([[0, 1, 5], [3, 3, 2]], dtype=np.int64)
        path = tmp_path / "t.trace"
        save_locations(path, JointTrace(grid, ids), seed=7, config_digest="ab" * 32)
        loaded, header = load_locations(path)
        assert np.array_equal(loaded.ids, ids)
        assert loaded.grid == grid
        assert header["seed"] == "7"
        assert header["config"] == "ab" * 32

    def test_single_node_round_trip(self, tmp_path):
        grid = GridSpec(2, 2)
        trace = LocationTrace(grid, np.array([0, 3, 1], dtype=np.int64))
        path = tmp_path / "s.trace"
        save_locations(path, trace)
        loaded, _ = load_locations(path)
        assert loaded.node_count == 1
        assert loaded.ids[0].tolist() == [0, 3, 1]

    def test_tamper_detected(self, tmp_path):
        grid = GridSpec(2, 2)
        path = tmp_path / "t.trace"
        save_locations(path, LocationTrace(grid, np.array([0, 3, 1])))
        text = path.read_text()
        assert "0,1,1,1" in text  # step 1 at cell (1,1)
        path.write_text(text.replace("0,1,1,1", "0,1,0,1"))
        with pytest.raises(VerificationError):
            load_locations(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text("hello\n")
        with pytest.raises(ConfigurationError):
            load_locations(path)

    def test_positions_round_trip(self, tmp_path):
        from rwmm.continuous import ContinuousAreaSpec

        area = ContinuousAreaSpec(50, 50, 1, 2)
        trace = simulate_continuous(area, 2, 10, 0.5, seed=3)
        path = tmp_path / "c.trace"
        save_positions(path, trace, seed=3, config_digest="cd" * 32)
        times, positions, header = load_positions(path)
        assert header["kind"] == "continuous-positions"
        assert np.allclose(times, trace.times)
        assert np.allclose(positions, trace.positions(range(2)), atol=1e-6)

    def test_locations_text(self, tmp_path):
        path = tmp_path / "t.trace"
        ids = np.array([[0, 1, 5], [3, 3, 2]], dtype=np.int64)
        save_locations(path, JointTrace(GridSpec(3, 2), ids))
        body = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert body == [
            "node,step,x,y",
            "0,0,0,0", "0,1,1,0", "0,2,2,1",
            "1,0,0,1", "1,1,0,1", "1,2,2,0",
        ]

    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 200),
        st.integers(0, 2**32 - 1),
    )
    def test_locations_body_matches_per_row_oracle(self, width, height, nodes, steps, seed):
        # up to 12 nodes and 12 columns, so node ids and x reach two digits
        grid = GridSpec(width, height)
        ids = np.random.default_rng(seed).integers(0, grid.size, (nodes, steps))
        joint = JointTrace(grid, ids)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "t.trace"
            save_locations(path, joint)
            lines = path.read_bytes().splitlines(keepends=True)
        split = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
        body = b"".join(lines[split:])
        expected = per_row_location_body(joint).encode()
        assert body == expected
        assert lines[split - 1] == f"# body: {sha256(expected).hexdigest()}\n".encode()

    @pytest.mark.parametrize(
        "grid",
        [GridSpec(10, 10), GridSpec(1000, 100), GridSpec(10**5, 1000)],
        ids=["1-word-labels", "2-word-labels", "3-word-labels"],
    )
    @pytest.mark.parametrize(
        "nodes, steps, block",
        [(3, 10_050, 1), (3, 10_050, 3), (3, 10_050, 2**13), (10001, 3, 2**13)],
    )
    def test_locations_body_across_blocks_matches_per_row_oracle(
        self, tmp_path, monkeypatch, grid, nodes, steps, block
    ):
        # rows cut into blocks, steps of one to five digits, node ids of one
        # to five digits, and cells whose ,x,y labels take one word (,0,0)
        # to three (,99999,999)
        rng = np.random.default_rng(3)
        ids = rng.integers(0, grid.size, (nodes, steps))
        ids[rng.random(ids.shape) < 0.5] = 0
        joint = JointTrace(grid, ids)
        monkeypatch.setattr(trace_io, "_BLOCK_ROWS", block)
        path = tmp_path / "t.trace"
        save_locations(path, joint)
        body = path.read_bytes().split(b"# body: ", 1)[1].split(b"\n", 1)[1]
        assert body == per_row_location_body(joint).encode()

    @pytest.mark.parametrize(
        "ids, error",
        [
            ([[0, -1, 2]], "cell id -1 outside"),
            ([[0, 1, 2], [3, 6, 2]], "cell id 6 outside"),
            (np.zeros((2, 0), dtype=np.int64), "empty location trace"),
        ],
        ids=["negative", "past-grid", "zero-steps"],
    )
    def test_locations_writer_refuses_unreadable_trace(self, tmp_path, ids, error):
        # each would be written as a file that load_locations misreads or refuses
        path = tmp_path / "t.trace"
        joint = JointTrace(GridSpec(3, 2), np.asarray(ids, dtype=np.int64))
        with pytest.raises(ValueError, match=error):
            save_locations(path, joint)
        assert not path.exists()

    def test_locations_writer_memory_follows_the_trace(self, tmp_path):
        # one label per cell that occurs: a label for each of this grid's
        # 4e6 cells took about 300 MB to write one row
        grid = GridSpec(2000, 2000)
        path = tmp_path / "t.trace"
        tracemalloc.start()
        try:
            save_locations(path, JointTrace(grid, np.array([[grid.size - 1]])))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert path.read_text().endswith("\nnode,step,x,y\n0,0,1999,1999\n")

    def test_locations_writer_memory_per_sample(self, tmp_path):
        # each block's text is hashed and written as it is built, so the
        # peak is the steps (8 bytes a step), their words kept for every node
        # and one block (9.4 bytes a sample measured here, 11.4 when a step
        # from 10^4 took 3 words, 18 when every node's text was held for a
        # leading digest, 58 when each node's rows were filled into per-step
        # % templates)
        grid = GridSpec(10, 10)
        joint = JointTrace(grid, np.random.default_rng(1).integers(0, grid.size, (2, 5 * 10**5)))
        path = tmp_path / "t.trace"
        tracemalloc.start()
        try:
            save_locations(path, joint)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / joint.ids.size < 13

    def test_locations_writer_memory_one_node(self, tmp_path):
        # one node's steps are spelled a run at a time as their blocks are
        # built, and never held as an array (2.0 bytes a sample measured
        # here; 21.2 with every run's words and the steps held up front)
        grid = GridSpec(10, 10)
        joint = JointTrace(grid, np.random.default_rng(3).integers(0, grid.size, (1, 2 * 10**6)))
        path = tmp_path / "t.trace"
        tracemalloc.start()
        try:
            save_locations(path, joint)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / joint.ids.size <= 8
        assert np.array_equal(load_locations(path)[0].ids, joint.ids)

    def test_locations_loader_memory_per_sample(self, tmp_path):
        # the peak is the loaded values, bounded up front by the body's size
        # (23.8 bytes a sample here, of pages mostly never touched), the int64
        # ids and one block's parser temporaries (33.0 bytes a sample measured
        # here with 256 KiB blocks; 60.0 with 1 MiB blocks)
        grid = GridSpec(10, 10)
        joint = JointTrace(grid, np.random.default_rng(1).integers(0, grid.size, (4, 10**5)))
        path = tmp_path / "t.trace"
        save_locations(path, joint)
        tracemalloc.start()
        try:
            loaded, _ = load_locations(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.ids, joint.ids)
        assert peak / joint.ids.size < 40

    @pytest.mark.parametrize(
        "nodes, steps, block",
        [(7, 40, 16), (7, 16, 16), (40, 3, 16), (5, 17, 16), (3, 50, 4), (1, 40, 16), (3, 5, 16)],
        ids=[
            "node-groups", "whole-nodes", "many-whole-nodes", "steps-past-a-block", "2-steps",
            "one-node", "one-group",
        ],
    )
    def test_locations_blocks_of_rows_match_per_row_oracle(
        self, tmp_path, monkeypatch, nodes, steps, block
    ):
        # blocks of every step of several nodes (many-whole-nodes), of every
        # step of one node (whole-nodes), and of a run of one node's steps,
        # each node's last run shorter (node-groups, steps-past-a-block, 2-steps);
        # stamps spelled as their blocks are built when one group holds every
        # node (one-node, one-group)
        grid = GridSpec(12, 11)
        ids = np.random.default_rng(nodes).integers(0, grid.size, (nodes, steps))
        joint = JointTrace(grid, ids)
        monkeypatch.setattr(trace_io, "_BLOCK_ROWS", block)
        path = tmp_path / "t.trace"
        save_locations(path, joint)
        body = path.read_bytes().split(b"# body: ", 1)[1].split(b"\n", 1)[1]
        assert body == per_row_location_body(joint).encode()

    def test_locations_writer_memory_many_nodes(self, tmp_path):
        # a block holds every step of as many nodes as fit and is translated
        # once (14.8 bytes a sample measured here, 16.4 when a step took a
        # word for its comma, 30 when every node's text was held for a
        # leading digest, 89 with one translate and one bytes part per node
        # and step)
        grid = GridSpec(10, 10)
        joint = JointTrace(grid, np.random.default_rng(2).integers(0, grid.size, (10_001, 3)))
        path = tmp_path / "t.trace"
        tracemalloc.start()
        try:
            save_locations(path, joint)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / joint.ids.size < 19
        body = path.read_bytes().split(b"# body: ", 1)[1].split(b"\n", 1)[1]
        assert body == per_row_location_body(joint).encode()

    def test_locations_sparse_cells_keep_the_sorted_lookup(self, tmp_path):
        # two opposite corners span 4e6 ids, but the labels are tables of
        # the grid's 2000 columns and 2000 rows, none the size of that span
        grid = GridSpec(2000, 2000)
        ids = np.tile([0, grid.size - 1], (2, 3))
        path = tmp_path / "t.trace"
        tracemalloc.start()
        try:
            save_locations(path, JointTrace(grid, ids))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        body = path.read_bytes().split(b"# body: ", 1)[1].split(b"\n", 1)[1]
        assert body == per_row_location_body(JointTrace(grid, ids)).encode()

    @pytest.mark.parametrize(
        "ids",
        [[[3, 6], [4, 5]], [[7, 9, 7, 9]], [[0, 99, 50, 50] * 25]],
        ids=["span-equals-samples", "gaps", "whole-grid"],
    )
    def test_locations_dense_cells_use_the_label_table(self, tmp_path, monkeypatch, ids):
        # every label is a gather from the per-column ,x and per-row ,y\n
        # tables, whatever the span of the ids: no sorted lookup
        def refuse(*args, **kwargs):
            raise AssertionError("a dense trace was looked up by searchsorted")

        joint = JointTrace(GridSpec(10, 10), np.array(ids, dtype=np.int64))
        monkeypatch.setattr(np, "searchsorted", refuse)
        path = tmp_path / "t.trace"
        save_locations(path, joint)
        monkeypatch.undo()
        body = path.read_bytes().split(b"# body: ", 1)[1].split(b"\n", 1)[1]
        assert body == per_row_location_body(joint).encode()

    def test_positions_text(self, tmp_path):
        from rwmm.continuous import ContinuousAreaSpec

        trace = simulate_continuous(ContinuousAreaSpec(50, 50, 1, 2, 1), 2, 10, 0.5, seed=3)
        path = tmp_path / "c.trace"
        save_positions(path, trace)
        body = [line for line in path.read_text().splitlines() if not line.startswith("#")]

        def g(value):
            return format(float(value), ".9g")

        assert body == ["node,time,x,y"] + [
            f"{node},{g(t)},{g(x)},{g(y)}"
            for node in range(2)
            for t, (x, y) in zip(trace.times, trace.positions([node])[0])
        ]

    def test_late_out_of_grid_cell_named(self, tmp_path):
        grid = GridSpec(3, 2)
        path = tmp_path / "t.trace"
        save_locations(path, JointTrace(grid, np.zeros((2, 50), dtype=np.int64)))

        def edit(rows):
            # node 1, steps 47 and 49 leave the grid; step 47's row comes first
            rows[97] = "1,47,3,0"
            rows[99] = "1,49,0,2"

        rewrite_body(path, edit)
        with pytest.raises(ConfigurationError, match=r"cell \(3, 0\) outside GridSpec"):
            load_locations(path)

    def _edited_locations(self, tmp_path, edit):
        # 3x2 grid, 2 nodes x 50 steps, every node at cell (0, 0); row
        # ``50 * node + step`` holds that node's step
        path = tmp_path / "t.trace"
        save_locations(path, JointTrace(GridSpec(3, 2), np.zeros((2, 50), dtype=np.int64)))
        rewrite_body(path, edit)
        return path

    @pytest.mark.parametrize(
        "row, text, error",
        [
            (53, "1,2,0,0", "node 1 is missing steps"),  # step 2 twice, step 3 never
            (53, "1,50,0,0", "node 1 is missing steps"),  # a step past the end
            (99, "0,50,0,0", "must be node-major"),  # a node 0 row among node 1's
            (99, "0,0,0,0", "must be node-major"),  # node 0's step 0 again, at the end
            (53, "1,-3,0,0", "malformed location trace row 54: b'1,-3,0,0'"),
            (5, "0,5,-1,0", "malformed location trace row 6: b'0,5,-1,0'"),
            (5, "0,5,1,2", r"cell \(1, 2\) outside GridSpec"),  # x in range, y not
            (53, "-1,3,0,0", "malformed location trace row 54: b'-1,3,0,0'"),
            (53, "1,3,0", "malformed location trace row"),
            (53, "1,3,0,x", "malformed location trace row"),
            (53, "", "malformed location trace row 54: b''"),  # a blank line
            (53, "+1,3,0,0", "malformed location trace row 54"),
            (53, " 1,3,0,0", "malformed location trace row 54"),
            (53, "1.0,3,0,0", "malformed location trace row 54"),
            (53, "--1,3,0,0", "malformed location trace row 54"),
            (53, "1-2,3,0,0", "malformed location trace row 54"),
            (53, "1,0000000003,0,0", "malformed location trace row 54"),  # 10 digits
        ],
    )
    def test_locations_reject_bad_row(self, tmp_path, row, text, error):
        def edit(rows):
            rows[row] = text

        path = self._edited_locations(tmp_path, edit)
        with pytest.raises(ConfigurationError, match=error):
            load_locations(path)

    def test_locations_reject_three_columns(self, tmp_path):
        def edit(rows):
            rows[:] = [row.rsplit(",", 1)[0] for row in rows]

        with pytest.raises(ConfigurationError, match="must have 4 columns"):
            load_locations(self._edited_locations(tmp_path, edit))

    def test_lowest_faulty_node_named_first(self, tmp_path):
        def edit(rows):
            rows[53] = "1,3,0,2"  # node 1 leaves the grid at step 3
            rows[10] = "0,10,3,0"  # node 0 leaves the grid at step 10

        with pytest.raises(ConfigurationError, match=r"cell \(3, 0\) outside GridSpec"):
            load_locations(self._edited_locations(tmp_path, edit))

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 40),
        st.randoms(use_true_random=False),
    )
    def test_locations_refuse_shuffled_rows(self, width, height, nodes, steps, rnd):
        grid = GridSpec(width, height)
        ids = np.array(
            [[rnd.randrange(grid.size) for _ in range(steps)] for _ in range(nodes)]
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "t.trace"
            save_locations(path, JointTrace(grid, ids))
            order = list(range(nodes * steps))
            rnd.shuffle(order)

            def shuffle(rows):
                rows[:] = [rows[i] for i in order]

            rewrite_body(path, shuffle)
            if order == sorted(order):
                loaded, _ = load_locations(path)
                assert np.array_equal(loaded.ids, ids)
            else:
                with pytest.raises(ConfigurationError, match="node-major|out of order"):
                    load_locations(path)

    @given(position_columns())
    @example((1e-05, PINNED_POSITIONS))
    @example((5e8, PINNED_POSITIONS))
    def test_positions_body_matches_per_row_oracle(self, columns):
        # up to 12 nodes, so node ids reach two digits; any finite float, with
        # the pinned positions and times 2e-05 and 1e9 in %.9g's exponent form
        time_step, positions = columns
        assume(not overflows(time_step, positions.shape[1]))  # else refused, as tested below
        trace = held_trace(time_step, positions)
        assert trace.positions(range(trace.node_count)).tobytes() == positions.tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "c.trace"
            save_positions(path, trace)
            lines = path.read_bytes().splitlines(keepends=True)
        split = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
        body = b"".join(lines[split:])
        expected = per_row_position_body(trace).encode()
        assert body == expected
        assert lines[split - 1] == f"# body: {sha256(expected).hexdigest()}\n".encode()

    @pytest.mark.parametrize(
        "nodes, steps, block", [(3, 20, 1), (3, 20, 3), (3, 20, 2**13), (10001, 1, 2**13)]
    )
    def test_positions_body_across_blocks_matches_per_row_oracle(
        self, tmp_path, monkeypatch, nodes, steps, block
    ):
        # rows cut into blocks, times from 2.5e-5 (in exponent form) on, and
        # node ids of one to five digits: one NUL-padded word or two
        rng = np.random.default_rng(3)
        shape = (nodes, steps, 2)
        values = [rng.uniform(0, 1000, shape), 10 ** rng.uniform(-6, 10, shape)]
        trace = held_trace(2.5e-5, np.where(rng.random(shape) < 0.5, *values))
        monkeypatch.setattr(trace_io, "_BLOCK_ROWS", block)
        path = tmp_path / "c.trace"
        save_positions(path, trace)
        body = path.read_bytes().split(b"# body: ", 1)[1].split(b"\n", 1)[1]
        assert body == per_row_position_body(trace).encode()

    @pytest.mark.parametrize(
        "whole, odd",
        [(False, 0.000123456789), (False, -12.5), (True, -1.7976931348623157e308)],
        ids=["twelfth-digit", "negative", "format-text-wider-than-column"],
    )
    def test_positions_block_with_one_odd_value_matches_per_row_oracle(
        self, tmp_path, whole, odd
    ):
        # one block of positions in [0, 1000) and one value that needs a word
        # no other value in its column needs: the 12th fraction digit of a
        # value below 1e-3, or the format text of a negative value, which
        # among whole numbers, one word each, needs four more
        rng = np.random.default_rng(4)
        positions = rng.uniform(0, 1000, (3, 40, 2))
        if whole:
            positions = np.floor(positions) + 1
        positions[1, 17, 1] = odd
        trace = held_trace(0.25, positions)
        path = tmp_path / "c.trace"
        save_positions(path, trace)
        body = path.read_bytes().split(b"# body: ", 1)[1].split(b"\n", 1)[1]
        assert body == per_row_position_body(trace).encode()
        assert f",{format(odd, '.9g')}\n".encode() in body

    def test_positions_words_per_row(self, monkeypatch):
        # node 0's first block of the continuous benchmark's trace at seed 1:
        # the node id, its time below 4096 (",ddd", or "," and 4 digits),
        # x and y in [0, 1000) (",ddd" and 2 or 3 fraction words each) and
        # the newline; 14.8 words on average when "," and "." took a word each
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
        workload = __import__("workload")
        cfg = load_continuous_config(workload.WORKLOADS["continuous"].config)
        trace = simulate_continuous(cfg.area(), cfg.nodes, cfg.duration, cfg.time_step, seed=1)
        join = trace_io._joined_rows
        widths = []

        def recorded(columns):
            widths.append(sum(column.shape[-1] for column in columns))
            return join(columns)

        monkeypatch.setattr(trace_io, "_joined_rows", recorded)
        with tempfile.TemporaryDirectory() as tmp:
            save_positions(pathlib.Path(tmp) / "c.trace", trace)
        assert widths[0] <= 10

    def test_positions_writer_memory_per_sample(self, tmp_path):
        # the writer samples one node at a time from the legs and writes each
        # block's text as it is built, so the peak is one node's positions
        # (16 bytes a step), the times (8), their words and one block: 18.0
        # bytes a sample measured here, 22.0 when each node's sampling made
        # the times again, where sampling every node first and then writing
        # peaked at 25.9 (9.7 for the writing alone, 12.5 when the comma and
        # the dot took a word each, 39 when every node's text was held for a
        # leading digest, 117 when each node's values were formatted as
        # Python floats)
        area = ContinuousAreaSpec(1000, 1000, 1, 20, 5)
        trace = simulate_continuous(area, 2, 5 * 10**5 - 1, 1.0, seed=1)
        samples = trace.node_count * trace.step_count
        path = tmp_path / "c.trace"
        tracemalloc.start()
        try:
            save_positions(path, trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert samples == 10**6
        assert peak / samples < 20

    def test_positions_writer_holds_one_node_of_ten(self, tmp_path):
        # 10 nodes x 2e5 steps: beside one node's positions, the writer holds
        # the times (8 bytes a step) and their words (8), 8 more to spare,
        # and a block's words and sampling temporaries, under 3 MB; 8.3 MB
        # measured here, 9.8 when each node's sampling made the times again,
        # where sampling every node first peaked at 37.6 MB
        area = ContinuousAreaSpec(1000, 1000, 1, 20, 5)
        steps = 2 * 10**5
        trace = simulate_continuous(area, 10, steps - 1, 1.0, seed=1)
        node_positions = 16 * steps
        bound = node_positions + 24 * steps + 3 * 2**20
        assert bound < 10 * node_positions
        tracemalloc.start()
        try:
            save_positions(tmp_path / "c.trace", trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_writers_keep_nothing_on_the_trace(self, tmp_path):
        # a trace is its legs: nothing the writers or the traffic proxy
        # sample is stored on it
        trace = simulate_continuous(ContinuousAreaSpec(50, 50, 1, 2, 1), 3, 20, 0.5, seed=3)
        fields = set(vars(trace))
        assert fields == {"area", "time_step", "step_count", "legs"}
        save_positions(tmp_path / "c.trace", trace)
        export_ns2(tmp_path / "m.tcl", trace)
        continuous.traffic_proxy(trace, [(0, 2)], bitrate=1.0, reach=10.0)
        assert set(vars(trace)) == fields

    @given(
        st.lists(st.tuples(st.floats(0, 5), *[st.floats()] * 5), min_size=1, max_size=6),
        st.integers(1, 8),
        st.floats(min_value=0.0, exclude_min=True, max_value=4.0),
    )
    @example([(1.0, 0.0, 1.7976931348623157e308, 0.0, 0.0, 1.0)], 2, 0.5)
    @example([(1.0, -1e308, 0.0, 1e308, 0.0, 1.0)], 2, 0.5)
    @example([(1.0, 0.0, 0.0, 1.0, 1.0, 1.0), (1.0, 0.0, 0.0, math.nan, 0.0, 1.0)], 1, 0.5)
    def test_legs_rule_implies_finite_positions(self, rows, steps, time_step):
        # one node's chained legs, (duration, x0, y0, x1, y1, speed) each,
        # starts summed from 0 as the simulator sums them: if the trace
        # accepts the legs, every sampled position is finite and the writer
        # writes them; if it refuses them, it names a value that is not
        # finite. The last example's NaN is in a leg that no sample reads,
        # and is refused all the same
        legs = np.zeros((len(rows), 7))
        legs[:, DURATION:] = rows
        legs[1:, START] = np.cumsum(legs[:-1, DURATION])
        try:
            trace = ContinuousTrace(ContinuousAreaSpec(1, 1, 1, 1), time_step, steps, (legs,))
        except ValueError as exc:
            assert "not finite" in str(exc)
            return
        assert np.isfinite(trace.positions([0])).all()
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "c.trace"
            save_positions(path, trace)
            assert path.is_file()

    @given(position_columns())
    @example((5e-324, PINNED_POSITIONS))
    @example((2.2e-308, PINNED_POSITIONS))
    @example((1 / 3, PINNED_POSITIONS))
    @example((1e300, PINNED_POSITIONS))
    def test_positions_written_are_read_back(self, columns):
        # the writer takes the times from the time step, so every trace it
        # writes is on the loader's time grid; only times that overflow to
        # inf are refused, when the trace is made
        time_step, positions = columns
        if overflows(time_step, positions.shape[1]):
            with pytest.raises(ValueError, match="overflow the last sample time"):
                held_trace(time_step, positions)
            return
        trace = held_trace(time_step, positions)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "c.trace"
            save_positions(path, trace)
            times, loaded, header = load_positions(path)
        assert float(header["time-step"]) == float(format(time_step, ".9g"))
        assert np.array_equal(times, printed(trace.times))
        assert np.array_equal(loaded, printed(positions))

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda text: text.replace("# grid: 3x2", "# grid 3x2"), "malformed header line 3"),
            (lambda text: re.sub(r"# body: \w+\n", "", text), "missing body digest"),
            (
                lambda text: text.replace("grid-locations", "continuous-positions"),
                "expected a grid-locations trace, got 'continuous-positions'",
            ),
            (lambda text: text.replace("# grid: 3x2", "# grid: 3x-2"), "bad grid header: '3x-2'"),
            (
                lambda text: resign(text.replace("node,step,x,y", "node,time,x,y")),
                "body must start with node,step,x,y",
            ),
            (
                lambda text: resign(text.split("node,step,x,y\n")[0] + "node,step,x,y\n"),
                "empty location trace",
            ),
            (lambda text: resign(text.removesuffix("1,49,0,0\n")), "ragged location trace"),
            (
                lambda text: resign(text.removesuffix("\n")),
                "malformed location trace row 100: b'1,49,0,0' does not end in a newline",
            ),
            (
                # every row, not the column line, ends in CRLF
                lambda text: resign(text.replace(",0\n", ",0\r\n")),
                r"malformed location trace row 1: b'0,0,0,0\\r'",
            ),
            (
                lambda text: text.replace("# grid: 3x2\n", "# grid: 3x2\n# grid: 4x2\n"),
                "duplicate header key 'grid' on line 4",
            ),
        ],
        ids=[
            "header-line", "no-digest", "kind", "grid", "columns", "empty-body", "ragged",
            "no-final-newline", "crlf-rows", "repeated-key",
        ],
    )
    def test_locations_reject_bad_file(self, tmp_path, edit, error):
        path = self._edited_locations(tmp_path, lambda rows: None)
        path.write_text(edit(path.read_text()))
        with pytest.raises(ConfigurationError, match=error):
            load_locations(path)

    def test_locations_reject_undecodable_header(self, tmp_path):
        path = self._edited_locations(tmp_path, lambda rows: None)
        path.write_bytes(path.read_bytes().replace(b"# grid: 3x2", b"# grid: 3x2\xff"))
        with pytest.raises(ConfigurationError, match="malformed header line 3"):
            load_locations(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("1,3,0,0\n", "1,3,0\n"),
            lambda text: text.replace("\n", "\r\n"),
        ],
        ids=["malformed-row", "crlf-file"],
    )
    def test_locations_unsigned_edit_fails_digest_first(self, tmp_path, edit):
        # the digest covers the bytes as stored, and is checked before any row
        path = self._edited_locations(tmp_path, lambda rows: None)
        path.write_bytes(edit(path.read_text()).encode())
        with pytest.raises(VerificationError, match="trace body digest mismatch"):
            load_locations(path)

    @given(location_traces())
    def test_locations_load_as_loadtxt_oracle(self, joint):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "t.trace"
            save_locations(path, joint)
            loaded, _ = load_locations(path)
            data = path.read_bytes()
        body = data[data.index(b"node,step,x,y\n") :]
        assert loaded.grid == joint.grid
        assert loaded.ids.dtype == np.int64
        assert np.array_equal(loaded.ids, loadtxt_location_ids(body, joint.grid))
        assert np.array_equal(loaded.ids, joint.ids)

    @settings(max_examples=300)
    @given(
        location_traces(max_cells=200, max_rows=60),
        st.sampled_from(["replace", "insert", "delete"]),
        st.one_of(st.sampled_from(b"0123456789,-\n\r +.#x"), st.integers(0, 255)),
        st.randoms(use_true_random=False),
    )
    def test_locations_edited_byte_loads_as_oracle_or_fails(self, joint, edit, byte, rnd):
        # one byte of the rows replaced, inserted or deleted, and the body re-signed
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "t.trace"
            save_locations(path, joint)
            text = path.read_bytes()
            split = text.index(b"node,step,x,y\n")
            at = rnd.randrange(split + len(b"node,step,x,y\n"), len(text))
            kept = at + (edit != "insert")
            body = text[split:at] + (b"" if edit == "delete" else bytes([byte])) + text[kept:]
            header = re.sub(
                rb"# body: \w+", b"# body: " + sha256(body).hexdigest().encode(), text[:split]
            )
            path.write_bytes(header + body)
            try:
                loaded, _ = load_locations(path)
            except ConfigurationError:
                return
        assert np.array_equal(loaded.ids, loadtxt_location_ids(body, joint.grid))

    @pytest.mark.parametrize("block", [64, 4_099, None], ids=["64", "4099", "real"])
    def test_locations_row_across_block_boundary(self, tmp_path, monkeypatch, block):
        # 2 nodes x 60,000 steps on 100x100 give a body of about 1.5 MiB, read
        # in blocks of the real size or of a small one that cuts rows at
        # thousands of places
        real = trace_io._BLOCK_BYTES
        size = block or real
        monkeypatch.setattr(trace_io, "_BLOCK_BYTES", size)
        grid = GridSpec(100, 100)
        ids = np.random.default_rng(3).integers(0, grid.size, (2, 60_000))
        path = tmp_path / "t.trace"
        save_locations(path, JointTrace(grid, ids))
        data = path.read_bytes()
        first = data.index(b"node,step,x,y\n") + len(b"node,step,x,y\n")
        assert data[first + real - 1 : first + real + 1].isdigit()  # the real one cuts a row
        # where a read block ends, the first such place at or past the real one
        boundary = first + -(-real // size) * size
        assert data[boundary - 1 : boundary + 1].isdigit()  # inside a row
        loaded, _ = load_locations(path)
        assert np.array_equal(loaded.ids, ids)
        assert np.array_equal(loaded.ids, loadtxt_location_ids(data[first - 14 :], grid))
        # rows are numbered on from block to block: the row after the one
        # cut by the boundary is row ``whole + 2``
        whole = data.count(b"\n", first, boundary)

        def edit(rows):
            rows[whole + 1] = "x" + rows[whole + 1]

        rewrite_body(path, edit)
        error = f"malformed location trace row {whole + 2}: b'x"
        with pytest.raises(ConfigurationError, match=error):
            load_locations(path)

    def test_locations_rows_longer_than_a_block(self, tmp_path, monkeypatch):
        # in 8-byte blocks a row spans two or three of them, and a block
        # with no newline is carried on until a later one ends its row
        monkeypatch.setattr(trace_io, "_BLOCK_BYTES", 8)
        grid = GridSpec(100, 100)
        ids = np.random.default_rng(4).integers(0, grid.size, (2, 300))
        ids[0, 0] = grid.size - 1  # the first row is 0,0,99,99
        path = tmp_path / "t.trace"
        save_locations(path, JointTrace(grid, ids))
        loaded, _ = load_locations(path)
        assert np.array_equal(loaded.ids, ids)
        x, y = grid.xy(ids[1, -1])
        path.write_text(resign(path.read_text().removesuffix("\n")))
        error = f"malformed location trace row 600: b'1,299,{x},{y}' does not end in a newline"
        with pytest.raises(ConfigurationError, match=error):
            load_locations(path)

    def test_locations_refuse_a_row_longer_than_any_row_at_once(self, tmp_path, monkeypatch):
        # no valid row has 40 bytes before its newline, so such a rest is
        # refused as it is read, and not carried on block after block
        monkeypatch.setattr(trace_io, "_BLOCK_BYTES", 8)
        path = self._edited_locations(tmp_path, lambda rows: rows.insert(5, "0,5," + "1" * 50))
        error = r"malformed location trace row 6: b'0,5,1111.* longer than a row can be"
        with pytest.raises(ConfigurationError, match=error):
            load_locations(path)

    def test_locations_longest_row_is_read_across_blocks(self, tmp_path, monkeypatch):
        # four 9-digit fields, three commas and the newline: 40 bytes, the
        # longest row, carried on through five 8-byte blocks
        monkeypatch.setattr(trace_io, "_BLOCK_BYTES", 8)
        row = b"999999999,999999999,999999999,999999999\n"
        assert len(row) == 40
        path = tmp_path / "rows"
        path.write_bytes(b"0,0,0,0\n" + row + b"7,8,9,10\n")
        with path.open("rb") as body:
            values = trace_io._read_location_rows(body)
        assert values.T.tolist() == [[0, 0, 0, 0], [999999999] * 4, [7, 8, 9, 10]]

    def _positions(self, tmp_path):
        from rwmm.continuous import ContinuousAreaSpec

        trace = simulate_continuous(ContinuousAreaSpec(50, 50, 1, 2), 2, 5, 0.5, seed=3)
        path = tmp_path / "c.trace"
        save_positions(path, trace, seed=3)
        return path

    def test_positions_reject_interleaved_nodes(self, tmp_path):
        path = self._positions(tmp_path)

        def edit(rows):
            rows[10], rows[11] = rows[11], rows[10]  # last row of node 0, first of node 1

        rewrite_body(path, edit)
        with pytest.raises(ConfigurationError, match="node-major"):
            load_positions(path)

    def test_positions_reject_ragged_rows(self, tmp_path):
        path = self._positions(tmp_path)
        rewrite_body(path, list.pop)  # node 1 loses its last sample
        with pytest.raises(ConfigurationError, match="ragged position trace"):
            load_positions(path)

    def test_positions_reject_empty_body(self, tmp_path):
        path = self._positions(tmp_path)
        rewrite_body(path, list.clear)
        with pytest.raises(ConfigurationError, match="empty position trace"):
            load_positions(path)

    def test_positions_reject_unsorted_times(self, tmp_path):
        path = self._positions(tmp_path)

        def edit(rows):
            rows[2], rows[3] = rows[3], rows[2]

        rewrite_body(path, edit)
        with pytest.raises(ConfigurationError, match="sorted by time"):
            load_positions(path)

    def test_positions_reject_off_grid_time(self, tmp_path):
        path = self._positions(tmp_path)

        def edit(rows):
            node, _, x, y = rows[14].split(",")
            rows[14] = f"{node},1.75,{x},{y}"  # node 1's sample 3 belongs at 1.5

        rewrite_body(path, edit)
        with pytest.raises(ConfigurationError, match="node 1 sample 3 at time 1.75"):
            load_positions(path)

    def test_positions_reject_negative_node(self, tmp_path):
        path = self._positions(tmp_path)

        def edit(rows):
            rows[:] = [row.replace("0,", "-1,", 1) for row in rows[:11]]  # node 0 only

        rewrite_body(path, edit)
        with pytest.raises(ConfigurationError, match="negative node id -1"):
            load_positions(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
    def test_positions_reject_bad_time_step(self, tmp_path, value):
        path = self._positions(tmp_path)
        text = path.read_text()
        assert "# time-step: 0.5\n" in text
        path.write_text(text.replace("# time-step: 0.5\n", f"# time-step: {value}\n"))
        with pytest.raises(ConfigurationError, match=f"bad time-step header: '{value}'"):
            load_positions(path)

    def test_positions_reject_repeated_header_key(self, tmp_path):
        path = self._positions(tmp_path)
        text = path.read_text()
        path.write_text(text.replace("# time-step: 0.5\n", "# time-step: 0.5\n# time-step: 0.25\n"))
        with pytest.raises(ConfigurationError, match="duplicate header key 'time-step' on line 5"):
            load_positions(path)

    @pytest.mark.parametrize(
        "node, column", [(None, None), (1, X1), (0, Y0)], ids=["time", "x", "y"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_positions_writer_refuses_non_finite_values(self, tmp_path, node, column, value):
        # no trace the writer is given holds a non-finite time or position:
        # such a run is refused when it is made, here by replace
        from dataclasses import replace

        trace = simulate_continuous(ContinuousAreaSpec(50, 50, 1, 2), 2, 5, 0.5, seed=3)
        if node is None:
            # times are k * time_step, so whatever the value, the only
            # non-finite time is one that overflows: 2 * 1e308 is inf
            with pytest.raises(ValueError, match="overflow the last sample time"):
                replace(trace, time_step=1e308)
        else:
            # a coordinate of the first leg, which sample 0 reads
            legs = [table.copy() for table in trace.legs]
            legs[node][0, column] = value
            sample = np.empty((1, 2))
            with np.errstate(invalid="ignore"):  # inf - inf, or inf * 0
                continuous._sample_legs(legs[node], np.zeros(1), sample)
            assert not np.isfinite(sample).all()
            with pytest.raises(ValueError, match=f"node {node}'s leg 0 holds a value that is not"):
                replace(trace, legs=tuple(legs))

    @pytest.mark.parametrize("time_step", [np.nan, np.inf, 0.0, -0.5])
    def test_positions_writer_refuses_bad_time_step(self, tmp_path, time_step):
        from dataclasses import replace

        from rwmm.continuous import ContinuousAreaSpec

        # refused when the trace is made, so the writer never meets one
        trace = simulate_continuous(ContinuousAreaSpec(50, 50, 1, 2), 2, 5, 0.5, seed=3)
        with pytest.raises(ValueError, match="nodes, steps and a finite time step must be > 0"):
            replace(trace, time_step=time_step)

    @pytest.mark.parametrize(
        "empty", [{"legs": ()}, {"step_count": 0}], ids=["nodes", "steps"]
    )
    def test_positions_writer_refuses_empty_trace(self, tmp_path, empty):
        from dataclasses import replace

        # refused when the trace is made, so the writer never meets one
        trace = simulate_continuous(ContinuousAreaSpec(50, 50, 1, 2), 2, 5, 0.5, seed=3)
        with pytest.raises(ValueError, match="nodes, steps and a finite time step must be > 0"):
            replace(trace, **empty)

    @pytest.mark.parametrize(
        "legs", [np.zeros((0, 7)), np.zeros((3, 6))], ids=["empty", "six-columns"]
    )
    @pytest.mark.parametrize(
        "reader",
        [
            lambda trace, path: trace.positions([1]),
            lambda trace, path: continuous.traffic_proxy(trace, [(0, 1)], 1.0, 1.0),
            export_ns2,
            save_positions,
        ],
        ids=["positions", "traffic_proxy", "export_ns2", "save_positions"],
    )
    def test_bad_leg_table_is_refused_before_any_reader(self, tmp_path, reader, legs):
        # a reader once met such a table and raised a bare IndexError
        good = simulate_continuous(ContinuousAreaSpec(50, 50, 1, 2), 1, 5, 0.5, seed=3).legs[0]
        path = tmp_path / "out"
        with pytest.raises(ValueError, match=r"node 1's leg table has shape"):
            reader(ContinuousTrace(ContinuousAreaSpec(50, 50, 1, 2), 0.5, 11, (good, legs)), path)
        assert not path.exists()

    @pytest.mark.parametrize("column", [0, 1, 2])  # node id, time, x
    def test_positions_reject_non_finite_values(self, tmp_path, column):
        path = self._positions(tmp_path)

        def edit(rows):
            fields = rows[3].split(",")
            fields[column] = "nan"
            rows[3] = ",".join(fields)

        rewrite_body(path, edit)
        with pytest.raises(ConfigurationError, match="non-finite value in position trace"):
            load_positions(path)

    def test_kind_mismatch(self, tmp_path):
        grid = GridSpec(2, 2)
        path = tmp_path / "t.trace"
        save_locations(path, LocationTrace(grid, np.array([0, 1])))
        with pytest.raises(ConfigurationError):
            load_positions(path)

    @staticmethod
    def _write_locations(path):
        save_locations(path, JointTrace(GridSpec(3, 2), np.arange(24).reshape(2, 12) % 6))

    @staticmethod
    def _write_positions(path):
        trace = simulate_continuous(ContinuousAreaSpec(50, 50, 1, 2), 2, 11, 0.5, seed=3)
        save_positions(path, trace)

    @pytest.mark.parametrize(
        "write", [_write_locations, _write_positions], ids=["locations", "positions"]
    )
    def test_writer_refuses_a_path_that_cannot_seek(self, write):
        # the body digest is written into the header after the body, so a
        # pipe could only ever carry a header with an unfinished digest
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as reader:
            try:
                with pytest.raises(ConfigurationError, match="cannot seek"):
                    write(f"/dev/fd/{write_end}")
            finally:
                os.close(write_end)
            assert reader.read() == b""  # not a byte was written

    @pytest.mark.parametrize(
        "write, load",
        [(_write_locations, load_locations), (_write_positions, load_positions)],
        ids=["locations", "positions"],
    )
    def test_stopped_write_never_loads(self, tmp_path, monkeypatch, write, load):
        # blocks of 4 rows, and the second block's build raises: the file
        # holds the header, with 64 zeros for its digest, and the first block
        build = trace_io._node_major_rows

        def stopping(stamps, nodes, values, spell):
            blocks = count()

            def stop_second(block):
                if next(blocks) == 1:
                    raise RuntimeError("stopped")
                return spell(block)

            return build(stamps, nodes, values, stop_second)

        monkeypatch.setattr(trace_io, "_BLOCK_ROWS", 4)
        monkeypatch.setattr(trace_io, "_node_major_rows", stopping)
        path = tmp_path / "t.trace"
        with pytest.raises(RuntimeError, match="stopped"):
            write(path)
        assert path.is_file()
        header, _, body = path.read_bytes().partition(b"# body: " + b"0" * 64 + b"\n")
        assert header and body.count(b"\n") == 1 + 4  # the column line and one block
        with pytest.raises(VerificationError, match="digest mismatch"):
            load(path)
        if load is load_locations:
            assert main(["analyze", "--trace", str(path), "--out", str(tmp_path / "r.csv")]) == 4


class TestValueWords:
    """``io._value_columns`` against ``format(v, ".9g")``, value by value."""

    @pytest.mark.parametrize("exponent", range(-4, 9))
    def test_exact_ties_round_half_even(self, exponent):
        ties = exact_ties(exponent)
        assert ties
        for v in ties:
            scaled = Fraction(v) * Fraction(10) ** (8 - exponent)
            assert scaled.denominator == 2 and 10**8 <= scaled < 10**9
        assert value_text(ties) == formatted(ties)

    @pytest.mark.parametrize("exponent", range(-4, 9))
    def test_near_ties(self, exponent):
        # a tie's float neighbours, and the floats nearest decimal ties: their
        # exact products lie off the tie, but a product may round onto it
        ties = exact_ties(exponent)
        near = [float(np.nextafter(v, toward)) for v in ties for toward in (0, np.inf)]
        digits = np.random.default_rng(exponent + 4).integers(10**8, 10**9, 2000)
        near += [float(f"{n}5e{exponent - 9}") for n in digits.tolist()]
        assert value_text(near) == formatted(near)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = [float(f"1e{k}") for k in range(-8, 12)]
        values = [n for p in powers for n in (np.nextafter(p, 0), p, np.nextafter(p, np.inf))]
        values = [float(v) for v in values]
        assert value_text(values) == formatted(values)

    def test_edges_and_the_format_path(self):
        values = [
            1e-4, 999999999.5, 1e9, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
            -1.5, -123.456789, -1e-5, 1e300, -1.7976931348623157e308, 9.9999999995,
            99999999.95, 0.00099999999995,
        ]
        assert value_text(values) == formatted(values)

    def test_integers_spelled_as_str(self):
        # a location trace's steps are its stamps: 0, each power of ten and
        # its neighbours, and a sample of steps a run may hold
        edges = [0] + [10**k + d for k in range(9) for d in (-1, 0, 1)]
        drawn = np.random.default_rng(7).integers(0, errors.MAX_SAMPLES, 10**5).tolist()
        values = edges + drawn
        assert value_text(values) == "".join(f",{v}" for v in values).encode()

    def test_integer_stamps_spelled_as_str(self):
        # a location trace's steps are spelled by the whole-part words alone:
        # every step to 10^5, each power of ten and the number below it, the
        # top of the speller's domain, and a sample of steps a run may hold
        edges = [v for k in range(1, 10) for v in (10**k - 1, 10**k)][:-1]
        drawn = np.random.default_rng(8).integers(0, errors.MAX_SAMPLES, 10**4).tolist()
        for values in (list(range(10**5 + 1)), edges, drawn):
            stamps = np.array(values, dtype=np.int64)
            text = _stamp_words(stamps).T.tobytes().translate(None, b"\0")
            assert text == "".join(f",{v}" for v in values).encode()
            assert text == value_text(values)

    # the whole parts where the comma and the leading digit groups change
    # words: one word below 1000, ",ddd" and a full group from 1e4 to 1e7,
    # "," alone from 1000 and from 1e7, and the digit above 1e8
    WHOLE_SEAMS = [0, 999, 1000, 9999, 10**4, 10**7 - 1, 10**7, 10**8, 999_999_999]

    def test_whole_part_seams(self):
        # each seam with every fraction its 9 significant digits leave room
        # for, from none to the most, all spelled by words; and one digit
        # more, which rounds, up across the seam above where it is all 9s
        exact, rounded = [], []
        for whole in self.WHOLE_SEAMS[1:]:
            room = 9 - len(str(whole))
            exact += [float(f"{whole}.{'7' * digits}") for digits in range(room + 1)]
            exact += [float(f"{whole}.{'0' * (room - 1)}1")] if room else []
            rounded += [float(f"{whole}.{digit * (room + 1)}") for digit in "19"]
        assert value_text(exact) == formatted(exact)
        assert trace_io._value_index(np.array(exact))[1].size == 0
        assert value_text(rounded) == formatted(rounded)
        # as the largest stamp of a run, whose words then take up as few
        # leading words as that stamp needs, and all in one run
        for run in [[0, whole // 2, whole] for whole in self.WHOLE_SEAMS] + [self.WHOLE_SEAMS]:
            text = _stamp_words(np.array(run, dtype=np.int64)).T.tobytes().translate(None, b"\0")
            assert text == "".join(f",{v}" for v in run).encode()
            assert text == value_text(run)

    @pytest.mark.parametrize("whole", [0, 7, 42, 999])
    def test_fraction_seams(self, whole):
        # fractions of 0 to 12 digits, the first three glued to the ".", then
        # 4, 4 and 1: every length, with zeros before a last digit and with
        # the trailing zeros of each group; the whole part leaves room for
        # 9 - len(str(whole)) of them, or 9 after the zeros that lead 0's
        significant = 9 - len(str(whole)) if whole else 9
        texts = []
        for length in range(13):
            for fraction in ("1" * length, "0" * (length - 1) + "5", "9" + "0" * (length - 1)):
                digits = fraction.lstrip("0") if whole == 0 else fraction
                if fraction and len(digits.rstrip("0")) <= significant:
                    texts.append(f"{whole}.{fraction}")
        values = [float(text) for text in texts if float(text) >= 1e-4]
        assert len(values) > 20
        assert value_text(values) == formatted(values)
        assert trace_io._value_index(np.array(values))[1].size == 0  # all spelled by words

    def test_shape_follows_the_values(self):
        values = np.arange(6.0).reshape(1, 3, 2) + 0.25
        columns = _value_columns(values)
        assert len(columns) == 2
        for column in columns:
            assert column.shape[:2] == (1, 3) and column.dtype == np.uint32
        assert columns[1].tobytes().translate(None, b"\0") == formatted([1.25, 3.25, 5.25])
        assert value_text(values[0, :, 1]) == formatted([1.25, 3.25, 5.25])

    def test_random_magnitudes(self):
        rng = np.random.default_rng(5)
        values = np.concatenate(
            [rng.uniform(0, 1000, 10**5), 10 ** rng.uniform(-6, 10, 10**5)]
        ).tolist()
        assert value_text(values) == formatted(values)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_any_finite_float(self, values):
        assert value_text(values) == formatted(values)


class TestFixedWords:
    """``io._fixed_words`` against ``format(v, ".6f")``, value by value."""

    def test_exact_binary_ties_round_half_even(self):
        # an odd multiple of 1/128 times 10**6 is an odd multiple of 1/2
        assert fixed_texts([0.0078125, 1000.0234375]) == [b"0.007812", b"1000.023438"]
        odd = np.random.default_rng(1).integers(0, 64 * 10**8, 2000) * 2 + 1
        ties = (odd / 128).tolist()
        assert all((Fraction(v) * 10**6).denominator == 2 for v in ties)
        assert fixed_texts(ties) == fixed_formatted(ties)

    def test_near_ties(self):
        # the binary ties' float neighbours, and the floats nearest decimal
        # ties k + 1/2 millionths, whose products may round onto the tie
        odd = np.random.default_rng(2).integers(0, 64 * 10**8, 2000) * 2 + 1
        ties = odd / 128
        near = [float(np.nextafter(v, toward)) for v in ties for toward in (0, np.inf)]
        for top in (10**3, 10**8, 10**11, 10**14):
            k = np.random.default_rng(top).integers(0, top, 2000)
            near += [float(f"{n}5e-7") for n in k.tolist()]
        assert fixed_texts(near) == fixed_formatted(near)

    def test_edges_and_the_format_path(self):
        around = [1e8, 99999999.9999995, 99999999.999999, 1e4, 1.0, 5e-7]
        values = [float(n) for v in around for n in (np.nextafter(v, 0), v, np.nextafter(v, 2e8))]
        values += [
            0.0, -0.0, -1e-9, -1.5, -123.4567895, 5e-324, 2.2250738585072014e-308, 1e300,
            -1.7976931348623157e308, 4.5e15, 2.0**53, math.nan, math.inf, -math.inf,
        ]
        assert fixed_texts(values) == fixed_formatted(values)
        assert fixed_texts([-0.0, 0.0]) == [b"-0.000000", b"0.000000"]

    def test_random_magnitudes(self):
        rng = np.random.default_rng(3)
        values = np.concatenate(
            [rng.uniform(0, 1000, 10**5), 10 ** rng.uniform(-8, 16, 10**5)]
        ).tolist()
        assert fixed_texts(values) == fixed_formatted(values)

    def test_slots_widen_to_the_longest_format_text(self):
        words = _fixed_words(np.array([[1.5, 2.25], [1e20, 3.0]]))
        assert words.shape == (2, 2, 7) and words.dtype == np.uint32  # 28 bytes of 1e20
        assert _fixed_words(np.array([1.5, math.nan])).shape == (2, 4)
        assert fixed_texts([1.5, 2.25, 1e20, 3.0]) == fixed_formatted([1.5, 2.25, 1e20, 3.0])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_any_finite_float(self, values):
        assert fixed_texts(values) == fixed_formatted(values)


class TestNs2:
    def test_round_trip(self, tmp_path):
        from rwmm.continuous import SPEED, START, X0, X1, Y0, ContinuousAreaSpec

        area = ContinuousAreaSpec(300, 300, 1, 5, pause_time=1.0)
        trace = simulate_continuous(area, 3, 40, 1.0, seed=4)
        path = tmp_path / "m.tcl"
        export_ns2(path, trace)
        script = parse_ns2(path.read_text())
        assert set(script.initial) == {0, 1, 2}
        for node, legs in enumerate(trace.legs):
            assert script.initial[node][0] == pytest.approx(legs[0, X0], abs=1e-6)
            assert script.initial[node][1] == pytest.approx(legs[0, Y0], abs=1e-6)
        travel_legs = sum(int((legs[:, SPEED] > 0).sum()) for legs in trace.legs)
        assert len(script.moves) == travel_legs
        by_node = {}
        for t, node, x, y, speed in script.moves:
            by_node.setdefault(node, []).append((t, x, y, speed))
        for node, legs in enumerate(trace.legs):
            moving = legs[legs[:, SPEED] > 0]
            assert len(by_node[node]) == len(moving)
            for (t, x, y, speed), leg in zip(by_node[node], moving):
                assert t == pytest.approx(leg[START], abs=1e-6)
                assert x == pytest.approx(leg[X1], abs=1e-6)
                assert speed == pytest.approx(leg[SPEED], abs=1e-6)

    @pytest.mark.parametrize("nodes", [1, 3, 1000])
    @pytest.mark.parametrize("block", [1, 3, None], ids=["1", "3", "real"])
    def test_script_matches_per_line_oracle(self, tmp_path, monkeypatch, nodes, block):
        # blocks of one line, of three (cutting nodes' setdest lines and
        # grouping nodes' X_/Y_/Z_ lines) and of the real size
        from rwmm.continuous import ContinuousAreaSpec

        if block:
            monkeypatch.setattr(trace_io, "_BLOCK_ROWS", block)
        area = ContinuousAreaSpec(300, 300, 1, 5, pause_time=1.0)
        trace = simulate_continuous(area, nodes, 400 if nodes < 1000 else 20, 1.0, seed=nodes)
        path = tmp_path / "m.tcl"
        export_ns2(path, trace)
        assert path.read_bytes() == per_line_ns2_script(trace).encode()

    @pytest.mark.parametrize("block", [1, 3, None], ids=["1", "3", "real"])
    def test_script_of_any_numbers_matches_per_line_oracle(self, tmp_path, monkeypatch, block):
        # legs no simulator draws: numbers only format can spell, in the
        # same blocks as numbers the tables spell (a trace holds no NaN or
        # inf; TestFixedWords spells those as format does)
        if block:
            monkeypatch.setattr(trace_io, "_BLOCK_ROWS", block)
        rows = [
            [0.0, 1.0, -0.0, 1e300, 2.5, -1.5, 1.0],
            [1.0, 1.0, 0.0, 0.0, 99999999.9999995, 0.0078125, 0.0],
            [2.0, 1.0, 0.0, 0.0, -0.0, -1e300, 1e-7],
            [3.0, 1.0, 0.0, 0.0, 12.25, 1e8, 3.5],
        ]
        legs = np.array(rows)
        backwards = legs[::-1].copy()
        backwards[:, START] = legs[:, START]  # the rows in reverse, driven in time order
        trace = ContinuousTrace(ContinuousAreaSpec(10, 10, 1, 2), 1.0, 4, (legs, backwards))
        path = tmp_path / "m.tcl"
        export_ns2(path, trace)
        assert path.read_bytes() == per_line_ns2_script(trace).encode()

    def test_writer_memory_per_move(self, tmp_path):
        # one block of lines and its word columns is held at a time: 23.0
        # bytes a move measured here; 279 when every line was held as a str
        # until one join
        from rwmm.continuous import SPEED, ContinuousAreaSpec

        area = ContinuousAreaSpec(1000, 1000, 1, 20, pause_time=5)
        trace = simulate_continuous(area, 10, 10**6, 1.0, seed=1)
        moves = sum(int((legs[:, SPEED] != 0).sum()) for legs in trace.legs)
        assert moves >= 10**5
        path = tmp_path / "m.tcl"
        tracemalloc.start()
        try:
            export_ns2(path, trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / moves < 30
        assert path.read_bytes() == per_line_ns2_script(trace).encode()

    @pytest.mark.parametrize(
        "line",
        [
            "what is this",
            "$node_(0) set Y_ 1.2.3",
            '$ns_ at 1.. "$node_(0) setdest 1.0 2.0 3.0"',
        ],
        ids=["words", "two-point-number", "trailing-points"],
    )
    def test_rejects_garbage(self, line):
        with pytest.raises(ConfigurationError, match="unrecognized movement line 2"):
            parse_ns2(f"$node_(0) set X_ 1.0\n{line}\n")


class TestCsvReport:
    def test_formatting(self, tmp_path):
        path = tmp_path / "r.csv"
        export_csv_report(
            path,
            {
                "name": np.array(["a", "b"]),
                "value": np.array([0.123456789123456, 1e-12]),
                "count": np.array([3, 0]),
            },
        )
        assert path.read_text() == "name,value,count\na,0.123456789,3\nb,1e-12,0\n"

    def test_unequal_lengths_refused(self, tmp_path):
        with pytest.raises(ValueError, match="unequal lengths"):
            export_csv_report(tmp_path / "r.csv", {"a": np.array([1]), "b": np.array([1, 2])})

    @given(
        st.lists(
            st.tuples(
                st.integers(-(2**63), 2**63 - 1),
                st.one_of(
                    st.sampled_from([0.0, -0.0, 1e-12, 5e-324, 1e-310, 3.0, -7.0, 1e9, math.nan]),
                    st.floats(),
                ),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    def test_matches_per_row_oracle(self, rows):
        # the column writer spells each row as a per-row writer did:
        # format(v, ".9g") for a float, str() for an int or a bool
        columns = {
            "count": np.array([r[0] for r in rows], dtype=np.int64),
            "value": np.array([r[1] for r in rows], dtype=np.float64),
            "flag": np.array([r[2] for r in rows], dtype=bool),
        }
        expected = "".join(f"{str(c)},{format(v, '.9g')},{str(f)}\n" for c, v, f in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "r.csv"
            export_csv_report(path, columns)
            assert path.read_text() == "count,value,flag\n" + expected


# (waypoints, trace sha256, grid width, grid height) of the pinned
# simulate-discrete traces
DISCRETE_TRACE_PINS = [
    ("iid-uniform", "5e67589c66cefff7dc9d097b129338c9daf1cc17f05ddd31949a16bcacb3dabe", 12, 11),
    ("lazy-walk", "2651b912b9ea14ffbd60f4d1d09e5b121c468c68de4602a95c65deafda446f0d", 12, 11),
    ("lazy-walk:1/3", "3b67e2ca8d4772977798fe07b892671a6854a6916b8d513dd919a31b481e0dc0", 12, 11),
    (
        "lazy-walk:12345/99991",
        "0e70f0d6e5a2658c116739f62ce3cc5ecf2103727247a78c87e775ea2b717c11",
        12,
        11,
    ),
    ("lazy-walk", "4f68546c8d299f05556b4e0926094b66629ba5012f3e44a17dcd25f65a4bff30", 1, 40),
]


class TestCli:
    def write_cfgs(self, tmp_path):
        d = tmp_path / "d.cfg"
        d.write_text(DISCRETE_CFG)
        c = tmp_path / "c.cfg"
        c.write_text(CONTINUOUS_CFG)
        return d, c

    def test_simulate_analyze_pipeline(self, tmp_path, capsys):
        d, _ = self.write_cfgs(tmp_path)
        trace = tmp_path / "out.trace"
        report = tmp_path / "report.csv"
        assert main(
            ["simulate-discrete", "--config", str(d), "--seed", "3", "--out", str(trace)]
        ) == 0
        assert main(
            [
                "analyze",
                "--trace", str(trace),
                "--config", str(d),
                "--out", str(report),
            ]
        ) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "node,x,y,visits,frequency,cauchy_width,converged"
        assert len(lines) == 1 + 2 * 9  # 2 nodes x 9 cells

    @pytest.mark.parametrize(
        "command", ["simulate-discrete", "simulate-continuous", "export", "analyze"]
    )
    def test_simulate_refuses_out_that_is_stdout(self, tmp_path, command):
        # with stdout redirected to a file, --out /dev/stdout names that
        # file: the writer and the command's closing line would both write
        # it from offset 0, the line over the header, the script's start or
        # the report's column line; through a pipe, the line would follow
        # the output
        d, c = self.write_cfgs(tmp_path)
        paths = [str(pathlib.Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        argv = [sys.executable, "-m", "rwmm.cli", command]
        if command == "analyze":
            trace = tmp_path / "t.trace"
            simulate = ["simulate-discrete", "--config", str(d), "--seed", "1", "--out", str(trace)]
            assert main(simulate) == 0
            argv += ["--trace", str(trace), "--config", str(d)]
        else:
            config = d if command == "simulate-discrete" else c
            argv += ["--config", str(config), "--seed", "1"]
        argv += ["--out", "/dev/stdout"]
        written = {"export": "script", "analyze": "report"}.get(command, "trace")
        target = tmp_path / "f"
        with target.open("wb") as stdout:
            run = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, text=True)
        assert run.returncode == 2, run.stderr
        message = f"is the file stdout writes to, and the command's output would overwrite the {written}"
        assert message in run.stderr
        assert target.read_bytes() == b""
        piped = subprocess.run(argv, capture_output=True, env=env, text=True)
        assert piped.returncode == 2, piped.stderr
        assert "is the file stdout writes to" in piped.stderr
        assert piped.stdout == ""

    OUT_INPUTS = [
        ("simulate-discrete", "--config"),
        ("simulate-continuous", "--config"),
        ("export", "--config"),
        ("analyze", "--trace"),
        ("analyze", "--config"),
    ]

    @pytest.mark.parametrize(
        "command, option", OUT_INPUTS, ids=[f"{command}{option}" for command, option in OUT_INPUTS]
    )
    def test_out_may_not_name_an_input(self, tmp_path, capsys, command, option):
        # opening --out to write would truncate the input before it is read:
        # the trace or config was replaced by the command's output, exit 0
        d, c = self.write_cfgs(tmp_path)
        trace = tmp_path / "t.trace"
        simulate = ["simulate-discrete", "--config", str(d), "--seed", "1", "--out", str(trace)]
        assert main(simulate) == 0
        if command == "analyze":
            inputs = {"--trace": trace, "--config": d}
        else:
            inputs = {"--config": d if command == "simulate-discrete" else c, "--seed": "1"}
        argv = [command, *(str(word) for pair in inputs.items() for word in pair)]
        target = inputs[option]
        before = target.read_bytes()
        os.link(target, tmp_path / "link")
        # the same path, another spelling of it and a hard link are one file
        for out in (target, tmp_path / "." / target.name, tmp_path / "link"):
            capsys.readouterr()
            assert main(argv + ["--out", str(out)]) == 2
            assert f"is the {option} file, which the" in capsys.readouterr().err
            assert target.read_bytes() == before

    FILE_FAULTS = [
        *[
            (command, fault)
            for command in ("simulate-discrete", "simulate-continuous", "analyze", "export")
            for fault in ("missing-directory", "directory")
        ],
        ("simulate-discrete", "config-not-utf-8"),
    ]

    @pytest.mark.parametrize(
        "command, fault", FILE_FAULTS, ids=[f"{command}-{fault}" for command, fault in FILE_FAULTS]
    )
    def test_file_errors_exit_2(self, tmp_path, capsys, command, fault):
        # an --out under a missing directory or naming a directory, and a
        # config that is not UTF-8 text, end in one line that names the
        # path and exit 2, not a traceback, and leave no file behind
        d, c = self.write_cfgs(tmp_path)
        argv = [command]
        if command == "analyze":
            trace = tmp_path / "t.trace"
            simulate = ["simulate-discrete", "--config", str(d), "--seed", "1", "--out", str(trace)]
            assert main(simulate) == 0
            argv += ["--trace", str(trace)]
        else:
            argv += ["--config", str(d if command == "simulate-discrete" else c), "--seed", "1"]
        out = tmp_path / "out"
        named = out
        if fault == "missing-directory":
            out = named = tmp_path / "missing" / "out"
        elif fault == "directory":
            out.mkdir()
        else:
            d.write_bytes(DISCRETE_CFG.encode() + b"# \xff\n")
            named = d
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(named) in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_byte_identical_reruns(self, tmp_path):
        d, c = self.write_cfgs(tmp_path)
        t1, t2 = tmp_path / "a.trace", tmp_path / "b.trace"
        for out in (t1, t2):
            main(["simulate-discrete", "--config", str(d), "--seed", "8", "--out", str(out)])
        assert t1.read_bytes() == t2.read_bytes()
        c1, c2 = tmp_path / "a.pos", tmp_path / "b.pos"
        for out in (c1, c2):
            main(["simulate-continuous", "--config", str(c), "--seed", "8", "--out", str(out)])
        assert c1.read_bytes() == c2.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        d, _ = self.write_cfgs(tmp_path)
        t1, t2 = tmp_path / "a.trace", tmp_path / "b.trace"
        main(["simulate-discrete", "--config", str(d), "--seed", "1", "--out", str(t1)])
        main(["simulate-discrete", "--config", str(d), "--seed", "2", "--out", str(t2)])
        assert t1.read_bytes() != t2.read_bytes()

    def test_verify_channel_passes(self, tmp_path, capsys):
        d, _ = self.write_cfgs(tmp_path)
        assert main(
            ["verify-channel", "--config", str(d), "--prefixes", "3", "--horizon", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    @pytest.mark.parametrize("horizon", ["2", "3"])
    def test_verify_channel_output_pinned(self, tmp_path, capsys, horizon):
        # digest of the output of the per-coordinate closed-form checks; both
        # horizons draw the same six-waypoint prefixes and print the same lines
        cfg = tmp_path / "walk.cfg"
        cfg.write_text(WALK_CFG)
        argv = ["verify-channel", "--config", str(cfg), "--seed", "7", "--horizon", horizon]
        assert main(argv + ["--prefixes", "20"]) == 0
        assert sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "77dede0d8b4359310c1b08828d0becc3ad5d0d9ee459aec2748b8d10ca16cf88"
        )

    @pytest.mark.parametrize(
        "flag, value", [("--horizon", "0"), ("--prefixes", "0"), ("--prefixes", "-3")]
    )
    def test_verify_channel_refuses_bad_counts(self, tmp_path, capsys, monkeypatch, flag, value):
        # a cap this low refuses the alphabet (exit 3), so exit 2 shows that
        # the arguments are refused before it is built
        d, _ = self.write_cfgs(tmp_path)
        monkeypatch.setenv("RWMM_ENUM_CAP", "5")
        assert main(["verify-channel", "--config", str(d), flag, value]) == 2
        assert "--horizon and --prefixes must be >= 1" in capsys.readouterr().err

    def test_verify_channel_refuses_prefix_past_sample_limit(self, tmp_path, capsys, monkeypatch):
        # a prefix of 1e13 waypoints died in numpy with _ArrayMemoryError; a
        # cap this low refuses the alphabet (exit 3), so exit 2 shows that
        # the horizon is refused before the alphabet is built
        d, _ = self.write_cfgs(tmp_path)
        monkeypatch.setenv("RWMM_ENUM_CAP", "5")
        assert main(["verify-channel", "--config", str(d), "--horizon", "10000000000000"]) == 2
        assert (
            "--horizon 10000000000000 needs prefixes of 10000000000002 waypoints, "
            "over the limit of 100000000 samples per run"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize("horizon, code", [("18", 0), ("19", 2)])
    def test_verify_channel_sample_limit_is_exact(
        self, tmp_path, capsys, monkeypatch, horizon, code
    ):
        # a prefix holds horizon + 2 waypoints: 20 fit a limit of 20, 21 do not
        d, _ = self.write_cfgs(tmp_path)
        monkeypatch.setattr(errors, "MAX_SAMPLES", 20)
        argv = ["verify-channel", "--config", str(d), "--horizon", horizon, "--prefixes", "1"]
        assert main(argv) == code
        assert ("over the limit of 20 samples" in capsys.readouterr().err) == bool(code)

    def test_verify_channel_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        d, _ = self.write_cfgs(tmp_path)
        monkeypatch.setattr("rwmm.cli.channel_total_mass", lambda *args: 2)
        assert main(["verify-channel", "--config", str(d), "--prefixes", "3"]) == 4
        captured = capsys.readouterr()
        assert "prefix 0: stationarity gap = 0, total mass = 2 -> FAIL" in captured.out
        assert "all checks passed" not in captured.out
        assert "3 channel check(s) failed" in captured.err

    def test_verify_channel_long_horizon(self, tmp_path, capsys):
        cfg = tmp_path / "walk.cfg"
        cfg.write_text(WALK_CFG)
        assert main(
            ["verify-channel", "--config", str(cfg), "--horizon", "50", "--prefixes", "20"]
        ) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid_width = 3\n")
        assert main(
            ["simulate-discrete", "--config", str(bad), "--seed", "1", "--out", "x"]
        ) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_sampling_denominator_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "walk.cfg"
        cfg.write_text(
            DISCRETE_CFG.replace(
                "waypoints = iid-uniform", "waypoints = lazy-walk:1/10000000000000000000"
            )
        )
        out = tmp_path / "out.trace"
        assert main(
            ["simulate-discrete", "--config", str(cfg), "--seed", "1", "--out", str(out)]
        ) == 2
        assert "common denominator" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("waypoints", ["iid-uniform", "lazy-walk"])
    def test_discrete_sample_limit_exit_code(self, tmp_path, capsys, waypoints):
        # 1e11 samples would need 745 GiB of waypoint ids alone
        text = DISCRETE_CFG.replace("horizon = 500", "horizon = 100000000000")
        cfg = tmp_path / "d.cfg"
        cfg.write_text(text.replace("waypoints = iid-uniform", f"waypoints = {waypoints}"))
        out = tmp_path / "out.trace"
        assert main(
            ["simulate-discrete", "--config", str(cfg), "--seed", "1", "--out", str(out)]
        ) == 2
        assert "samples per run" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_refuses_report_past_sample_limit(self, tmp_path, capsys):
        # a 3-step trace whose header names a 200000x200000 grid: its report
        # would have 4e10 rows, and numpy once tried to allocate 298 GiB
        trace = tmp_path / "t.trace"
        save_locations(trace, JointTrace(GridSpec(2, 2), np.array([[0, 1, 3]])))
        trace.write_text(trace.read_text().replace("# grid: 2x2\n", "# grid: 200000x200000\n"))
        out = tmp_path / "report.csv"
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["analyze", "--trace", str(trace), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "configuration error: 1 node(s) x 40000000000 cells exceeds the limit of "
            f"{errors.MAX_SAMPLES} (node, cell) rows per report\n"
        )
        assert peak < 2**21
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "duration = nan",
            "duration = inf",
            "time_step = nan",
            "min_speed = nan",
            "area_width = inf",
        ],
    )
    def test_non_finite_continuous_value_exit_code(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        text, count = re.subn(rf"^{key} = .*$", line, CONTINUOUS_CFG, flags=re.MULTILINE)
        assert count == 1
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.pos"
        assert main(
            ["simulate-continuous", "--config", str(cfg), "--seed", "1", "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"'{key}'" in err
        assert not out.exists()

    def test_continuous_sample_limit_exit_code(self, tmp_path, capsys):
        # duration / time_step overflows to inf
        text = CONTINUOUS_CFG.replace("duration = 30", "duration = 1e300")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text.replace("time_step = 0.5", "time_step = 1e-10"))
        out = tmp_path / "out.pos"
        for command in ("simulate-continuous", "export"):
            assert main(
                [command, "--config", str(cfg), "--seed", "1", "--out", str(out)]
            ) == 2
            assert "samples per run" in capsys.readouterr().err
            assert not out.exists()

    def test_continuous_leg_limit_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(continuous, "MAX_LEGS", 2)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(CONTINUOUS_CFG)
        out = tmp_path / "out.pos"
        for command in ("simulate-continuous", "export"):
            assert main(
                [command, "--config", str(cfg), "--seed", "1", "--out", str(out)]
            ) == 2
            assert "limit of 2 legs per run" in capsys.readouterr().err
            assert not out.exists()

    def test_continuous_output_bytes_pinned(self, tmp_path):
        # digests of both outputs as written by the per-sample leg sampler and
        # the per-row position formatter, before either was vectorized
        cfg = tmp_path / "pinned.cfg"
        cfg.write_text(PINNED_CFG)
        positions, script = tmp_path / "p.trace", tmp_path / "m.tcl"
        assert main(
            ["simulate-continuous", "--config", str(cfg), "--seed", "11", "--out", str(positions)]
        ) == 0
        assert main(
            ["export", "--config", str(cfg), "--seed", "11", "--format", "ns2", "--out", str(script)]
        ) == 0
        assert sha256(positions.read_bytes()).hexdigest() == (
            "400b83be15e72893defed9d8481dfeddbb57f5b619a331355f56ad7882eb2490"
        )
        assert sha256(script.read_bytes()).hexdigest() == PINNED_NS2_SHA256

    def test_export_samples_no_positions(self, tmp_path, monkeypatch):
        # an ns-2 script is the legs, so export never samples them
        def refuse(*args):
            raise AssertionError("export sampled positions")

        monkeypatch.setattr(continuous, "_sample_legs", refuse)
        cfg = tmp_path / "pinned.cfg"
        cfg.write_text(PINNED_CFG)
        script = tmp_path / "m.tcl"
        assert main(
            ["export", "--config", str(cfg), "--seed", "11", "--format", "ns2", "--out", str(script)]
        ) == 0
        assert sha256(script.read_bytes()).hexdigest() == PINNED_NS2_SHA256

    def test_export_to_a_pipe_writes_the_pinned_script(self, tmp_path, capsys):
        # the script is written in order and never sought, so a pipe
        # carries the bytes a file holds; they fit in the pipe's buffer
        cfg = tmp_path / "pinned.cfg"
        cfg.write_text(PINNED_CFG)
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as reader:
            try:
                code = main(
                    ["export", "--config", str(cfg), "--seed", "11", "--out", f"/dev/fd/{write_end}"]
                )
            finally:
                os.close(write_end)
            script = reader.read()
        assert code == 0
        assert sha256(script).hexdigest() == PINNED_NS2_SHA256
        assert "exported ns2 movement for 3 node(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                DISCRETE_CFG.replace("horizon = 500", "horizon = 2000"),
                "3d69c67e171c84acd89015711c1193d5791bf1e7916c1c304eb3d1dd6d8c91f2",
            ),
            (
                # slow mixing: 2 of the 24 cells are still unconverged
                "grid_width = 4\ngrid_height = 3\nspeeds = 1, 3/2\n"
                "horizon = 3000\nnodes = 2\nwaypoints = lazy-walk\n",
                "b5a7963839a926d16362fefd44bfa755afa027aef77ae14b76be8283f94a962c",
            ),
        ],
        ids=["iid", "lazy-walk"],
    )
    def test_analyze_report_pinned(self, tmp_path, config, digest):
        # digests of the reports written by one time_average per (node, cell)
        cfg = tmp_path / "d.cfg"
        cfg.write_text(config)
        trace, report = tmp_path / "t.trace", tmp_path / "r.csv"
        assert main(
            ["simulate-discrete", "--config", str(cfg), "--seed", "5", "--out", str(trace)]
        ) == 0
        assert main(
            ["analyze", "--trace", str(trace), "--config", str(cfg), "--out", str(report)]
        ) == 0
        assert sha256(report.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "waypoints, digest, width, height",
        DISCRETE_TRACE_PINS,
        ids=[
            f"{waypoints}-{digest}" + ("" if (width, height) == (12, 11) else f"-{width}x{height}")
            for waypoints, digest, width, height in DISCRETE_TRACE_PINS
        ],
    )
    def test_simulate_discrete_trace_pinned(self, tmp_path, waypoints, digest, width, height):
        # digests of traces written by the per-row writer from every drawn
        # path's encoding; 11 nodes on a 12-wide grid give two-digit node ids
        # and coordinates. The lazy walks pin the Markov sampler's draws at
        # three stay probabilities and on a strip, whose end cells have one
        # neighbor
        cfg = tmp_path / "d.cfg"
        cfg.write_text(
            f"grid_width = {width}\ngrid_height = {height}\nspeeds = 1, 3/2, 2\n"
            f"horizon = 1500\nnodes = 11\nwaypoints = {waypoints}\n"
        )
        trace = tmp_path / "t.trace"
        assert main(
            ["simulate-discrete", "--config", str(cfg), "--seed", "5", "--out", str(trace)]
        ) == 0
        assert sha256(trace.read_bytes()).hexdigest() == digest

    def test_missing_config_exit_code(self):
        assert main(
            ["simulate-discrete", "--config", "/no/such/file", "--seed", "1", "--out", "x"]
        ) == 2

    def test_missing_trace_exit_code(self, capsys):
        assert main(["analyze", "--trace", "/no/such/trace", "--out", "x"]) == 2
        assert "trace file not found" in capsys.readouterr().err

    def test_capacity_exit_code(self, tmp_path, capsys, monkeypatch):
        d, _ = self.write_cfgs(tmp_path)
        monkeypatch.setenv("RWMM_ENUM_CAP", "5")
        assert main(["verify-channel", "--config", str(d)]) == 3
        assert "capacity exceeded" in capsys.readouterr().err

    def test_speed_past_int64_exit_code(self, tmp_path, capsys):
        # a 2x2 grid at speed 1/10^12 samples about 1.4e12 cells a trip, and its
        # sample arithmetic needs integers past 2^62: refused before any table
        d = tmp_path / "d.cfg"
        d.write_text("grid_width = 2\ngrid_height = 2\nspeeds = 1/1000000000000\nhorizon = 10\n")
        out = tmp_path / "out.trace"
        started = time.perf_counter()
        assert main(["simulate-discrete", "--config", str(d), "--seed", "1", "--out", str(out)]) == 3
        assert time.perf_counter() - started < 1.0
        assert "1/1000000000000 on a 2x2 grid" in capsys.readouterr().err
        assert not out.exists()

    def test_verification_exit_code_on_tampered_trace(self, tmp_path, capsys):
        d, _ = self.write_cfgs(tmp_path)
        trace = tmp_path / "out.trace"
        main(["simulate-discrete", "--config", str(d), "--seed", "3", "--out", str(trace)])
        body = trace.read_text()
        lines = body.splitlines()
        lines[-1] = lines[-1][:-1] + ("0" if not lines[-1].endswith("0") else "1")
        trace.write_text("\n".join(lines) + "\n")
        assert main(
            ["analyze", "--trace", str(trace), "--out", str(tmp_path / "r.csv")]
        ) == 4
        assert "verification failed" in capsys.readouterr().err

    def test_analyze_refuses_reordered_rows(self, tmp_path, capsys):
        d, _ = self.write_cfgs(tmp_path)
        trace = tmp_path / "out.trace"
        main(["simulate-discrete", "--config", str(d), "--seed", "3", "--out", str(trace)])

        def swap(rows):
            rows[1], rows[2] = rows[2], rows[1]  # node 0's steps 1 and 2

        rewrite_body(trace, swap)
        assert main(["analyze", "--trace", str(trace), "--out", str(tmp_path / "r.csv")]) == 2
        assert "node 0 is missing steps or holds them out of order" in capsys.readouterr().err

    def test_analyze_rejects_mismatched_config(self, tmp_path, capsys):
        d, _ = self.write_cfgs(tmp_path)
        trace = tmp_path / "out.trace"
        main(["simulate-discrete", "--config", str(d), "--seed", "3", "--out", str(trace)])
        other = tmp_path / "other.cfg"
        other.write_text(DISCRETE_CFG.replace("horizon = 500", "horizon = 400"))
        assert main(
            [
                "analyze",
                "--trace", str(trace),
                "--config", str(other),
                "--out", str(tmp_path / "r.csv"),
            ]
        ) == 2

    @pytest.mark.parametrize("source", ["config-none", "edited-header"])
    def test_analyze_rejects_trace_on_another_grid(self, tmp_path, capsys, source):
        d, _ = self.write_cfgs(tmp_path)  # a 3x3 grid
        trace = tmp_path / "out.trace"
        if source == "config-none":  # no config digest to cross-check
            save_locations(trace, JointTrace(GridSpec(4, 3), np.zeros((2, 10), dtype=np.int64)))
        else:  # the digest matches; the header's grid was edited by hand
            main(["simulate-discrete", "--config", str(d), "--seed", "3", "--out", str(trace)])
            trace.write_text(trace.read_text().replace("# grid: 3x3\n", "# grid: 4x3\n"))
        report = tmp_path / "r.csv"
        assert main(
            ["analyze", "--trace", str(trace), "--config", str(d), "--out", str(report)]
        ) == 2
        assert "trace is on a 4x3 grid, the config's grid is 3x3" in capsys.readouterr().err

    def test_export_ns2_deterministic(self, tmp_path):
        _, c = self.write_cfgs(tmp_path)
        m1, m2 = tmp_path / "a.tcl", tmp_path / "b.tcl"
        for out in (m1, m2):
            assert main(
                ["export", "--config", str(c), "--seed", "4", "--format", "ns2", "--out", str(out)]
            ) == 0
        assert m1.read_bytes() == m2.read_bytes()
        parse_ns2(m1.read_text())  # well-formed
