"""Config parsing, trace file, and command-line behavior tests."""

import pathlib
import re
import tempfile

import numpy as np
import pytest
from fractions import Fraction
from hashlib import sha256
from hypothesis import given
from hypothesis import strategies as st

from rwmm.cli import main
from rwmm.config import (
    config_digest,
    load_continuous_config,
    load_discrete_config,
)
from rwmm.continuous import simulate_continuous
from rwmm.errors import ConfigurationError, VerificationError
from rwmm.geometry import Cell, GridSpec
from rwmm.io import (
    export_csv_report,
    export_ns2,
    load_locations,
    load_positions,
    parse_ns2,
    save_locations,
    save_positions,
)
from rwmm.location import JointTrace, LocationTrace

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
        assert spec.transition is not None
        assert spec.transition[0][0] == Fraction(1, 3)

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

    def test_continuous_happy_path(self):
        cfg = load_continuous_config(CONTINUOUS_CFG)
        assert cfg.area().pause_time == 0.5
        assert cfg.nodes == 2

    def test_continuous_degenerate_speed(self):
        with pytest.raises(ConfigurationError):
            load_continuous_config(CONTINUOUS_CFG.replace("min_speed = 1", "min_speed = 0"))

    def test_digest_ignores_comments_and_order(self):
        base = config_digest(DISCRETE_CFG)
        reordered = config_digest(
            "waypoints = iid-uniform\nnodes = 2\nhorizon = 500\n"
            "speeds = 1, 2\ngrid_height = 3\ngrid_width = 3\n# different comment\n"
        )
        assert base == reordered
        changed = config_digest(DISCRETE_CFG.replace("horizon = 500", "horizon = 501"))
        assert changed != base


def rewrite_body(path, edit):
    """Apply ``edit`` to a trace's body rows (header row excluded) and re-sign the body."""
    lines = path.read_text().splitlines()
    split = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    rows = lines[split + 1 :]
    edit(rows)
    body = "\n".join([lines[split], *rows]) + "\n"
    header = [
        f"# body: {sha256(body.encode()).hexdigest()}" if line.startswith("# body:") else line
        for line in lines[:split]
    ]
    path.write_text("\n".join(header) + "\n" + body)


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
        assert np.allclose(positions, trace.positions, atol=1e-6)

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
            for t, (x, y) in zip(trace.times, trace.positions[node])
        ]

    def test_late_out_of_grid_cell_named(self, tmp_path):
        grid = GridSpec(3, 2)
        path = tmp_path / "t.trace"
        save_locations(path, JointTrace(grid, np.zeros((2, 50), dtype=np.int64)))

        def edit(rows):
            # node 1, steps 47 and 49 leave the grid; step 49's row comes first
            rows[97] = "1,47,3,0"
            rows[99] = "1,49,0,2"
            rows[97], rows[99] = rows[99], rows[97]

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
            (99, "0,50,0,0", "node 0 is missing steps"),  # node 1 is short, but 0 first
            (99, "0,0,0,0", "node 0 is missing steps"),  # node 0's step 0 duplicated
            (53, "1,-3,0,0", "node 1 is missing steps"),
            (5, "0,5,-1,0", r"cell \(-1, 0\) outside GridSpec"),
            (5, "0,5,1,2", r"cell \(1, 2\) outside GridSpec"),  # x in range, y not
            (53, "-1,3,0,0", "negative node id -1"),
            (53, "1,3,0", "malformed location trace row"),
            (53, "1,3,0,x", "malformed location trace row"),
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
            rows[60] = "1,49,0,0"  # node 1 is missing step 10
            rows[10] = "0,10,3,0"  # node 0 leaves the grid

        with pytest.raises(ConfigurationError, match=r"cell \(3, 0\) outside GridSpec"):
            load_locations(self._edited_locations(tmp_path, edit))

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 40),
        st.randoms(use_true_random=False),
    )
    def test_locations_load_rows_in_any_order(self, width, height, nodes, steps, rnd):
        grid = GridSpec(width, height)
        ids = np.array(
            [[rnd.randrange(grid.size) for _ in range(steps)] for _ in range(nodes)]
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "t.trace"
            save_locations(path, JointTrace(grid, ids))
            rewrite_body(path, rnd.shuffle)
            loaded, _ = load_locations(path)
        assert np.array_equal(loaded.ids, ids)

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

    def test_kind_mismatch(self, tmp_path):
        grid = GridSpec(2, 2)
        path = tmp_path / "t.trace"
        save_locations(path, LocationTrace(grid, np.array([0, 1])))
        with pytest.raises(ConfigurationError):
            load_positions(path)


class TestNs2:
    def test_round_trip(self, tmp_path):
        from rwmm.continuous import ContinuousAreaSpec

        area = ContinuousAreaSpec(300, 300, 1, 5, pause_time=1.0)
        trace = simulate_continuous(area, 3, 40, 1.0, seed=4)
        path = tmp_path / "m.tcl"
        export_ns2(path, trace)
        script = parse_ns2(path.read_text())
        assert set(script.initial) == {0, 1, 2}
        for node, legs in enumerate(trace.legs):
            assert script.initial[node][0] == pytest.approx(legs[0].x0, abs=1e-6)
            assert script.initial[node][1] == pytest.approx(legs[0].y0, abs=1e-6)
        travel_legs = sum(
            1 for legs in trace.legs for leg in legs if leg.speed > 0
        )
        assert len(script.moves) == travel_legs
        by_node = {}
        for t, node, x, y, speed in script.moves:
            by_node.setdefault(node, []).append((t, x, y, speed))
        for node, legs in enumerate(trace.legs):
            moving = [leg for leg in legs if leg.speed > 0]
            assert len(by_node[node]) == len(moving)
            for (t, x, y, speed), leg in zip(by_node[node], moving):
                assert t == pytest.approx(leg.start_time, abs=1e-6)
                assert x == pytest.approx(leg.x1, abs=1e-6)
                assert speed == pytest.approx(leg.speed, abs=1e-6)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_ns2("$node_(0) set X_ 1.0\nwhat is this\n")


class TestCsvReport:
    def test_formatting(self, tmp_path):
        path = tmp_path / "r.csv"
        export_csv_report(
            path,
            ("name", "value", "count"),
            [("a", 0.123456789123456, 3), ("b", 1e-12, 0)],
        )
        text = path.read_text()
        assert text.splitlines()[0] == "name,value,count"
        assert "0.123456789" in text
        assert "1e-12" in text

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError):
            export_csv_report(tmp_path / "r.csv", ("a", "b"), [(1,)])


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
        # digest of the output of the enumerating checks; both horizons draw
        # the same six-waypoint prefixes and print the same lines
        cfg = tmp_path / "walk.cfg"
        cfg.write_text(WALK_CFG)
        argv = ["verify-channel", "--config", str(cfg), "--seed", "7", "--horizon", horizon]
        assert main(argv + ["--prefixes", "20"]) == 0
        assert sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "77dede0d8b4359310c1b08828d0becc3ad5d0d9ee459aec2748b8d10ca16cf88"
        )

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
        assert sha256(script.read_bytes()).hexdigest() == (
            "97c632dbec694b6c516b57655a442fa765544393326c69dbf9beee27cf73587d"
        )

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

    def test_export_ns2_deterministic(self, tmp_path):
        _, c = self.write_cfgs(tmp_path)
        m1, m2 = tmp_path / "a.tcl", tmp_path / "b.tcl"
        for out in (m1, m2):
            assert main(
                ["export", "--config", str(c), "--seed", "4", "--format", "ns2", "--out", str(out)]
            ) == 0
        assert m1.read_bytes() == m2.read_bytes()
        parse_ns2(m1.read_text())  # well-formed
