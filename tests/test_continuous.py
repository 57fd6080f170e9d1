"""Continuous-motion, grid-bridge, and traffic-proxy tests.

Discretization and traffic expectations are asserted on hand-built legs and
position arrays where every number can be checked on paper; the simulator
itself is tested for shape, determinism, and structural invariants, its leg
tables are held bit for bit to ``oracles.draw_legs_per_trip`` and its
sampled positions to ``oracles.sample_legs_per_step``.
"""

import math
import pathlib
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    discretize_per_sample,
    draw_legs_per_trip,
    sample_legs_per_step,
)
from rwmm import continuous, errors
from rwmm.continuous import (
    DURATION,
    SPEED,
    START,
    X0,
    X1,
    Y0,
    Y1,
    ContinuousAreaSpec,
    ContinuousTrace,
    _sample_legs,
    discretize,
    mean_speeds,
    simulate_continuous,
    traffic_proxy,
)
from rwmm.errors import ConfigurationError
from rwmm.geometry import Cell, GridSpec
from rwmm.io import export_ns2, load_positions, save_positions


def table(*rows):
    """A leg table: one ``(start, duration, x0, y0, x1, y1, speed)`` row per leg."""
    return np.array(rows, dtype=float)


def build_trace(area, legs_per_node, time_step=1.0, steps=None):
    """Assemble a ContinuousTrace from explicit leg tables."""
    duration = max((legs[:, START] + legs[:, DURATION]).max() for legs in legs_per_node)
    if steps is None:
        steps = int(math.floor(duration / time_step)) + 1
    return ContinuousTrace(area, time_step, steps, tuple(legs_per_node))


def sampled(legs, times):
    """The positions ``_sample_legs`` writes for a leg table at ``times``."""
    out = np.empty((len(times), 2))
    _sample_legs(legs, times, out)
    return out


# a few instants that several legs start or end at, so that zero-duration
# legs pile up on one end and samples land exactly on leg ends
INSTANTS = st.sampled_from([0.0, 0.5, 1.0, 2.5])


@st.composite
def legs_and_times(draw):
    """A leg table with ends that do not decrease, and ascending times around it."""
    leg = st.tuples(
        st.one_of(INSTANTS, st.floats(-1.0, 5.0)),
        st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        *[st.floats(-100.0, 100.0)] * 4,
        st.floats(0.0, 20.0),
    )
    legs = table(*draw(st.lists(leg, min_size=1, max_size=8)))
    ends = legs[:, START] + legs[:, DURATION]  # as the sampler adds them
    legs = legs[np.argsort(ends, kind="stable")]
    # times before the first start, past the last end, at ends and between
    # them, none on a regular grid
    time = st.one_of(INSTANTS, st.sampled_from(sorted(ends)), st.floats(-3.0, 12.0))
    return legs, sorted(draw(st.lists(time, max_size=40)))


class TestAreaSpec:
    def test_zero_min_speed_rejected(self):
        with pytest.raises(ConfigurationError):
            ContinuousAreaSpec(100, 100, min_speed=0.0, max_speed=10.0)

    def test_empty_speed_range_rejected(self):
        with pytest.raises(ConfigurationError):
            ContinuousAreaSpec(100, 100, min_speed=5.0, max_speed=4.0)

    def test_bad_extent_rejected(self):
        with pytest.raises(ConfigurationError):
            ContinuousAreaSpec(0, 100, min_speed=1, max_speed=2)

    def test_negative_pause_rejected(self):
        with pytest.raises(ConfigurationError):
            ContinuousAreaSpec(10, 10, min_speed=1, max_speed=2, pause_time=-1)

    @pytest.mark.parametrize("field", ["width", "height", "min_speed", "max_speed", "pause_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        values = dict(width=10, height=10, min_speed=1, max_speed=2, pause_time=0)
        values[field] = value
        with pytest.raises(ConfigurationError, match=f"must be finite, got .*{field}={value}"):
            ContinuousAreaSpec(**values)


class TestLeg:
    """One leg-table row sampled through ``_sample_legs``."""

    def test_position_interpolates(self):
        leg = table((1.0, 2.0, 0, 0, 4, 2, 2.5))
        positions = sampled(leg, np.array([1.0, 2.0, 3.0, 99.0])).tolist()
        assert positions[:3] == [[0, 0], [2, 1], [4, 2]]
        assert positions[3] == [4, 2]  # clamped

    def test_zero_duration(self):
        leg = table((0, 0, 1, 1, 1, 1, 0))
        assert sampled(leg, np.array([0.0])).tolist() == [[1, 1]]


class TestSimulate:
    AREA = ContinuousAreaSpec(300, 200, min_speed=2, max_speed=8)

    @pytest.mark.parametrize(
        "nodes, error",
        [
            ([-1], r"node id -1 outside \[0, 2\) for this run"),  # once the last node
            ([2], r"node id 2 outside \[0, 2\) for this run"),  # once a bare IndexError
            ([True], "node id True is not an integer"),  # once node 1
            ([0, 1.0], "node id 1.0 is not an integer"),
        ],
    )
    def test_positions_refuses_bad_node(self, nodes, error):
        trace = simulate_continuous(self.AREA, 2, duration=5, time_step=0.5, seed=1)
        with pytest.raises(ValueError, match=error):
            trace.positions(nodes)

    def test_shapes_and_bounds(self):
        trace = simulate_continuous(self.AREA, 4, duration=60, time_step=0.5, seed=1)
        positions = trace.positions(range(4))
        assert positions.shape == (4, 121, 2)
        assert trace.times[0] == 0
        assert trace.times[-1] == pytest.approx(60)
        assert (positions[..., 0] >= 0).all()
        assert (positions[..., 0] <= 300).all()
        assert (positions[..., 1] >= 0).all()
        assert (positions[..., 1] <= 200).all()

    def test_deterministic(self):
        a = simulate_continuous(self.AREA, 3, 30, 0.25, seed=5)
        b = simulate_continuous(self.AREA, 3, 30, 0.25, seed=5)
        c = simulate_continuous(self.AREA, 3, 30, 0.25, seed=6)
        nodes = range(3)
        assert np.array_equal(a.positions(nodes), b.positions(nodes))
        assert not np.array_equal(a.positions(nodes), c.positions(nodes))

    def test_legs_cover_duration_and_chain(self):
        trace = simulate_continuous(self.AREA, 2, 40, 1.0, seed=2)
        for legs in trace.legs:
            assert legs.shape[1] == 7
            end = legs[:, START] + legs[:, DURATION]
            assert legs[0, START] == 0
            assert end[-1] > 40
            assert legs[1:, START] == pytest.approx(end[:-1])
            assert np.array_equal(legs[1:, [X0, Y0]], legs[:-1, [X1, Y1]])
            speeds = legs[legs[:, SPEED] > 0, SPEED]
            assert ((self.AREA.min_speed <= speeds) & (speeds <= self.AREA.max_speed)).all()

    def test_pause_legs_present_when_configured(self):
        area = ContinuousAreaSpec(100, 100, 1, 5, pause_time=2.0)
        trace = simulate_continuous(area, 1, 50, 1.0, seed=3)
        legs = trace.legs[0]
        pauses = legs[legs[:, SPEED] == 0]
        assert len(pauses)
        assert (pauses[:, DURATION] == 2.0).all()
        no_pause = simulate_continuous(self.AREA, 1, 50, 1.0, seed=3)
        assert (no_pause.legs[0][:, SPEED] > 0).all()

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            simulate_continuous(self.AREA, 0, 10, 1, seed=0)
        with pytest.raises(ConfigurationError):
            simulate_continuous(self.AREA, 1, 0, 1, seed=0)

    @pytest.mark.parametrize(
        "duration, time_step",
        [(math.nan, 1.0), (math.inf, 1.0), (10.0, math.nan), (10.0, math.inf)],
    )
    def test_non_finite_duration_or_step(self, duration, time_step):
        with pytest.raises(ConfigurationError, match="finite"):
            simulate_continuous(self.AREA, 1, duration, time_step, seed=0)

    @pytest.mark.parametrize(
        "duration, time_step",
        [(1e300, 1e-10), (1e12, 1.0), (1.0, 1e-8), (float(errors.MAX_SAMPLES), 1.0)],
    )
    def test_sample_limit_refused_before_allocating(self, monkeypatch, duration, time_step):
        # 1e300 / 1e-10 overflows to inf; the others are finite but too many
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the sample limit was checked")

        monkeypatch.setattr(np, "arange", refuse)
        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(ConfigurationError, match="limit"):
            simulate_continuous(self.AREA, 1, duration, time_step, seed=0)

    @pytest.mark.parametrize(
        "nodes, duration, allowed", [(2, 9.0, True), (2, 10.0, False), (3, 9.0, False)]
    )
    def test_sample_limit_counts_nodes_times_samples(
        self, monkeypatch, nodes, duration, allowed
    ):
        # 10 samples per node at duration 9 and step 1, 11 at duration 10
        monkeypatch.setattr(errors, "MAX_SAMPLES", 20)
        if allowed:
            trace = simulate_continuous(self.AREA, nodes, duration, 1.0, seed=0)
            assert trace.positions(range(nodes)).shape[:2] == (nodes, 10)
        else:
            with pytest.raises(ConfigurationError, match="limit of 20"):
                simulate_continuous(self.AREA, nodes, duration, 1.0, seed=0)

    @pytest.mark.parametrize("pause", [0.0, 1.0])
    def test_leg_limit_counts_every_node(self, monkeypatch, pause):
        area = ContinuousAreaSpec(300, 200, min_speed=2, max_speed=8, pause_time=pause)
        legs = sum(map(len, simulate_continuous(area, 3, 500.0, 100.0, seed=4).legs))
        monkeypatch.setattr(continuous, "MAX_LEGS", legs)
        simulate_continuous(area, 3, 500.0, 100.0, seed=4)
        monkeypatch.setattr(continuous, "MAX_LEGS", legs - 1)
        with pytest.raises(ConfigurationError, match=f"limit of {legs - 1} legs"):
            simulate_continuous(area, 3, 500.0, 100.0, seed=4)

    @given(
        st.floats(0.5, 1000.0),
        st.floats(0.5, 1000.0),
        st.floats(0.1, 20.0),
        st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        st.one_of(st.just(0.0), st.floats(0.01, 10.0), st.floats(300.0, 1e4)),
        st.floats(1e-3, 300.0),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_legs_equal_per_trip_oracle(
        self, width, height, min_speed, spread, pause, duration, nodes, seed
    ):
        # spread 0 is a fixed speed; pause 0 leaves out pause legs, and a
        # pause over 300 outlasts every run
        area = ContinuousAreaSpec(width, height, min_speed, min_speed + spread, pause)
        trace = simulate_continuous(area, nodes, duration, 1.0, seed)
        expected = draw_legs_per_trip(area, nodes, duration, seed)
        assert [legs.tobytes() for legs in trace.legs] == [legs.tobytes() for legs in expected]

    @pytest.mark.parametrize("block", [1, 2, 3, 2**10])
    def test_runs_ending_on_either_leg_equal_oracle(self, monkeypatch, block):
        # a pause of 20 against trips of about 30 ends some runs on a pause
        # and some on a trip, whatever trip of its block the run ends on
        monkeypatch.setattr(continuous, "_BLOCK_TRIPS", block)
        area = ContinuousAreaSpec(300, 200, 2, 8, pause_time=20.0)
        ends_on_pause = set()
        for seed in range(10):
            trace = simulate_continuous(area, 2, 300.0, 1.0, seed)
            expected = draw_legs_per_trip(area, 2, 300.0, seed)
            assert [legs.tobytes() for legs in trace.legs] == [l.tobytes() for l in expected]
            ends_on_pause |= {bool(legs[-1, SPEED] == 0) for legs in trace.legs}
        assert ends_on_pause == {True, False}

    @pytest.mark.parametrize(
        "area, duration, legs",
        [
            # a trip of a few hundred time units ends a run of 1e-6
            (ContinuousAreaSpec(1000, 1000, 1, 1, pause_time=1.0), 1e-6, 1),
            # a trip of under 0.015, then a pause longer than the run
            (ContinuousAreaSpec(1, 1, 100, 100, pause_time=50.0), 10.0, 2),
        ],
        ids=["one-trip", "pause-past-the-run"],
    )
    def test_short_runs_equal_oracle(self, area, duration, legs):
        trace = simulate_continuous(area, 3, duration, duration, seed=8)
        assert [len(table) for table in trace.legs] == [legs] * 3
        expected = draw_legs_per_trip(area, 3, duration, seed=8)
        assert [table.tobytes() for table in trace.legs] == [t.tobytes() for t in expected]

    def test_drawing_memory_is_bounded_per_leg(self):
        # a node's legs are held as block tables and then joined, 56 bytes
        # a leg each (113 bytes a leg measured); as tuples they took 264
        area = ContinuousAreaSpec(10, 10, 100, 100, pause_time=0.01)
        tracemalloc.start()
        try:
            trace = simulate_continuous(area, 1, 5000.0, 1000.0, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        legs = len(trace.legs[0])
        assert legs > 10**5
        assert peak / legs < 130

    def test_leg_limit_refused_within_one_block(self, monkeypatch):
        # the run would draw about 10**6 legs, over 100 MB; it stops one
        # block past the limit
        monkeypatch.setattr(continuous, "MAX_LEGS", 1000)
        area = ContinuousAreaSpec(10, 10, 100, 100, pause_time=0.01)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="limit of 1000 legs"):
                simulate_continuous(area, 1, 3e4, 1e3, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sampling_memory_is_bounded_per_sample(self):
        # the positions a node is sampled to take 16 bytes a sample and the
        # times 8; the interpolation's temporaries live one block at a time
        # (all at once they took about 114 bytes a sample)
        samples = 2 * 10**6
        area = ContinuousAreaSpec(1000, 1000, min_speed=1, max_speed=2)
        tracemalloc.start()
        try:
            trace = simulate_continuous(area, 1, samples - 1, 1.0, seed=1)
            assert trace.positions([0]).shape == (1, samples, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.step_count == samples
        assert peak / samples < 40

    def test_blocks_do_not_change_positions(self, monkeypatch):
        area = ContinuousAreaSpec(300, 200, min_speed=2, max_speed=8, pause_time=1.0)
        trace = simulate_continuous(area, 2, 100.0, 0.25, seed=5)
        whole = trace.positions(range(2))
        monkeypatch.setattr(continuous, "_BLOCK_SAMPLES", 7)
        assert trace.positions(range(2)).tobytes() == whole.tobytes()

    @given(
        st.floats(1.0, 1000.0),
        st.floats(1.0, 1000.0),
        st.floats(0.1, 20.0),
        st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
        st.floats(0.5, 200.0),
        st.floats(0.05, 5.0),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_positions_equal_per_sample_oracle(
        self, width, height, min_speed, spread, pause, duration, time_step, nodes, seed
    ):
        # spread 0 is a fixed speed; pause 0 leaves out pause legs
        area = ContinuousAreaSpec(width, height, min_speed, min_speed + spread, pause)
        trace = simulate_continuous(area, nodes, duration, time_step, seed)
        expected = np.stack([sample_legs_per_step(legs, trace.times) for legs in trace.legs])
        assert np.array_equal(trace.positions(range(nodes)), expected)


# values no simulator draws: NaN, infinities, the largest floats, -0.0 and a
# subnormal, beside ordinary ones
ODD = st.sampled_from([math.nan, math.inf, -math.inf, 1.7976931348623157e308, -1e308, -0.0, 5e-324])


@st.composite
def runs(draw):
    """The arguments of a ``ContinuousTrace`` of 1-3 nodes, some of which it refuses.

    A node's legs start at a drawn time and each next one a drawn gap after
    the one before it ends. Then up to two values, any column of any leg,
    are replaced by an odd value or a negative one, which may overlap two
    legs. Durations are drawn below 10 or odd but below 1e300, speeds below
    20 or odd, and time steps from 0.05 or odd, so that no reader takes more
    than a few thousand samples.
    """
    leg = st.tuples(
        st.floats(0.0, 2.0),  # the gap before the leg
        st.floats(0.0, 10.0),
        *[st.floats(-20.0, 20.0)] * 4,
        st.floats(0.0, 20.0),
    )
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        legs = table(*draw(st.lists(leg, min_size=1, max_size=5)))
        gaps = legs[:, START].copy()
        legs[0, START] = draw(st.floats(-5.0, 5.0))
        for i in range(1, len(legs)):
            legs[i, START] = legs[i - 1, START] + legs[i - 1, DURATION] + gaps[i]
        tables.append(legs)
    for _ in range(draw(st.integers(0, 2))):
        legs = draw(st.sampled_from(tables))
        row, column = draw(st.integers(0, len(legs) - 1)), draw(st.integers(0, 6))
        odd = ODD.filter(lambda v: abs(v) < 1e300) if column == DURATION else ODD
        legs[row, column] = draw(st.one_of(odd, st.just(-1.0)))
    # no subnormal step: discretize would take up to MAX_SAMPLES samples
    odd = st.sampled_from([math.nan, math.inf, -math.inf, 1.7976931348623157e308, 0.0, -1.0])
    time_step = draw(st.one_of(*[st.floats(0.05, 10.0)] * 6, odd))
    return time_step, draw(st.integers(1, 30)), tuple(tables)


class TestRunRules:
    """A run is refused when it is made, or every reader gives finite or in-grid output."""

    AREA = ContinuousAreaSpec(10, 10, 1, 2)
    LEG = (0.0, 2.0, 1.0, 1.0, 5.0, 3.0, 2.0)

    @settings(max_examples=200)
    @given(runs())
    @example((0.5, 11, (table((0.0, 2.0, 1.0, 1.0, math.nan, 3.0, 2.0)),)))
    @example((0.5, 11, ()))
    @example((0.5, 11, (table((0.0, 2.0, 1.0, 1.0, 5.0, 3.0, 2.0), (1.0, 2.0, 5, 3, 1, 1, 2.0)),)))
    @example((1e308, 11, (table((0.0, 2.0, 1.0, 1.0, 5.0, 3.0, 2.0)),)))
    def test_refused_or_read_finite(self, run):
        time_step, steps, tables = run
        try:
            trace = ContinuousTrace(self.AREA, time_step, steps, tables)
        except ValueError:
            return
        nodes = range(trace.node_count)
        assert np.isfinite(trace.times).all()
        assert np.isfinite(trace.positions(nodes)).all()
        if trace.node_count > 1:
            report = traffic_proxy(trace, [(0, 1)], bitrate=1.0, reach=3.0)
            for values in (report.times, report.offered, report.delivered):
                assert np.isfinite(values).all()
        grid = GridSpec(5, 5)
        for node in nodes:
            located = discretize(trace, grid, node)
            assert ((located.ids >= 0) & (located.ids < grid.size)).all()
        assert all(map(math.isfinite, mean_speeds(trace)))
        with tempfile.TemporaryDirectory() as tmp:
            script = pathlib.Path(tmp) / "m.tcl"
            export_ns2(script, trace)
            assert not re.search(r"nan|inf", script.read_text())
            save_positions(pathlib.Path(tmp) / "c.trace", trace)
            times, positions, _ = load_positions(pathlib.Path(tmp) / "c.trace")
        assert positions.shape == (trace.node_count, steps, 2)

    @pytest.mark.parametrize(
        "time_step, steps, tables, error",
        [
            (
                0.5, 11, [table((0.0, 2.0, 1.0, 1.0, math.nan, 3.0, 2.0))],
                "node 0's leg 0 holds a value that is not finite",
            ),
            (0.5, 11, [], "nodes, steps and a finite time step must be > 0: 0, 11, 0.5"),
            (0.5, 0, [table(LEG)], "nodes, steps and a finite time step must be > 0: 1, 0, 0.5"),
            (
                0.5, 11, [table(LEG), table(LEG, (1.0, 2.0, 5.0, 3.0, 1.0, 1.0, 2.0))],
                "node 1's leg 0 overlaps the next leg",
            ),
            (1e308, 11, [table(LEG)], "11 steps of 1e+308 overflow the last sample time"),
            (
                0.5, 11, [table((0.0, -1.0, 1.0, 1.0, 1.0, 1.0, 0.0))],
                "node 0's leg 0 has a negative duration",
            ),
            (
                0.5, 11, [table((0.0, 2.0, -1e308, 0.0, 1e308, 0.0, 2.0))],
                "node 0's leg 0 ends at a point that is not finite",
            ),
            (0.5, 2.5, [table(LEG)], "the step count must be an int below 2**63, got 2.5"),
            (0.5, 10**400, [table(LEG)], "the step count must be an int below 2**63, got 1000"),
        ],
        ids=[
            "nan-x1", "no-nodes", "no-steps", "overlap", "huge-step", "negative-duration",
            "end-overflows", "fractional-steps", "steps-past-int64",
        ],
    )
    def test_refused_when_made(self, time_step, steps, tables, error):
        # each once met a reader: the NaN became cell id -9223372036854775788
        # and "setdest nan", no nodes a bare numpy error in mean_speeds and
        # export_ns2, the overlap wrong positions, the huge step an inf time,
        # 2.5 steps 3 sample times and 10**400 steps a bare OverflowError
        with pytest.raises(ValueError, match=re.escape(error)):
            ContinuousTrace(self.AREA, time_step, steps, tuple(tables))

    def test_numpy_integer_step_count_is_accepted(self):
        trace = ContinuousTrace(self.AREA, 0.5, np.int64(3), (table(self.LEG),))
        assert trace.times.tolist() == [0.0, 0.5, 1.0]

    def test_gaps_between_legs_are_allowed(self):
        legs = table(self.LEG, (3.0, 2.0, 5.0, 3.0, 1.0, 1.0, 2.0))
        trace = ContinuousTrace(self.AREA, 0.5, 11, (legs,))
        assert trace.positions([0])[0, 5].tolist() == [5.0, 3.0]  # held still in the gap


class TestSampleLegs:
    """``_sample_legs`` on hand-built legs, by hand and against the oracle."""

    @staticmethod
    def sample(legs, times):
        times = np.array(times, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. a divide by a zero duration
            got = sampled(legs, times)
        assert np.array_equal(got, sample_legs_per_step(legs, times))
        return got.tolist()

    def test_time_at_leg_end_uses_earlier_leg(self):
        # the legs do not chain, so the two candidates at t = 2 differ
        legs = table(
            (0.0, 2.0, 0, 0, 4, 0, 2.0),
            (2.0, 2.0, 10, 10, 10, 14, 2.0),
        )
        assert self.sample(legs, [1.0, 2.0, 3.0]) == [[2, 0], [4, 0], [10, 12]]

    def test_zero_duration_leg_gives_its_end_point(self):
        # 3.0 + 1.0 * (0.1 - 3.0) is not 0.1, so interpolating at a = 1 is caught
        lone = table((1.0, 0.0, 3.0, 3.0, 0.1, 0.2, 1.0))
        assert self.sample(lone, [0.0, 1.0, 5.0]) == [[0.1, 0.2]] * 3
        first = table(
            (0.0, 0.0, 3.0, 3.0, 0.1, 0.2, 1.0),
            (0.0, 2.0, 0.1, 0.2, 2.1, 0.2, 1.0),
        )
        assert self.sample(first, [0.0, 1.0]) == [[0.1, 0.2], [1.1, 0.2]]

    def test_pause_leg_holds_position(self):
        legs = table(
            (0.0, 2.0, 0, 0, 4, 0, 2.0),
            (2.0, 3.0, 4, 0, 4, 0, 0.0),
            (5.0, 1.0, 4, 0, 4, 1, 1.0),
        )
        assert self.sample(legs, range(7)) == [
            [0, 0], [2, 0], [4, 0], [4, 0], [4, 0], [4, 0], [4, 1]
        ]

    def test_times_outside_the_legs_clamp(self):
        legs = table((1.0, 2.0, 0, 0, 4, 2, math.sqrt(5)))
        assert self.sample(legs, [0.0, 2.0, 3.0, 4.0, 100.0]) == [
            [0, 0], [2, 1], [4, 2], [4, 2], [4, 2]
        ]

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @given(legs_and_times())
    # a subnormal duration overflows (t - start) / duration to inf, clamped to 1
    @example((table((0.0, 5e-324, 3.0, 3.0, 0.1, 0.2, 1.0)), [0.5]))
    def test_drawn_legs_equal_oracle_across_blocks(self, block, drawn):
        legs, times = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(continuous, "_BLOCK_SAMPLES", block)
            self.sample(legs, times)


class TestMeanSpeeds:
    def test_slow_trips_drag_the_time_weighted_mean(self):
        area = ContinuousAreaSpec(10, 10, 1, 3)
        legs = table(
            (0.0, 3.0, 0, 0, 3, 0, 1.0),  # 3 distance in 3 time
            (3.0, 1.0, 3, 0, 6, 0, 3.0),  # 3 distance in 1 time
        )
        trace = build_trace(area, [legs])
        arithmetic, weighted = mean_speeds(trace)
        assert arithmetic == pytest.approx(2.0)
        assert weighted == pytest.approx(6 / 4)
        assert weighted < arithmetic

    def test_pauses_drag_it_further(self):
        area = ContinuousAreaSpec(10, 10, 1, 3, pause_time=2.0)
        legs = table(
            (0.0, 3.0, 0, 0, 3, 0, 1.0),
            (3.0, 2.0, 3, 0, 3, 0, 0.0),
            (5.0, 1.0, 3, 0, 6, 0, 3.0),
        )
        _, weighted = mean_speeds(build_trace(area, [legs]))
        assert weighted == pytest.approx(6 / 6)

    def test_simulated_gap(self):
        # wide speed range makes the harmonic drag visible
        area = ContinuousAreaSpec(500, 500, 0.5, 10)
        trace = simulate_continuous(area, 5, 400, 1.0, seed=7)
        arithmetic, weighted = mean_speeds(trace)
        assert weighted < arithmetic

    def test_largest_speed_does_not_overflow(self):
        # speed times duration overflowed: the weighted mean read inf
        fastest = 1.7976931348623157e308
        legs = table((0.0, 2.0, 0, 0, 1, 0, fastest), (2.0, 2.0, 1, 0, 3, 0, 1.0))
        assert mean_speeds(build_trace(ContinuousAreaSpec(10, 10, 1, 3), [legs])) == (
            fastest / 2,
            fastest / 2,
        )

    def test_longest_durations_do_not_overflow(self):
        # the distance and the elapsed time both overflowed: inf / inf
        legs = table((0.0, 1e308, 0, 0, 1, 0, 1.0), (1e308, 1e308, 1, 0, 3, 0, 3.0))
        trace = ContinuousTrace(ContinuousAreaSpec(10, 10, 1, 3), 1.0, 3, (legs,))
        assert mean_speeds(trace) == (2.0, 2.0)

    def test_equals_leg_by_leg_sums(self):
        # the running sums of a scalar loop over the legs, bit for bit
        trace = simulate_continuous(ContinuousAreaSpec(500, 500, 0.5, 10, 2.0), 3, 400, 1.0, 7)
        distance = elapsed = 0.0
        for leg in np.concatenate(trace.legs).tolist():
            distance += leg[SPEED] * leg[DURATION] if leg[SPEED] > 0 else 0.0
            elapsed += leg[DURATION]
        assert mean_speeds(trace)[1] == distance / elapsed


class TestDiscretize:
    AREA = ContinuousAreaSpec(2, 1, 1, 1)

    def test_single_leg_by_hand(self):
        leg = (0.0, 1.5, 0.2, 0.3, 1.7, 0.3, 1.0)
        trace = build_trace(self.AREA, [table(leg)], time_step=0.5)
        locations = discretize(trace, GridSpec(2, 1))
        assert [locations.cell(i) for i in range(len(locations))] == [
            Cell(0, 0),
            Cell(0, 0),
            Cell(1, 0),
            Cell(1, 0),
        ]

    def test_pause_becomes_pause_paths(self):
        legs = table(
            (0.0, 1.5, 0.2, 0.3, 1.7, 0.3, 1.0),
            (1.5, 1.0, 1.7, 0.3, 1.7, 0.3, 0.0),
        )
        trace = build_trace(self.AREA, [legs], time_step=0.5)
        locations = discretize(trace, GridSpec(2, 1))
        assert locations.ids.tolist() == [0, 0, 1, 1, 1, 1]  # a pause sample is its point's cell

    def test_integer_travel_time_no_extra_step(self):
        # exactly 2 time units at dt = 1 are the run's 3 clock samples, the
        # last at t = 2, and one id each
        leg = (0.0, 2.0, 0.0, 0.0, 2.0, 0.0, 1.0)
        area = ContinuousAreaSpec(2, 2, 1, 1)
        trace = build_trace(area, [table(leg)], time_step=1.0)
        locations = discretize(trace, GridSpec(2, 2))
        assert locations.ids.tolist() == [0, 1, 1]  # the ids of cells (0, 0), (1, 0), (1, 0)

    def test_grid_must_be_square_cells(self):
        leg = (0.0, 1.0, 0.1, 0.1, 1.5, 0.5, 1.0)
        trace = build_trace(self.AREA, [table(leg)], time_step=0.5)
        with pytest.raises(ConfigurationError):
            discretize(trace, GridSpec(2, 2))  # 1x0.5 cells

    @pytest.mark.parametrize("node_id", [-1, 2])
    def test_refuses_missing_node(self, node_id):
        leg = (0.0, 1.5, 0.2, 0.3, 1.7, 0.3, 1.0)
        trace = build_trace(self.AREA, [table(leg), table(leg)], time_step=0.5)
        with pytest.raises(ConfigurationError, match=rf"node id {node_id} outside \[0, 2\)"):
            discretize(trace, GridSpec(2, 1), node_id=node_id)

    def test_sample_limit_refused_before_allocating(self, monkeypatch):
        # a built run may hold up to 2**63 steps
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the sample limit was checked")

        leg = (0.0, 100.0, 1.7, 0.3, 0.2, 0.3, 0.015)
        trace = build_trace(self.AREA, [table(leg)], time_step=1.0, steps=2**62)
        for name in ("repeat", "arange", "empty"):
            monkeypatch.setattr(np, name, refuse)
        with pytest.raises(ConfigurationError, match=f"limit of {errors.MAX_SAMPLES} samples"):
            discretize(trace, GridSpec(2, 1))

    @pytest.mark.parametrize("limit, allowed", [(6, True), (5, False)])
    def test_sample_limit_counts_clock_samples(self, monkeypatch, limit, allowed):
        # 2.5 time units of travel and pause are 6 clock samples at a step of 0.5
        legs = table(
            (0.0, 1.5, 0.2, 0.3, 1.7, 0.3, 1.0),
            (1.5, 1.0, 1.7, 0.3, 1.7, 0.3, 0.0),
        )
        trace = build_trace(self.AREA, [legs], time_step=0.5)
        monkeypatch.setattr(errors, "MAX_SAMPLES", limit)
        if allowed:
            assert len(discretize(trace, GridSpec(2, 1))) == 6
        else:
            with pytest.raises(ConfigurationError, match="needs 6 samples, over the limit of 5"):
                discretize(trace, GridSpec(2, 1))

    @pytest.mark.parametrize("pause", [0.0, 3.0], ids=["travel", "pauses"])
    @pytest.mark.parametrize("dt", [0.5, 0.5 / 3, 1.25], ids=["dt", "dt/3", "2.5dt"])
    def test_equals_per_sample_oracle(self, pause, dt):
        area = ContinuousAreaSpec(100, 100, 1, 5, pause_time=pause)
        trace = simulate_continuous(area, 2, 80, dt, seed=11)
        grid = GridSpec(5, 5)
        for node in range(2):
            locations = discretize(trace, grid, node_id=node)
            expected_ids = discretize_per_sample(trace.legs[node], grid, 20.0, dt, trace.step_count)
            assert locations.ids.tolist() == expected_ids

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.floats(1.0, 50.0),
        st.floats(0.5, 10.0),
        st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
        st.one_of(st.just(0.0), st.floats(0.1, 5.0)),
        st.floats(0.1, 1.5),
        st.integers(0, 2**32 - 1),
    )
    def test_drawn_runs_equal_per_sample_oracle(
        self, columns, rows, cell, min_speed, spread, pause, dt, seed
    ):
        # an area of columns x rows square cells; spread 0 is a fixed speed
        # and pause 0 leaves out pause legs
        area = ContinuousAreaSpec(
            columns * cell, rows * cell, min_speed, min_speed + spread, pause
        )
        trace = simulate_continuous(area, 2, 80, dt, seed)
        grid = GridSpec(columns, rows)
        for node in range(2):
            locations = discretize(trace, grid, node_id=node)
            expected_ids = discretize_per_sample(
                trace.legs[node], grid, area.width / columns, dt, trace.step_count
            )
            assert locations.ids.tolist() == expected_ids

    def test_blocks_do_not_change_ids(self, monkeypatch):
        # at a step of 0.25, blocks of 7 samples start before the first leg,
        # in the gap between two legs and past the last, and end in a pause
        # and on a leg; the ids are the floored, clamped positions and the
        # oracle's
        legs = table(
            (0.5, 0.75, 0.2, 0.3, 1.7, 0.3, 2.0),
            (1.25, 0.35, 1.7, 0.3, 1.7, 0.3, 0.0),
            (1.8, 1.5, 1.7, 0.3, 0.4, 0.9, 1.0),
        )
        drawn = simulate_continuous(ContinuousAreaSpec(100, 100, 1, 5, 3.0), 2, 80, 0.5, seed=11)
        runs = [
            (build_trace(self.AREA, [legs], time_step=0.25, steps=20), GridSpec(4, 2)),
            (drawn, GridSpec(5, 5)),
        ]
        whole = [[discretize(t, grid, n).ids for n in range(t.node_count)] for t, grid in runs]
        monkeypatch.setattr(continuous, "_BLOCK_SAMPLES", 7)
        for (trace, grid), ids in zip(runs, whole):
            cell = trace.area.width / grid.width
            for node, expected in enumerate(ids):
                assert np.array_equal(discretize(trace, grid, node).ids, expected)
                index = np.floor(trace.positions([node])[0] / cell)
                index = np.clip(index, 0, [grid.width - 1, grid.height - 1]).astype(np.int64)
                assert np.array_equal(grid.ids(*index.T), expected)
                assert expected.tolist() == discretize_per_sample(
                    trace.legs[node], grid, cell, trace.time_step, trace.step_count
                )

    def test_memory_per_sample(self):
        # the ids take 8 bytes a sample and one block's temporaries about 5
        # MB; sampling every leg in one pass peaked at 64 bytes a sample
        area = ContinuousAreaSpec(1000, 1000, 1, 20, pause_time=5)
        trace = simulate_continuous(area, 1, 10**6, 1.0, seed=1)
        tracemalloc.start()
        try:
            locations = discretize(trace, GridSpec(100, 100))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(locations) == trace.step_count == 10**6 + 1
        assert kept / len(locations) <= 9
        assert peak / len(locations) < 16


class TestTrafficProxy:
    AREA = ContinuousAreaSpec(10, 10, 1, 2)

    def two_node_trace(self):
        # node 1 swings out of range in the middle step
        legs0 = table((0.0, 2.0, 0, 0, 0, 0, 0.0))
        legs1 = table(
            (0.0, 1.0, 1, 0, 5, 0, 4.0),
            (1.0, 1.0, 5, 0, 0.5, 0, 4.5),
        )
        trace = build_trace(self.AREA, [legs0, legs1], time_step=1.0, steps=3)
        return trace

    def test_flat_rate_bursts(self):
        trace = self.two_node_trace()
        report = traffic_proxy(trace, flows=[(0, 1)], bitrate=4.0, reach=2.0)
        assert report.offered.tolist() == [4.0, 4.0, 4.0]
        assert report.delivered.tolist() == [4.0, 0.0, 4.0]
        assert report.connected_fraction.tolist() == [1.0, 0.0, 1.0]
        assert report.delivery_ratio == pytest.approx(2 / 3)
        assert report.burst_fraction == pytest.approx(1 / 3)

    def test_ramp_rate(self):
        trace = self.two_node_trace()
        report = traffic_proxy(
            trace, flows=[(0, 1)], bitrate=np.array([0.0, 2.0, 4.0]), reach=2.0
        )
        assert report.offered.tolist() == [0.0, 2.0, 4.0]
        assert report.delivered.tolist() == [0.0, 0.0, 4.0]
        assert report.burst_fraction == pytest.approx(1 / 2)

    def test_flow_validation(self):
        trace = self.two_node_trace()
        with pytest.raises(ConfigurationError):
            traffic_proxy(trace, flows=[], bitrate=1.0, reach=1.0)
        with pytest.raises(ConfigurationError):
            traffic_proxy(trace, flows=[(0, 0)], bitrate=1.0, reach=1.0)
        with pytest.raises(ConfigurationError):
            traffic_proxy(trace, flows=[(0, 7)], bitrate=1.0, reach=1.0)
        with pytest.raises(ConfigurationError):
            traffic_proxy(trace, flows=[(0, 1)], bitrate=-1.0, reach=1.0)

    def test_negative_reach_rejected(self):
        # reach * reach would make -2 behave like 2
        with pytest.raises(ConfigurationError, match="reach"):
            traffic_proxy(self.two_node_trace(), flows=[(0, 1)], bitrate=4.0, reach=-2.0)

    @pytest.mark.parametrize("reach", [math.nan, math.inf])
    def test_non_finite_reach_rejected(self, reach):
        # NaN would silently deliver nothing
        with pytest.raises(ConfigurationError, match="reach"):
            traffic_proxy(self.two_node_trace(), flows=[(0, 1)], bitrate=4.0, reach=reach)

    @pytest.mark.parametrize(
        "bitrate", [math.nan, math.inf, np.array([4.0, math.nan, 4.0])], ids=["nan", "inf", "ramp"]
    )
    def test_non_finite_bitrate_rejected(self, bitrate):
        # NaN would deliver nothing with no error, and inf would give a NaN ratio
        with pytest.raises(ConfigurationError, match="bitrate must be finite"):
            traffic_proxy(self.two_node_trace(), flows=[(0, 1)], bitrate=bitrate, reach=2.0)

    @pytest.mark.parametrize("shape", [(3,), (2, 11)], ids=["short", "per-node"])
    def test_bitrate_not_one_per_step_rejected(self, shape):
        # numpy would raise a bare "could not be broadcast" ValueError
        trace = simulate_continuous(self.AREA, 2, 10.0, 1.0, seed=0)
        assert trace.step_count == 11
        with pytest.raises(ConfigurationError, match=r"one value per step \(11\)"):
            traffic_proxy(trace, flows=[(0, 1)], bitrate=np.ones(shape), reach=2.0)

    @pytest.mark.parametrize("apart, connected", [(1e300, 0.0), (1e158, 1.0)])
    def test_reach_whose_square_overflows(self, apart, connected):
        # reach * reach and the squared distance 1e600 are both inf: the
        # nodes 1e300 apart read connected at every step
        legs = [table((0.0, 2.0, 0, 0, 0, 0, 0.0)), table((0.0, 2.0, apart, 0, apart, 0, 0.0))]
        trace = build_trace(self.AREA, legs, time_step=1.0)
        report = traffic_proxy(trace, flows=[(0, 1)], bitrate=1.0, reach=1e160)
        assert report.connected_fraction.tolist() == [connected] * 3

    @pytest.mark.parametrize(
        "apart, reach, connected",
        [
            (2e-300, 1e-300, 0.0),
            (0.5e-300, 1e-300, 1.0),
            (1e-323, 5e-324, 0.0),
            (5e-324, 5e-324, 1.0),
            (2e-300, 0.0, 0.0),
            (5e-324, 0.0, 0.0),
            (0.0, 0.0, 1.0),
        ],
    )
    def test_reach_whose_square_underflows(self, apart, reach, connected):
        # reach * reach and the squared distance 4e-600 are both 0: the nodes
        # 2e-300 apart read connected at every step, at a reach of 0 too
        legs = [table((0.0, 2.0, 0, 0, 0, 0, 0.0)), table((0.0, 2.0, apart, 0, apart, 0, 0.0))]
        trace = build_trace(self.AREA, legs, time_step=1.0)
        report = traffic_proxy(trace, flows=[(0, 1)], bitrate=1.0, reach=reach)
        assert report.connected_fraction.tolist() == [connected] * 3

    def test_zero_reach_needs_coincident_nodes(self):
        report = traffic_proxy(self.two_node_trace(), flows=[(0, 1)], bitrate=4.0, reach=0.0)
        assert report.delivered.tolist() == [0.0, 0.0, 0.0]
