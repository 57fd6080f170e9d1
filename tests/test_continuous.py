"""Continuous-motion, grid-bridge, and traffic-proxy tests.

Discretization and traffic expectations are asserted on hand-built legs and
position arrays where every number can be checked on paper; the simulator
itself is tested for shape, determinism, and structural invariants, its leg
tables are held bit for bit to ``oracles.draw_legs_per_trip`` and its
sampled positions to ``oracles.sample_legs_per_step``.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    discretize_per_sample,
    draw_legs_per_trip,
    encode_paths,
    sample_legs_per_step,
)
from rwmm import continuous
from rwmm.continuous import (
    DURATION,
    MAX_SAMPLES,
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
        [(1e300, 1e-10), (1e12, 1.0), (1.0, 1e-8), (float(MAX_SAMPLES), 1.0)],
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
        monkeypatch.setattr(continuous, "MAX_SAMPLES", 20)
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


class TestDiscretize:
    AREA = ContinuousAreaSpec(2, 1, 1, 1)

    def test_single_leg_by_hand(self):
        leg = (0.0, 1.5, 0.2, 0.3, 1.7, 0.3, 1.0)
        trace = build_trace(self.AREA, [table(leg)], time_step=0.5)
        paths, locations = discretize(trace, GridSpec(2, 1))
        assert len(paths) == 1
        assert paths[0].cells == (Cell(0, 0), Cell(0, 0), Cell(1, 0), Cell(1, 0))
        assert [locations.cell(i) for i in range(len(locations))] == [
            Cell(0, 0),
            Cell(0, 0),
            Cell(1, 0),
        ]

    def test_pause_becomes_pause_paths(self):
        legs = table(
            (0.0, 1.5, 0.2, 0.3, 1.7, 0.3, 1.0),
            (1.5, 1.0, 1.7, 0.3, 1.7, 0.3, 0.0),
        )
        trace = build_trace(self.AREA, [legs], time_step=0.5)
        paths, locations = discretize(trace, GridSpec(2, 1))
        assert len(paths) == 3
        assert paths[1].cells == (Cell(1, 0), Cell(1, 0))
        assert paths[2].cells == (Cell(1, 0), Cell(1, 0))
        assert len(locations) == 5

    def test_integer_travel_time_no_extra_step(self):
        # exactly 2 time units at dt = 1 must give 2 samples, not 3
        leg = (0.0, 2.0, 0.0, 0.0, 2.0, 0.0, 1.0)
        area = ContinuousAreaSpec(2, 2, 1, 1)
        trace = build_trace(area, [table(leg)], time_step=1.0)
        paths, _ = discretize(trace, GridSpec(2, 2))
        assert paths[0].length == 2
        assert paths[0].cells == (Cell(0, 0), Cell(1, 0), Cell(1, 0))

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

    @pytest.mark.parametrize("time_step", [math.nan, math.inf, 0.0, -0.5])
    def test_refuses_bad_time_step(self, time_step):
        leg = (0.0, 1.5, 0.2, 0.3, 1.7, 0.3, 1.0)
        trace = build_trace(self.AREA, [table(leg)], time_step=0.5)
        with pytest.raises(ConfigurationError, match="time step must be finite and > 0"):
            discretize(trace, GridSpec(2, 1), time_step=time_step)

    def test_sample_limit_refused_before_allocating(self, monkeypatch):
        # 100 time units at a step of 1e-9 are 1e11 samples a leg
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the sample limit was checked")

        legs = table(
            (0.0, 100.0, 1.7, 0.3, 1.7, 0.3, 0.0),
            (100.0, 100.0, 1.7, 0.3, 0.2, 0.3, 0.015),
        )
        trace = build_trace(self.AREA, [legs], time_step=1.0)
        monkeypatch.setattr(continuous, "Path", refuse)
        monkeypatch.setattr(np, "repeat", refuse)
        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(ConfigurationError, match=f"limit of {MAX_SAMPLES} samples"):
            discretize(trace, GridSpec(2, 1), time_step=1e-9)

    @pytest.mark.parametrize("limit, allowed", [(5, True), (4, False)])
    def test_sample_limit_counts_every_leg(self, monkeypatch, limit, allowed):
        # 3 samples of travel and 2 of pause at a step of 0.5
        legs = table(
            (0.0, 1.5, 0.2, 0.3, 1.7, 0.3, 1.0),
            (1.5, 1.0, 1.7, 0.3, 1.7, 0.3, 0.0),
        )
        trace = build_trace(self.AREA, [legs], time_step=0.5)
        monkeypatch.setattr(continuous, "MAX_SAMPLES", limit)
        if allowed:
            assert len(discretize(trace, GridSpec(2, 1))[1]) == 5
        else:
            with pytest.raises(ConfigurationError, match="needs 5 samples, over the limit of 4"):
                discretize(trace, GridSpec(2, 1))

    @pytest.mark.parametrize("pause", [0.0, 3.0], ids=["travel", "pauses"])
    @pytest.mark.parametrize("scale", [1.0, 1 / 3, 2.5], ids=["dt", "dt/3", "2.5dt"])
    def test_equals_per_sample_oracle(self, pause, scale):
        area = ContinuousAreaSpec(100, 100, 1, 5, pause_time=pause)
        trace = simulate_continuous(area, 2, 80, 0.5, seed=11)
        grid = GridSpec(5, 5)
        dt = trace.time_step * scale
        for node in range(2):
            paths, locations = discretize(trace, grid, node_id=node, time_step=dt)
            expected_paths, expected_ids = discretize_per_sample(trace.legs[node], grid, 20.0, dt)
            assert paths == expected_paths
            assert locations.ids.tolist() == expected_ids

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.floats(1.0, 50.0),
        st.floats(0.5, 10.0),
        st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
        st.one_of(st.just(0.0), st.floats(0.1, 5.0)),
        st.floats(0.2, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_drawn_runs_equal_per_sample_oracle(
        self, columns, rows, cell, min_speed, spread, pause, scale, seed
    ):
        # an area of columns x rows square cells; spread 0 is a fixed speed
        # and pause 0 leaves out pause legs
        area = ContinuousAreaSpec(
            columns * cell, rows * cell, min_speed, min_speed + spread, pause
        )
        trace = simulate_continuous(area, 2, 80, 0.5, seed)
        grid = GridSpec(columns, rows)
        dt = trace.time_step * scale
        for node in range(2):
            paths, locations = discretize(trace, grid, node_id=node, time_step=dt)
            expected_paths, expected_ids = discretize_per_sample(
                trace.legs[node], grid, area.width / columns, dt
            )
            assert paths == expected_paths
            assert locations.ids.tolist() == expected_ids

    def test_round_trip_through_simulator(self):
        area = ContinuousAreaSpec(100, 100, 1, 5)
        trace = simulate_continuous(area, 2, 50, 0.5, seed=9)
        grid = GridSpec(5, 5)
        for node in range(2):
            paths, locations = discretize(trace, grid, node_id=node)
            assert sum(p.length for p in paths) == len(locations)
            assert locations.ids.tolist() == list(map(grid.cell_id, encode_paths(paths)))
            for p in paths:
                assert all(grid.contains(c) for c in p.cells)


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

    def test_zero_reach_needs_coincident_nodes(self):
        report = traffic_proxy(self.two_node_trace(), flows=[(0, 1)], bitrate=4.0, reach=0.0)
        assert report.delivered.tolist() == [0.0, 0.0, 0.0]
