"""Continuous-motion, grid-bridge, and traffic-proxy tests.

Discretization and traffic expectations are asserted on hand-built legs and
position arrays where every number can be checked on paper; the simulator
itself is tested for shape, determinism, and structural invariants, and its
sampled positions are held bit for bit to ``oracles.sample_legs_per_step``.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import sample_legs_per_step
from rwmm import continuous
from rwmm.continuous import (
    MAX_SAMPLES,
    ContinuousAreaSpec,
    ContinuousTrace,
    Leg,
    _sample_legs,
    discretize,
    mean_speeds,
    simulate_continuous,
    traffic_proxy,
)
from rwmm.errors import ConfigurationError
from rwmm.geometry import Cell, GridSpec


def build_trace(area, legs_per_node, time_step=1.0, steps=None):
    """Assemble a ContinuousTrace from explicit legs (positions resampled)."""
    duration = max(leg.end_time for legs in legs_per_node for leg in legs)
    if steps is None:
        steps = int(math.floor(duration / time_step)) + 1
    times = np.arange(steps) * time_step
    positions = np.stack([sample_legs_per_step(legs, times) for legs in legs_per_node])
    return ContinuousTrace(
        area=area,
        time_step=time_step,
        times=times,
        positions=positions,
        legs=tuple(tuple(legs) for legs in legs_per_node),
    )


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
    def test_position_interpolates(self):
        leg = Leg(start_time=1.0, duration=2.0, x0=0, y0=0, x1=4, y1=2, speed=2.5)
        assert leg.position_at(1.0) == (0, 0)
        assert leg.position_at(2.0) == (2, 1)
        assert leg.position_at(3.0) == (4, 2)
        assert leg.position_at(99.0) == (4, 2)  # clamped

    def test_zero_duration(self):
        leg = Leg(start_time=0, duration=0, x0=1, y0=1, x1=1, y1=1, speed=0)
        assert leg.position_at(0) == (1, 1)


class TestSimulate:
    AREA = ContinuousAreaSpec(300, 200, min_speed=2, max_speed=8)

    def test_shapes_and_bounds(self):
        trace = simulate_continuous(self.AREA, 4, duration=60, time_step=0.5, seed=1)
        assert trace.positions.shape == (4, 121, 2)
        assert trace.times[0] == 0
        assert trace.times[-1] == pytest.approx(60)
        assert (trace.positions[..., 0] >= 0).all()
        assert (trace.positions[..., 0] <= 300).all()
        assert (trace.positions[..., 1] >= 0).all()
        assert (trace.positions[..., 1] <= 200).all()

    def test_deterministic(self):
        a = simulate_continuous(self.AREA, 3, 30, 0.25, seed=5)
        b = simulate_continuous(self.AREA, 3, 30, 0.25, seed=5)
        c = simulate_continuous(self.AREA, 3, 30, 0.25, seed=6)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)

    def test_legs_cover_duration_and_chain(self):
        trace = simulate_continuous(self.AREA, 2, 40, 1.0, seed=2)
        for legs in trace.legs:
            assert legs[0].start_time == 0
            assert legs[-1].end_time > 40
            for prev, nxt in zip(legs, legs[1:]):
                assert nxt.start_time == pytest.approx(prev.end_time)
                assert (nxt.x0, nxt.y0) == (prev.x1, prev.y1)
            for leg in legs:
                if leg.speed > 0:
                    assert self.AREA.min_speed <= leg.speed <= self.AREA.max_speed

    def test_pause_legs_present_when_configured(self):
        area = ContinuousAreaSpec(100, 100, 1, 5, pause_time=2.0)
        trace = simulate_continuous(area, 1, 50, 1.0, seed=3)
        pauses = [leg for leg in trace.legs[0] if leg.speed == 0]
        assert pauses
        assert all(leg.duration == 2.0 for leg in pauses)
        no_pause = simulate_continuous(self.AREA, 1, 50, 1.0, seed=3)
        assert all(leg.speed > 0 for leg in no_pause.legs[0])

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
            assert trace.positions.shape[:2] == (nodes, 10)
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
        assert np.array_equal(trace.positions, expected)


class TestSampleLegs:
    """``_sample_legs`` on hand-built legs, by hand and against the oracle."""

    @staticmethod
    def sample(legs, times):
        times = np.array(times, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. a divide by a zero duration
            got = _sample_legs(legs, times)
        assert np.array_equal(got, sample_legs_per_step(legs, times))
        return got.tolist()

    def test_time_at_leg_end_uses_earlier_leg(self):
        # the legs do not chain, so the two candidates at t = 2 differ
        legs = [
            Leg(0.0, 2.0, 0, 0, 4, 0, speed=2.0),
            Leg(2.0, 2.0, 10, 10, 10, 14, speed=2.0),
        ]
        assert self.sample(legs, [1.0, 2.0, 3.0]) == [[2, 0], [4, 0], [10, 12]]

    def test_zero_duration_leg_gives_its_end_point(self):
        # 3.0 + 1.0 * (0.1 - 3.0) is not 0.1, so interpolating at a = 1 is caught
        lone = [Leg(1.0, 0.0, 3.0, 3.0, 0.1, 0.2, speed=1.0)]
        assert self.sample(lone, [0.0, 1.0, 5.0]) == [[0.1, 0.2]] * 3
        first = [
            Leg(0.0, 0.0, 3.0, 3.0, 0.1, 0.2, speed=1.0),
            Leg(0.0, 2.0, 0.1, 0.2, 2.1, 0.2, speed=1.0),
        ]
        assert self.sample(first, [0.0, 1.0]) == [[0.1, 0.2], [1.1, 0.2]]

    def test_pause_leg_holds_position(self):
        legs = [
            Leg(0.0, 2.0, 0, 0, 4, 0, speed=2.0),
            Leg(2.0, 3.0, 4, 0, 4, 0, speed=0.0),
            Leg(5.0, 1.0, 4, 0, 4, 1, speed=1.0),
        ]
        assert self.sample(legs, range(7)) == [
            [0, 0], [2, 0], [4, 0], [4, 0], [4, 0], [4, 0], [4, 1]
        ]

    def test_times_outside_the_legs_clamp(self):
        legs = [Leg(1.0, 2.0, 0, 0, 4, 2, speed=math.sqrt(5))]
        assert self.sample(legs, [0.0, 2.0, 3.0, 4.0, 100.0]) == [
            [0, 0], [2, 1], [4, 2], [4, 2], [4, 2]
        ]


class TestMeanSpeeds:
    def test_slow_trips_drag_the_time_weighted_mean(self):
        area = ContinuousAreaSpec(10, 10, 1, 3)
        legs = [
            Leg(0.0, 3.0, 0, 0, 3, 0, speed=1.0),  # 3 distance in 3 time
            Leg(3.0, 1.0, 3, 0, 6, 0, speed=3.0),  # 3 distance in 1 time
        ]
        trace = build_trace(area, [legs])
        arithmetic, weighted = mean_speeds(trace)
        assert arithmetic == pytest.approx(2.0)
        assert weighted == pytest.approx(6 / 4)
        assert weighted < arithmetic

    def test_pauses_drag_it_further(self):
        area = ContinuousAreaSpec(10, 10, 1, 3, pause_time=2.0)
        legs = [
            Leg(0.0, 3.0, 0, 0, 3, 0, speed=1.0),
            Leg(3.0, 2.0, 3, 0, 3, 0, speed=0.0),
            Leg(5.0, 1.0, 3, 0, 6, 0, speed=3.0),
        ]
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
        leg = Leg(0.0, 1.5, 0.2, 0.3, 1.7, 0.3, speed=1.0)
        trace = build_trace(self.AREA, [[leg]], time_step=0.5)
        paths, locations = discretize(trace, GridSpec(2, 1))
        assert len(paths) == 1
        assert paths[0].cells == (Cell(0, 0), Cell(0, 0), Cell(1, 0), Cell(1, 0))
        assert [locations.cell(i) for i in range(len(locations))] == [
            Cell(0, 0),
            Cell(0, 0),
            Cell(1, 0),
        ]

    def test_pause_becomes_pause_paths(self):
        legs = [
            Leg(0.0, 1.5, 0.2, 0.3, 1.7, 0.3, speed=1.0),
            Leg(1.5, 1.0, 1.7, 0.3, 1.7, 0.3, speed=0.0),
        ]
        trace = build_trace(self.AREA, [legs], time_step=0.5)
        paths, locations = discretize(trace, GridSpec(2, 1))
        assert len(paths) == 3
        assert paths[1].cells == (Cell(1, 0), Cell(1, 0))
        assert paths[2].cells == (Cell(1, 0), Cell(1, 0))
        assert len(locations) == 5

    def test_integer_travel_time_no_extra_step(self):
        # exactly 2 time units at dt = 1 must give 2 samples, not 3
        leg = Leg(0.0, 2.0, 0.0, 0.0, 2.0, 0.0, speed=1.0)
        area = ContinuousAreaSpec(2, 2, 1, 1)
        trace = build_trace(area, [[leg]], time_step=1.0)
        paths, _ = discretize(trace, GridSpec(2, 2))
        assert paths[0].length == 2
        assert paths[0].cells == (Cell(0, 0), Cell(1, 0), Cell(1, 0))

    def test_grid_must_be_square_cells(self):
        leg = Leg(0.0, 1.0, 0.1, 0.1, 1.5, 0.5, speed=1.0)
        trace = build_trace(self.AREA, [[leg]], time_step=0.5)
        with pytest.raises(ConfigurationError):
            discretize(trace, GridSpec(2, 2))  # 1x0.5 cells

    def test_round_trip_through_simulator(self):
        area = ContinuousAreaSpec(100, 100, 1, 5)
        trace = simulate_continuous(area, 2, 50, 0.5, seed=9)
        grid = GridSpec(5, 5)
        for node in range(2):
            paths, locations = discretize(trace, grid, node_id=node)
            assert sum(p.length for p in paths) == len(locations)
            for p in paths:
                assert all(grid.contains(c) for c in p.cells)


class TestTrafficProxy:
    AREA = ContinuousAreaSpec(10, 10, 1, 2)

    def two_node_trace(self):
        # node 1 swings out of range in the middle step
        legs0 = [Leg(0.0, 2.0, 0, 0, 0, 0, speed=0.0)]
        legs1 = [
            Leg(0.0, 1.0, 1, 0, 5, 0, speed=4.0),
            Leg(1.0, 1.0, 5, 0, 0.5, 0, speed=4.5),
        ]
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

    def test_zero_reach_needs_coincident_nodes(self):
        report = traffic_proxy(self.two_node_trace(), flows=[(0, 1)], bitrate=4.0, reach=0.0)
        assert report.delivered.tolist() == [0.0, 0.0, 0.0]
