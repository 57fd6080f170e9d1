"""Encoder and trip-timing tests.

The vectorized encoder is checked against the per-path reference encoder of
``oracles`` on random grids, speed sets and seeds, and the structural
identities (waypoint at each trip start, summed lengths, shift alignment)
are asserted on sampled traces.
"""

import logging

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from rwmm.geometry import Cell, GridSpec, Path, build_alphabet
from rwmm.location import (
    JointTrace,
    LocationTrace,
    complete_trips,
    encode_sequence,
    joint_process,
    trip_times,
    variable_length_shift,
)
from rwmm.processes import WaypointProcessSpec, sample_paths, sample_waypoints

from oracles import encode_paths


@pytest.fixture(scope="module")
def sampled():
    grid = GridSpec(4, 4)
    alpha = build_alphabet(grid, (Fraction(1), Fraction(2)))
    spec = WaypointProcessSpec.iid_uniform(grid)
    w = sample_waypoints(spec, 400, seed=21)
    p = sample_paths(alpha, w, seed=22)
    return grid, alpha, w, p


def test_encode_path_emits_all_but_last():
    # the reference encoder, checked by hand before it checks the library
    assert encode_paths([Path((Cell(0, 0), Cell(1, 0), Cell(2, 0)))]) == [Cell(0, 0), Cell(1, 0)]
    assert encode_paths([Path((Cell(1, 1), Cell(1, 1)))]) == [Cell(1, 1)]


def test_encode_paths_concatenates():
    paths = [
        Path((Cell(0, 0), Cell(1, 0))),
        Path((Cell(1, 0), Cell(1, 0))),  # pause
        Path((Cell(1, 0), Cell(2, 0))),
    ]
    assert encode_paths(paths) == [Cell(0, 0), Cell(1, 0), Cell(1, 0)]


@settings(deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.sets(st.integers(1, 8), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_vectorized_encoder_matches_loop(width, height, halves, seed):
    grid = GridSpec(width, height)
    alpha = build_alphabet(grid, tuple(Fraction(h, 2) for h in halves))
    w = sample_waypoints(WaypointProcessSpec.iid_uniform(grid), 60, seed=seed)
    p = sample_paths(alpha, w, seed=seed + 1)
    paths = [alpha.all_paths[pid] for pid in p.ids]
    assert [grid.cell_id(path.source) for path in paths] == w.ids[:-1].tolist()
    assert [grid.cell_id(path.dest) for path in paths] == w.ids[1:].tolist()
    assert encode_sequence(p).ids.tolist() == list(map(grid.cell_id, encode_paths(paths)))


def test_waypoints_sit_at_trip_starts(sampled):
    grid, alpha, w, p = sampled
    trace = encode_sequence(p)
    times = trip_times(p.lengths)
    assert times[-1] == len(trace)
    for k in range(len(p)):
        assert trace.ids[times[k]] == w.ids[k]


def test_trip_times_basics():
    assert trip_times([]).tolist() == [0]
    assert trip_times([2, 1, 3]).tolist() == [0, 2, 3, 6]


def test_complete_trips():
    lengths = [2, 1, 3]
    assert complete_trips(lengths, 0) == 0
    assert complete_trips(lengths, 1) == 0
    assert complete_trips(lengths, 2) == 1
    assert complete_trips(lengths, 3) == 2
    assert complete_trips(lengths, 5) == 2
    assert complete_trips(lengths, 6) == 3
    assert complete_trips(lengths, 100) == 3
    with pytest.raises(ValueError):
        complete_trips(lengths, -1)


def test_variable_length_shift_realigns(sampled):
    grid, alpha, w, p = sampled
    full = encode_sequence(p)
    for count in (0, 1, 7, len(p)):
        shifted, steps = variable_length_shift(p, count)
        assert steps == int(trip_times(p.lengths)[count])
        enc = encode_sequence(shifted)
        assert np.array_equal(enc.ids, full.ids[steps:])
    with pytest.raises(ValueError):
        variable_length_shift(p, len(p) + 1)


def test_prefix():
    grid = GridSpec(2, 1)
    trace = LocationTrace(grid, np.array([0, 1, 0, 1]))
    assert trace.prefix(2).ids.tolist() == [0, 1]
    with pytest.raises(ValueError):
        trace.prefix(9)


def test_prefix_refuses_negative_count():
    trace = LocationTrace(GridSpec(2, 1), np.array([0, 1, 0, 1]))
    assert trace.prefix(0).ids.tolist() == []
    with pytest.raises(ValueError, match="prefix of -1 from trace of length 4"):
        trace.prefix(-1)


class TestJointProcess:
    def test_stacks_equal_lengths(self):
        grid = GridSpec(2, 1)
        a = LocationTrace(grid, np.array([0, 1, 0]))
        b = LocationTrace(grid, np.array([1, 1, 1]))
        joint = joint_process([a, b])
        assert joint.node_count == 2
        assert len(joint) == 3
        assert joint.node(1).ids.tolist() == [1, 1, 1]

    def test_truncates_with_warning(self, caplog):
        grid = GridSpec(2, 1)
        a = LocationTrace(grid, np.array([0, 1, 0, 1]))
        b = LocationTrace(grid, np.array([1, 1]))
        with caplog.at_level(logging.WARNING, logger="rwmm.location"):
            joint = joint_process([a, b])
        assert len(joint) == 2
        assert any("truncating" in r.message for r in caplog.records)

    def test_rejects_mixed_grids(self):
        a = LocationTrace(GridSpec(2, 1), np.array([0, 1]))
        b = LocationTrace(GridSpec(3, 1), np.array([0, 1]))
        with pytest.raises(ValueError):
            joint_process([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            joint_process([])
