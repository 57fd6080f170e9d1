"""Seeded simulation tests: the covering-prefix encoder, the sample limit and
the refusal of a waypoint spec and an alphabet on different grids.

``simulate_node`` encodes only the paths that cover its horizon; its
locations are checked against a concatenation of every drawn path's cells.
"""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from rwmm import simulate
from rwmm.errors import ConfigurationError
from rwmm.geometry import GridSpec, build_alphabet
from rwmm.processes import WaypointProcessSpec, sample_paths, sample_waypoints
from rwmm.simulate import simulate_joint, simulate_node

from oracles import concatenated_locations

GRID = GridSpec(5, 4)
ALPHABET = build_alphabet(GRID, (Fraction(1), Fraction(3, 2)))
SPECS = {
    "iid": WaypointProcessSpec.iid_uniform(GRID),
    "lazy-walk": WaypointProcessSpec.lazy_walk(GRID),
}


@settings(max_examples=30)
@given(st.sampled_from(sorted(SPECS)), st.integers(0, 2**32 - 1))
def test_locations_match_concatenated_paths(kind, seed):
    exact_hits = 0
    for horizon in range(1, 61):
        run = simulate_node(SPECS[kind], ALPHABET, horizon, seed)
        # every drawn path is kept, whether or not the horizon reaches it
        assert len(run.paths) == horizon
        expected = concatenated_locations(ALPHABET, run.paths.ids, horizon)
        assert [run.locations.cell(i) for i in range(len(run.locations))] == expected
        exact_hits += horizon in np.cumsum(run.paths.lengths)
    # some horizon ends exactly where a path does
    assert exact_hits > 0


def _refuse_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew waypoints before the sample limit was checked")

    monkeypatch.setattr(simulate, "sample_waypoints", refuse)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_node_sample_limit_refused_before_drawing(monkeypatch, kind):
    monkeypatch.setattr(simulate, "MAX_SAMPLES", 20)
    assert len(simulate_node(SPECS[kind], ALPHABET, 20, seed=1).locations) == 20
    _refuse_draws(monkeypatch)
    with pytest.raises(ConfigurationError, match="limit of 20 samples"):
        simulate_node(SPECS[kind], ALPHABET, 21, seed=1)


@pytest.mark.parametrize(
    "nodes, horizon, allowed",
    [(1, 20, True), (2, 10, True), (4, 5, True), (2, 11, False), (3, 7, False)],
)
def test_joint_sample_limit_counts_nodes_times_horizon(monkeypatch, nodes, horizon, allowed):
    monkeypatch.setattr(simulate, "MAX_SAMPLES", 20)
    if allowed:
        joint = simulate_joint(SPECS["iid"], ALPHABET, horizon, nodes, seed=2)
        assert joint.ids.shape == (nodes, horizon)
    else:
        _refuse_draws(monkeypatch)
        with pytest.raises(ConfigurationError, match="limit of 20 samples"):
            simulate_joint(SPECS["iid"], ALPHABET, horizon, nodes, seed=2)


# smaller grids' ids would be read as 3x3 cells; larger ones would index past the tables
@pytest.mark.parametrize("width, height", [(2, 2), (9, 1), (4, 4), (3, 4)])
def test_spec_on_another_grid_than_the_alphabet_is_refused(width, height):
    alphabet = build_alphabet(GridSpec(3, 3), (Fraction(1), Fraction(2)))
    spec = WaypointProcessSpec.iid_uniform(GridSpec(width, height))
    waypoints = sample_waypoints(spec, 10, seed=3)
    for run in (
        lambda: sample_paths(alphabet, waypoints, seed=4),
        lambda: simulate_node(spec, alphabet, 10, seed=5),
        lambda: simulate_joint(spec, alphabet, 10, 2, seed=6),
    ):
        with pytest.raises(ValueError, match="different grids"):
            run()
