"""Seeded simulation tests: the covering-prefix encoder, the blocked path
draws, the joint encode, the sample limit and the refusal of a waypoint spec
and an alphabet on different grids.

``simulate_node`` draws and encodes only the paths that cover its horizon;
its locations are checked against a concatenation of those paths' cells, and
its paths against the first paths of one draw over every waypoint pair,
which rests on numpy's generator drawing the same integers from one call as
from consecutive calls over its parts. A draw over bounds of 1 gives zeros
and takes nothing from the generator, which lets ``sample_paths`` skip it.
``simulate_joint``, which encodes blocks of nodes at once, is checked
against a per-node loop of ``simulate_node``.
"""

from itertools import pairwise

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from rwmm import errors, simulate
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
        # the paths cover the horizon with none to spare
        lengths = run.paths.lengths
        assert lengths[:-1].sum() < horizon <= lengths.sum()
        expected = concatenated_locations(ALPHABET, run.paths.ids, horizon)
        assert run.locations.ids.tolist() == expected
        exact_hits += horizon in np.cumsum(run.paths.lengths)
    # some horizon ends exactly where a path does
    assert exact_hits > 0


# cut points after odd and even counts of 30 draws
@pytest.mark.parametrize("cuts", [(1,), (2,), (3, 10), (7, 20, 21), (16, 29)])
@settings(max_examples=25)
@given(
    st.integers(0, 2**63 - 1),
    st.lists(st.integers(1, 60) | st.integers(1, 2**40), min_size=30, max_size=30),
    st.integers(1, 60) | st.integers(1, 2**32) | st.integers(1, 2**63 - 1),
)
def test_split_integer_draws_equal_one_draw(cuts, seed, bounds, high):
    # an array of bounds, as sample_paths draws, and one int64 scalar bound
    # below 2^63, as sample_waypoints draws
    bounds = np.array(bounds)
    spans = list(pairwise((0, *cuts, len(bounds))))
    whole = np.random.default_rng(seed).integers(0, bounds)
    rng = np.random.default_rng(seed)
    parts = [rng.integers(0, bounds[lo:hi]) for lo, hi in spans]
    assert np.array_equal(np.concatenate(parts), whole)
    whole = np.random.default_rng(seed).integers(0, high, len(bounds), dtype=np.int64)
    rng = np.random.default_rng(seed)
    parts = [rng.integers(0, high, hi - lo, dtype=np.int64) for lo, hi in spans]
    assert np.array_equal(np.concatenate(parts), whole)


@settings(max_examples=50)
@given(
    st.integers(0, 2**63 - 1),
    st.lists(st.just(1) | st.integers(2, 60) | st.integers(2, 2**40), min_size=1, max_size=30),
)
def test_one_value_bounds_draw_nothing(seed, bounds):
    # sample_paths makes no integers call where every family has one member
    bounds = np.array(bounds)
    drawn = np.random.default_rng(seed).integers(0, bounds)
    assert not drawn[bounds == 1].any()
    choices = np.random.default_rng(seed).integers(0, bounds[bounds > 1])
    assert np.array_equal(drawn[bounds > 1], choices)
    rng = np.random.default_rng(seed)
    rng.integers(0, bounds[bounds > 1])  # so that a buffered 32-bit half may be pending
    state = rng.bit_generator.state
    assert not rng.integers(0, np.ones_like(bounds)).any()
    assert rng.bit_generator.state == state


@settings(max_examples=20)
@given(st.sampled_from(sorted(SPECS)), st.integers(0, 2**32 - 1))
def test_blocked_paths_are_the_first_of_one_draw(kind, seed):
    blocks = 0
    for horizon in range(1, 61):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_PATH_BLOCK", 3)
            run = simulate_node(SPECS[kind], ALPHABET, horizon, seed)
        wp_seed, path_seed = np.random.SeedSequence(seed).spawn(2)
        waypoints = sample_waypoints(SPECS[kind], horizon + 1, np.random.default_rng(wp_seed))
        full = sample_paths(ALPHABET, waypoints, np.random.default_rng(path_seed))
        count = len(run.paths)
        assert np.array_equal(run.paths.ids, full.ids[:count])
        assert np.array_equal(run.waypoints.ids, waypoints.ids[: count + 1])
        lengths = run.paths.lengths
        assert lengths[:-1].sum() < horizon <= lengths.sum()
        blocks = max(blocks, -(-count // 3))
    # some horizon needs several blocks
    assert blocks > 2


# every lazy-walk path at speeds >= 1 emits one cell; at speed 1/2 a move emits two
ALPHABETS = {"fast": ALPHABET, "slow": build_alphabet(GRID, (Fraction(1, 2), Fraction(1)))}


def _per_node_loop(spec, alphabet, horizon, nodes, seed) -> np.ndarray:
    children = np.random.SeedSequence(seed).spawn(nodes)
    return np.stack([simulate_node(spec, alphabet, horizon, c).locations.ids for c in children])


@pytest.mark.parametrize("nodes", [1, 2, 3, 1000])
@pytest.mark.parametrize("speeds", sorted(ALPHABETS))
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_joint_equals_per_node_loop(kind, speeds, nodes):
    spec, alphabet = SPECS[kind], ALPHABETS[speeds]
    for horizon in (1, 9) if nodes == 1000 else (1, 2, 9, 40):
        joint = simulate_joint(spec, alphabet, horizon, nodes, seed=nodes + horizon)
        expected = _per_node_loop(spec, alphabet, horizon, nodes, nodes + horizon)
        assert np.array_equal(joint.ids, expected)


@pytest.mark.parametrize("speeds", sorted(ALPHABETS))
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_joint_blocks_equal_per_node_loop(monkeypatch, kind, speeds):
    spec, alphabet = SPECS[kind], ALPHABETS[speeds]
    encode, blocks = simulate._encode_block, []

    def spy(alphabet, paths, emitted, out):
        blocks.append((emitted, out.shape[1], simulate._ENCODE_SAMPLES))
        encode(alphabet, paths, emitted, out)

    monkeypatch.setattr(simulate, "_encode_block", spy)
    for budget in range(1, 30):
        monkeypatch.setattr(simulate, "_ENCODE_SAMPLES", budget)
        for horizon in (1, 4, 11):
            joint = simulate_joint(spec, alphabet, horizon, 5, seed=budget)
            assert np.array_equal(joint.ids, _per_node_loop(spec, alphabet, horizon, 5, budget))
    # a node joins a block while the block's cells leave room for its horizon
    for emitted, horizon, budget in blocks:
        assert len(emitted) == 1 or sum(emitted[:-1]) + horizon <= budget
    # blocks of several nodes, some ending at the budget, and nodes past it
    assert any(len(emitted) > 1 and sum(emitted) < budget for emitted, _, budget in blocks)
    assert any(len(emitted) > 1 and sum(emitted) == budget for emitted, _, budget in blocks)
    assert any(horizon > budget for _, horizon, budget in blocks)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.fractions(1, 5, max_denominator=7), min_size=1, max_size=4),
    st.fractions(Fraction(1, 9), Fraction(8, 9), max_denominator=9),
    st.integers(1, 50),
    st.integers(0, 2**32 - 1),
)
def test_fast_walk_locations_are_its_waypoints(width, height, speeds, stay, horizon, seed):
    # at speeds >= 1 a walk's every path is one step, so it emits its source
    grid = GridSpec(width, height)
    spec = WaypointProcessSpec.lazy_walk(grid, stay)
    run = simulate_node(spec, build_alphabet(grid, speeds), horizon, seed)
    assert np.array_equal(run.locations.ids, run.waypoints.ids[:-1])


def _refuse_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew waypoints before the sample limit was checked")

    monkeypatch.setattr(simulate, "sample_waypoints", refuse)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_node_sample_limit_refused_before_drawing(monkeypatch, kind):
    monkeypatch.setattr(errors, "MAX_SAMPLES", 20)
    assert len(simulate_node(SPECS[kind], ALPHABET, 20, seed=1).locations) == 20
    _refuse_draws(monkeypatch)
    with pytest.raises(ConfigurationError, match="limit of 20 samples"):
        simulate_node(SPECS[kind], ALPHABET, 21, seed=1)


@pytest.mark.parametrize(
    "nodes, horizon, allowed",
    [(1, 20, True), (2, 10, True), (4, 5, True), (2, 11, False), (3, 7, False)],
)
def test_joint_sample_limit_counts_nodes_times_horizon(monkeypatch, nodes, horizon, allowed):
    monkeypatch.setattr(errors, "MAX_SAMPLES", 20)
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
