"""Observable and diagnostic tests, mostly on hand-built traces."""

import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

from rwmm.analysis import (
    DEFAULT_CHECKPOINT_COUNT,
    CellIndicator,
    ConvergenceReport,
    CylinderIndicator,
    PairWithinRange,
    TableObservable,
    cell_time_averages,
    cesaro_measure,
    ergodicity_check,
    location_histogram,
    time_average,
)
from rwmm.geometry import Cell, GridSpec, build_alphabet
from rwmm.location import JointTrace, LocationTrace
from rwmm.processes import WaypointProcessSpec
from rwmm.simulate import simulate_node

GRID2 = GridSpec(2, 1)


def make_trace(ids, grid=GRID2):
    return LocationTrace(grid, np.asarray(ids, dtype=np.int64))


class TestObservables:
    def test_cell_indicator(self):
        trace = make_trace([0, 1, 1, 0])
        ind = CellIndicator(GRID2, Cell(1, 0))
        assert ind.values(trace).tolist() == [0.0, 1.0, 1.0, 0.0]
        assert ind.window == 1

    def test_cylinder_indicator_counts_runs(self):
        trace = make_trace([0, 1, 1, 0, 1, 1])
        ind = CylinderIndicator(GRID2, (Cell(1, 0), Cell(1, 0)))
        assert ind.window == 2
        assert ind.values(trace).tolist() == [0.0, 1.0, 0.0, 0.0, 1.0]

    def test_cylinder_indicator_short_trace(self):
        ind = CylinderIndicator(GRID2, (Cell(0, 0), Cell(0, 0), Cell(0, 0)))
        assert len(ind.values(make_trace([0, 0]))) == 0

    def test_table_observable(self):
        table = TableObservable(GRID2, np.array([2.0, -1.0]))
        assert table.values(make_trace([0, 1, 0])).tolist() == [2.0, -1.0, 2.0]

    def test_table_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TableObservable(GRID2, np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            TableObservable(GRID2, np.array([1.0, 2.0, 3.0]))

    def test_pair_within_range(self):
        grid = GridSpec(3, 1)
        ids = np.array([[0, 0, 0], [1, 2, 0]])  # node 1 at x=1,2,0
        joint = JointTrace(grid, ids)
        obs = PairWithinRange(grid, 0, 1, radius=1.0)
        assert obs.values(joint).tolist() == [1.0, 0.0, 1.0]

    @pytest.mark.parametrize("radius", [-1.5, math.nan, math.inf, -math.inf])
    def test_pair_within_range_rejects_bad_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and >= 0"):
            PairWithinRange(GridSpec(3, 1), 0, 1, radius=radius)

    def test_pair_within_range_accepts_zero_radius(self):
        joint = JointTrace(GridSpec(3, 1), np.array([[0, 1, 2], [0, 2, 2]]))
        obs = PairWithinRange(joint.grid, 0, 1, radius=0.0)
        assert obs.values(joint).tolist() == [1.0, 0.0, 1.0]

    @pytest.mark.parametrize("node_a, node_b", [(-1, 0), (0, -1), (2, 0), (0, 2)])
    def test_pair_within_range_rejects_bad_node(self, node_a, node_b):
        joint = JointTrace(GridSpec(3, 1), np.array([[0, 0, 0], [1, 2, 0]]))
        obs = PairWithinRange(joint.grid, node_a, node_b, radius=1.0)
        with pytest.raises(ValueError, match=r"outside \[0, 2\) for this trace"):
            obs.values(joint)


class TestTimeAverage:
    def test_constant_observable_converges_immediately(self):
        trace = make_trace([1] * 1000)
        report = time_average(CellIndicator(GRID2, Cell(1, 0)), trace)
        assert report.final_value == 1.0
        assert report.cauchy_width == 0.0
        assert report.converged

    def test_alternating_settles_at_half(self):
        trace = make_trace([0, 1] * 5000)
        report = time_average(CellIndicator(GRID2, Cell(0, 0)), trace)
        assert abs(report.final_value - 0.5) < 1e-3
        assert report.converged

    def test_checkpoints_end_at_total(self):
        trace = make_trace([0, 1] * 500)
        report = time_average(CellIndicator(GRID2, Cell(0, 0)), trace)
        assert report.checkpoints[-1] == 1000
        assert len(report.partial_averages) == len(report.checkpoints)
        assert report.tolerance == pytest.approx(3 / np.sqrt(1000))

    def test_explicit_tolerance_controls_verdict(self):
        # drifting trace: first half zeros, second half ones
        trace = make_trace([0] * 500 + [1] * 500)
        ind = CellIndicator(GRID2, Cell(1, 0))
        strict = time_average(ind, trace, tolerance=0.01)
        assert not strict.converged
        loose = time_average(ind, trace, tolerance=1.0)
        assert loose.converged

    def test_window_shrinks_sample_count(self):
        trace = make_trace([0, 1] * 50)
        ind = CylinderIndicator(GRID2, (Cell(0, 0), Cell(1, 0)))
        report = time_average(ind, trace)
        assert report.checkpoints[-1] == 99  # 100 - window + 1

    def test_empty_rejected(self):
        ind = CylinderIndicator(GRID2, (Cell(0, 0),) * 5)
        with pytest.raises(ValueError):
            time_average(ind, make_trace([0, 0]))


class TestCesaro:
    def test_single_cell_grid_is_exact(self):
        grid = GridSpec(1, 1)
        alpha = build_alphabet(grid, (Fraction(1),))
        spec = WaypointProcessSpec.iid_uniform(grid)

        def run(seed):
            return simulate_node(spec, alpha, 200, seed).locations

        report = cesaro_measure(CellIndicator(grid, Cell(0, 0)), run, seeds=range(5))
        assert report.final_value == 1.0
        assert report.converged

    def test_matches_known_two_cell_frequency(self):
        grid = GRID2
        alpha = build_alphabet(grid, (Fraction(1),))
        spec = WaypointProcessSpec.iid_uniform(grid)

        def run(seed):
            return simulate_node(spec, alpha, 2000, seed).locations

        report = cesaro_measure(
            CellIndicator(grid, Cell(0, 0)), run, seeds=range(40), tolerance=0.05
        )
        # symmetric two-cell model occupies each cell half the time
        assert abs(report.final_value - 0.5) < 0.02

    def test_needs_seeds(self):
        with pytest.raises(ValueError):
            cesaro_measure(CellIndicator(GRID2, Cell(0, 0)), lambda s: None, seeds=[])


class TestErgodicity:
    def test_spread_small_for_symmetric_model(self):
        grid = GRID2
        alpha = build_alphabet(grid, (Fraction(1),))
        spec = WaypointProcessSpec.iid_uniform(grid)

        def run(seed):
            return simulate_node(spec, alpha, 20_000, seed).locations

        report = ergodicity_check(CellIndicator(grid, Cell(0, 0)), run, seeds=range(6))
        assert report.all_converged
        assert report.spread < 0.03
        assert report.agrees_within(0.03)
        assert abs(report.mean - 0.5) < 0.01


class TestHistogram:
    def test_counts_and_frequencies(self):
        trace = make_trace([0, 0, 1, 0])
        hist = location_histogram(trace)
        assert hist.counts.tolist() == [3, 1]
        assert hist.frequencies.tolist() == [0.75, 0.25]
        assert hist.frequency(Cell(0, 0)) == 0.75

    def test_joint_per_node(self):
        grid = GRID2
        joint = JointTrace(grid, np.array([[0, 0], [1, 0]]))
        hist = location_histogram(joint)
        assert hist.counts.tolist() == [3, 1]
        assert hist.per_node is not None
        assert hist.per_node.tolist() == [[2, 0], [1, 1]]


@st.composite
def sticky_joint_traces(draw):
    """Joint traces on grids up to 4x4 whose nodes stay put for random runs.

    Lengths up to twice the checkpoint count are drawn as often as longer
    ones, so traces with fewer steps than checkpoints or tail are covered;
    long stays leave some cells unconverged.
    """
    grid = GridSpec(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    nodes = draw(st.integers(1, 3))
    steps = draw(
        st.one_of(st.integers(1, 2 * DEFAULT_CHECKPOINT_COUNT), st.integers(1, 600))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stay = draw(st.sampled_from([0.0, 0.9, 0.99]))
    moves = rng.random((nodes, steps)) >= stay
    moves[:, 0] = True
    fresh = rng.integers(0, grid.size, size=(nodes, steps))
    last_move = np.maximum.accumulate(np.where(moves, np.arange(steps), 0), axis=1)
    return JointTrace(grid, np.take_along_axis(fresh, last_move, axis=1))


class TestCellTimeAverages:
    @given(sticky_joint_traces())
    def test_matches_time_average_per_cell(self, trace):
        averages = cell_time_averages(trace)
        hist = location_histogram(trace)
        assert np.array_equal(averages.visits, hist.per_node)
        for node in range(trace.node_count):
            for cell in trace.grid.cells():
                cid = trace.grid.cell_id(cell)
                report = time_average(CellIndicator(trace.grid, cell), trace.node(node))
                assert averages.final_values[node, cid] == report.final_value
                assert averages.cauchy_widths[node, cid] == report.cauchy_width
                assert averages.converged[node, cid] == report.converged
