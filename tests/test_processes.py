"""Exact measure and sampler tests for the waypoint/path layer.

Expected probabilities were worked out by hand from the defining products
(waypoint marginals times per-pair uniform path choices) before being frozen
here. The per-coordinate stationarity gap and total mass are checked against
the cylinder-by-cylinder enumerations in ``oracles``, on real alphabets and on
disjoint family ranges where the gap is nonzero, and the stationarity check
against a full enumeration of the path-symbol space on an instance small
enough to brute-force. The closed-form path-cylinder probability is checked
against ``oracles.marginal_path_prob``, which sums the channel over every
waypoint prefix. Each channel function, and ``verify-channel``, is held to a
fixed number of family lookups whatever its horizon. The blocked Markov
sampler is checked against ``oracles.bisect_walk``, draw for draw, and its
successor table bucket by bucket.
"""

import ast
import math
import re
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rwmm import processes
from rwmm.cli import main
from rwmm.errors import ConfigurationError
from rwmm.geometry import Cell, GridSpec, PathAlphabet, build_alphabet
from rwmm.processes import (
    CylinderEvent,
    WaypointProcessSpec,
    _markov_distribution_at,
    _stationarity_gap,
    channel_cylinder_prob,
    channel_total_mass,
    check_channel_stationarity,
    check_output_mixing,
    path_process_prob,
    sample_paths,
    sample_waypoints,
    uniform_prefix,
    waypoint_cylinder_prob,
)

from oracles import (
    bisect_walk,
    dense_initial,
    dense_lazy_walk,
    dense_markov_distribution,
    dense_transition,
    enumerated_product_gap,
    enumerated_stationarity_gap,
    enumerated_total_mass,
    marginal_path_prob,
    per_pair_alphabet,
)

A, B = Cell(0, 0), Cell(0, 1)


def oracle_prob(spec, alpha, speeds, event, span):
    """``marginal_path_prob`` of the event, its library ids mapped to the oracle's ids."""
    grid = alpha.grid
    index = {path: i for i, path in enumerate(per_pair_alphabet(grid, speeds).all_paths)}
    symbols = tuple(index[alpha.all_paths[pid]] for pid in event.symbols)
    return marginal_path_prob(spec, grid, speeds, CylinderEvent(event.start, symbols), span)


@pytest.fixture(scope="module")
def two_cell():
    grid = GridSpec(1, 2)
    return grid, build_alphabet(grid, (Fraction(1),))


@pytest.fixture(scope="module")
def row_three():
    grid = GridSpec(1, 3)
    return grid, build_alphabet(grid, (Fraction(1), Fraction(2)))


class TestCylinderEvent:
    def test_end_index(self):
        assert CylinderEvent(2, (A, B)).end == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CylinderEvent(0, ())

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            CylinderEvent(-1, (A,))


class TestWaypointMeasures:
    def test_iid_uniform_cylinder(self):
        spec = WaypointProcessSpec.iid_uniform(GridSpec(1, 2))
        assert waypoint_cylinder_prob(spec, CylinderEvent(0, (A, B))) == Fraction(1, 4)
        assert waypoint_cylinder_prob(spec, CylinderEvent(3, (A,))) == Fraction(1, 2)

    def test_markov_cylinder_from_start(self):
        spec = WaypointProcessSpec.markov(
            GridSpec(1, 2),
            [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]],
            [Fraction(1, 4), Fraction(3, 4)],
        )
        # P(w0 = A, w1 = B) = 1/4 * 1/2
        assert waypoint_cylinder_prob(spec, CylinderEvent(0, (A, B))) == Fraction(1, 8)

    def test_markov_cylinder_from_offset(self):
        spec = WaypointProcessSpec.markov(
            GridSpec(1, 2),
            [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]],
            [Fraction(1, 4), Fraction(3, 4)],
        )
        # distribution after one step is (3/8, 5/8); then B -> A at 1/3
        assert waypoint_cylinder_prob(spec, CylinderEvent(1, (B, A))) == Fraction(5, 24)

    def test_markov_validation(self):
        grid = GridSpec(1, 2)
        with pytest.raises(ConfigurationError):
            WaypointProcessSpec.markov(grid, [[1, 0], [0, 1]], [1, 0])  # reducible
        with pytest.raises(ConfigurationError):
            WaypointProcessSpec.markov(grid, [[0, 1], [1, 0]], [1, 0])  # periodic
        with pytest.raises(ConfigurationError):
            WaypointProcessSpec.markov(
                grid, [[Fraction(1, 2), Fraction(1, 3)], [0, 1]], [1, 0]
            )  # rows must sum to 1
        with pytest.raises(ConfigurationError):
            WaypointProcessSpec.markov(
                grid,
                [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]],
                [Fraction(3, 4), Fraction(3, 4)],
            )  # initial must sum to 1
        with pytest.raises(ConfigurationError, match="must be 2x2"):
            WaypointProcessSpec.markov(grid, [[Fraction(1, 2), Fraction(1, 2)], [1]], [1, 0])
        # entries outside [0, 1], whose weights p·D would pass int64
        with pytest.raises(ConfigurationError, match="rows must be positive"):
            WaypointProcessSpec.markov(grid, [[10**19, 1 - 10**19], [0, 1]], [1, 0])
        with pytest.raises(ConfigurationError, match="initial distribution must be"):
            WaypointProcessSpec.markov(grid, [[0, 1], [1, 0]], [10**19, 1 - 10**19])

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_chain_shape_matches_matrix_powers(self, edges):
        # irreducible iff (I + A)^(n-1) > 0; an irreducible chain is aperiodic
        # iff A^(n^2 - 2n + 2) > 0 (Wielandt); reducibility is reported first
        assume(all(any(row) for row in edges))
        n = len(edges)
        adjacency = np.array(edges, dtype=np.int64)
        steps = np.eye(n, dtype=np.int64) + adjacency
        irreducible = (np.linalg.matrix_power(steps, n - 1) > 0).all()
        aperiodic = (np.linalg.matrix_power(adjacency, n * n - 2 * n + 2) > 0).all()
        rows = [[Fraction(int(edge), sum(row)) for edge in row] for row in edges]
        error = None if aperiodic else "must be aperiodic"
        if not irreducible:
            error = "must be irreducible"
        if error is None:
            WaypointProcessSpec.markov(GridSpec(1, n), rows, [Fraction(1, n)] * n)
        else:
            with pytest.raises(ConfigurationError, match=error):
                WaypointProcessSpec.markov(GridSpec(1, n), rows, [Fraction(1, n)] * n)

    # two states that each move to either with weight 1 of 2
    HALVES = dict(denominator=2, initial=[1, 1], indptr=[0, 2, 4], targets=[0, 1, 0, 1],
                  weights=[1, 1, 1, 1])

    @pytest.mark.parametrize(
        "changes, error",
        [
            ({"initial": None}, "needs matrix and initial"),
            ({"indptr": None, "targets": None, "weights": None}, "needs matrix and initial"),
            ({"indptr": [0, 2], "targets": [0, 1], "weights": [1, 1]}, "must be 2x2"),
            ({"initial": [2]}, "initial distribution must have 2"),
            ({"targets": [1, 0, 0, 1]}, "ascending ids below 2"),
            ({"targets": [0, 2, 0, 1]}, "ascending ids below 2"),
            ({"weights": [1, 2, 1, 1]}, "rows must be positive and sum to 1"),
            ({"weights": [0, 2, 1, 1]}, "rows must be positive"),
            ({"indptr": [0, 0, 2], "targets": [0, 1], "weights": [1, 1]}, "rows must be positive"),
            ({"initial": [1, 2]}, "initial distribution must be nonnegative and sum to 1"),
            ({"initial": [3, -1]}, "initial distribution must be nonnegative"),
            ({"denominator": 2**63}, r"denominator below 2\^63"),
            ({"weights": np.array([1, 1, 1, 1], dtype=np.int32)}, "1-D int64 arrays"),
            ({"initial": [[1, 1]]}, "1-D int64 arrays"),
        ],
        ids=[
            "no-initial", "no-matrix", "short-matrix", "short-initial", "descending-row",
            "id-outside", "row-sum", "zero-weight", "empty-row", "initial-sum",
            "negative-initial", "denominator", "int32-weights", "2-d-initial",
        ],
    )
    def test_spec_built_directly_is_validated(self, changes, error):
        fields = {
            name: value if value is None or name == "denominator" else np.array(value)
            for name, value in {**self.HALVES, **changes}.items()
        }
        with pytest.raises(ConfigurationError, match=error):
            WaypointProcessSpec(GridSpec(1, 2), **fields)

    def test_row_sum_that_wraps_is_refused(self):
        # 2 * (2^63 - 1) + 3 = 2^64 + 1 is D = 1 modulo 2^64: an int64 sum
        # of the row reads 1, but its running sum turns negative where it wraps
        top = 2**63 - 1
        with pytest.raises(ConfigurationError, match="rows must be positive and sum to 1"):
            WaypointProcessSpec(
                GridSpec(1, 3),
                denominator=1,
                initial=np.array([1, 0, 0]),
                indptr=np.array([0, 3, 4, 5]),
                targets=np.array([0, 1, 2, 0, 0]),
                weights=np.array([top, top, 3, 1, 1]),
            )

    def test_lazy_walk_rows(self):
        spec = WaypointProcessSpec.lazy_walk(GridSpec(2, 2), stay=Fraction(1, 2))
        # every cell stays with 2 of D = 4 and moves to its two neighbors
        # with 1 each, and starts with 1
        assert spec.denominator == 4
        assert spec.initial.tolist() == [1, 1, 1, 1]
        assert spec.indptr.tolist() == [0, 3, 6, 9, 12]
        assert spec.targets.tolist() == [0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3]
        assert spec.weights.tolist() == [2, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 2]
        corner = dense_transition(spec)[0]  # (0,0): neighbors (1,0) and (0,1)
        assert corner[0] == Fraction(1, 2)
        assert corner[1] == Fraction(1, 4)
        assert corner[2] == Fraction(1, 4)
        assert corner[3] == 0

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(2, 30).flatmap(
            lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q))
        ),
    )
    def test_lazy_walk_rows_match_dense_oracle(self, width, height, stay):
        grid = GridSpec(width, height)
        spec = WaypointProcessSpec.lazy_walk(grid, stay)
        dense = dense_lazy_walk(grid, stay)
        assert dense_transition(spec) == dense
        assert dense_initial(spec) == [Fraction(1, grid.size)] * grid.size
        # the least common denominator, as every draw's bucket depends on it
        lcm = math.lcm(grid.size, *(p.denominator for row in dense for p in row))
        assert spec.denominator == lcm
        for row in np.split(spec.targets, spec.indptr[1:-1]):
            assert (np.diff(row) > 0).all()
        assert (spec.weights > 0).all()

    def test_lazy_walk_memory_is_its_integer_rows(self):
        # indptr and initial, and about five targets and weights a cell, all
        # int64: about 95 bytes a cell; a dict of Fractions per cell held 444
        grid = GridSpec(100, 100)
        WaypointProcessSpec.lazy_walk(GridSpec(2, 2))  # first calls' one-off allocations
        tracemalloc.start()
        try:
            spec = WaypointProcessSpec.lazy_walk(grid, Fraction(1, 3))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert spec.denominator is not None
        assert held <= 150 * grid.size

    def test_lazy_walk_peak_is_a_few_times_its_rows(self):
        # the padded n x 5 rows are freed before the spec's checks run, and
        # the reversed rows before the gcd: 300x300 at stay 1/3 peaks at 3.1
        # times the 8.6 MB the spec holds (6.1 with the padded rows alive
        # through the checks and the reversed rows through the gcd)
        WaypointProcessSpec.lazy_walk(GridSpec(2, 2))  # first calls' one-off allocations
        tracemalloc.start()
        try:
            spec = WaypointProcessSpec.lazy_walk(GridSpec(300, 300), Fraction(1, 3))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spec.denominator is not None
        assert peak / held < 4


class TestChannelMeasures:
    def test_product_of_family_sizes(self):
        grid = GridSpec(4, 1)
        alpha = build_alphabet(grid, (Fraction(1), Fraction(3, 2), Fraction(3)))
        w = [Cell(1, 0), Cell(3, 0), Cell(1, 0), Cell(0, 0)]
        first = sorted(alpha.family_id_set(w[0], w[1]))
        second = sorted(alpha.family_id_set(w[1], w[2]))
        assert (len(first), len(second)) == (2, 3)
        prob = channel_cylinder_prob(alpha, w, CylinderEvent(0, (first[0], second[0])))
        assert prob == Fraction(1, 6)

    def test_off_support_is_zero(self, two_cell):
        grid, alpha = two_cell
        w = [A, B, A]
        pause_a = next(iter(alpha.family_id_set(A, A)))
        # fixing the A->B slot to the A->A pause path is off support
        assert channel_cylinder_prob(alpha, w, CylinderEvent(0, (pause_a,))) == 0

    def test_needs_enough_waypoints(self, two_cell):
        _, alpha = two_cell
        with pytest.raises(ValueError):
            channel_cylinder_prob(alpha, [A, B], CylinderEvent(1, (0,)))

    def test_normalization_on_random_prefixes(self, row_three):
        grid, alpha = row_three
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = uniform_prefix(grid, 4, rng)
            assert channel_total_mass(alpha, w, 3) == 1

    def test_stationarity_gap_is_exactly_zero(self, row_three):
        grid, alpha = row_three
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = uniform_prefix(grid, 5, rng)
            assert check_channel_stationarity(alpha, w, 3) == 0

    def test_support_enumeration_matches_full_enumeration(self, two_cell):
        # brute force over the whole symbol space: every cylinder outside the
        # support product must carry zero measure on both sides, so the
        # restricted maximum is the true maximum
        grid, alpha = two_cell
        rng = np.random.default_rng(5)
        n = 2
        all_ids = list(alpha.all_paths)
        for _ in range(5):
            w = uniform_prefix(grid, n + 2, rng)
            shifted = w[1:]
            worst = Fraction(0)
            mass_lhs = Fraction(0)
            for combo in product(all_ids, repeat=n):
                lhs = channel_cylinder_prob(alpha, shifted, CylinderEvent(0, combo))
                rhs = channel_cylinder_prob(alpha, w, CylinderEvent(1, combo))
                worst = max(worst, abs(lhs - rhs))
                mass_lhs += lhs
            assert mass_lhs == 1  # nothing lives outside the support
            assert worst == check_channel_stationarity(alpha, w, n)


def _sets(pairs):
    """The id sets of the families of each pair, as the oracle takes them."""
    return [(frozenset(side_a), frozenset(side_b)) for side_a, side_b in pairs]


class TestChannelClosedForms:
    """Per-coordinate gap and mass against the cylinder-by-cylinder oracles."""

    @pytest.mark.parametrize(
        "pairs,gap",
        [
            # both sides' families equal: every cylinder has the same measure
            ([(range(0, 2), range(0, 2)), (range(2, 3), range(2, 3))], Fraction(0)),
            # one coordinate differs: the A tuples' 1/2 beats the B tuples' 1/3
            ([(range(0, 2), range(2, 5))], Fraction(1, 2)),
            # the B tuples win: 1/2 against 1/4
            ([(range(0, 4), range(4, 6))], Fraction(1, 2)),
            # equal sizes tie
            ([(range(0, 2), range(2, 4))], Fraction(1, 2)),
            # nothing shared at coordinate 1; one side alone gives 1/2 · 1
            ([(range(0, 2), range(0, 2)), (range(4, 5), range(5, 6))], Fraction(1, 2)),
            # two differing coordinates: 1/4 against 1/9
            ([(range(0, 2), range(2, 5)), (range(5, 7), range(7, 10))], Fraction(1, 4)),
            # an equal coordinate scales both sides: 1/3 · 1 against 1/3 · 1/2
            ([(range(0, 3), range(0, 3)), (range(3, 4), range(4, 6))], Fraction(1, 3)),
            # the products decide, not one coordinate: 1/5 against 1/3
            ([(range(0, 1), range(1, 4)), (range(4, 9), range(9, 10))], Fraction(1, 3)),
            # two disjoint single paths
            ([(range(0, 1), range(1, 2))], Fraction(1)),
        ],
    )
    def test_gap_on_fixed_families(self, pairs, gap):
        assert _stationarity_gap(pairs) == gap
        assert enumerated_product_gap(_sets(pairs)) == gap

    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.booleans()),
            min_size=1,
            max_size=4,
        )
    )
    def test_gap_equals_enumeration_on_unequal_families(self, coordinates):
        # at each coordinate the two families are one range or two disjoint ones
        pairs = [
            (range(0, size_a), range(0, size_a) if same else range(size_a, size_a + size_b))
            for size_a, size_b, same in coordinates
        ]
        assert _stationarity_gap(pairs) == enumerated_product_gap(_sets(pairs))

    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.sets(st.integers(1, 6), min_size=1, max_size=3),
        st.integers(1, 3),
        st.randoms(use_true_random=False),
    )
    def test_checks_equal_enumeration(self, width, height, halves, horizon, rnd):
        grid = GridSpec(width, height)
        alpha = build_alphabet(grid, tuple(Fraction(h, 2) for h in sorted(halves)))
        cells = list(grid.cells())
        w = [rnd.choice(cells) for _ in range(horizon + 2)]
        assert check_channel_stationarity(alpha, w, horizon) == enumerated_stationarity_gap(
            alpha, w, horizon
        )
        assert channel_total_mass(alpha, w, horizon) == enumerated_total_mass(alpha, w, horizon)
        # families of two unrelated prefixes: real, unequal id sets
        v = [rnd.choice(cells) for _ in range(horizon + 1)]
        def family(a, b):
            first, size = alpha.family_ranges(grid.cell_id(a), grid.cell_id(b))
            return range(int(first), int(first + size))

        pairs = [(family(w[i], w[i + 1]), family(v[i], v[i + 1])) for i in range(horizon)]
        assert _stationarity_gap(pairs) == enumerated_product_gap(_sets(pairs))


class TestOutputMixing:
    def test_zero_at_and_beyond_event_span(self, row_three):
        grid, alpha = row_three
        rng = np.random.default_rng(6)
        for _ in range(5):
            w = uniform_prefix(grid, 7, rng)
            b0 = sorted(alpha.family_id_set(w[0], w[1]))[0]
            b1 = sorted(alpha.family_id_set(w[1], w[2]))[0]
            for shift in (2, 3, 4):
                a0 = sorted(alpha.family_id_set(w[shift], w[shift + 1]))[0]
                check = check_output_mixing(alpha, w, [a0], [b0, b1], shift)
                assert check.premise_met
                assert check.discrepancy == 0

    def test_nonzero_below_event_span(self, row_three):
        grid, alpha = row_three
        s, d = Cell(0, 0), Cell(0, 2)
        w = [s, d, s, d, s]
        sd = sorted(alpha.family_id_set(s, d))
        ds = sorted(alpha.family_id_set(d, s))
        # both events pin index 1 to the same path: joint 1/4 vs 1/2 * 1/4
        check = check_output_mixing(alpha, w, [ds[0]], [sd[0], ds[0]], shift=1)
        assert not check.premise_met
        assert check.discrepancy == Fraction(1, 8)

    def test_conflicting_overlap_gives_zero_joint(self, row_three):
        grid, alpha = row_three
        s, d = Cell(0, 0), Cell(0, 2)
        w = [s, d, s, d, s]
        sd = sorted(alpha.family_id_set(s, d))
        ds = sorted(alpha.family_id_set(d, s))
        # events disagree at index 1 -> joint is 0, product is positive
        check = check_output_mixing(alpha, w, [ds[0]], [sd[0], ds[1]], shift=1)
        assert check.discrepancy == Fraction(1, 2) * Fraction(1, 4)


class TestChannelPrefixes:
    """Each channel function reads its waypoint prefix's families in one lookup."""

    @staticmethod
    def calls(alpha, w, first, horizon):
        """Each public channel function on the prefix ``w``, its events ``horizon`` paths long.

        The events fix ``first[i]`` at path index i.
        """
        return [
            lambda: channel_cylinder_prob(alpha, w, CylinderEvent(0, tuple(first[:horizon]))),
            lambda: check_channel_stationarity(alpha, w, horizon),
            lambda: check_output_mixing(
                alpha, w, first[horizon : 2 * horizon], first[:horizon], horizon
            ),
            lambda: channel_total_mass(alpha, w, horizon),
        ]

    @pytest.mark.parametrize("horizon", [1, 50])
    def test_one_family_lookup_at_any_horizon(self, tmp_path, monkeypatch, capsys, horizon):
        grid = GridSpec(3, 3)
        alpha = build_alphabet(grid, (Fraction(1), Fraction(2)))
        w = uniform_prefix(grid, 2 * horizon + 2, np.random.default_rng(8))
        ids = np.array([grid.cell_id(cell) for cell in w])
        first = alpha.walk_family_ranges(ids)[0].tolist()
        lookups = []
        # the lookup behind family_ranges and walk_family_ranges
        family_ranges = PathAlphabet._family_ranges

        def counted(self, sources, dx, dy):
            lookups.append(sources)
            return family_ranges(self, sources, dx, dy)

        monkeypatch.setattr(PathAlphabet, "_family_ranges", counted)
        results, counts = [], []
        for call in self.calls(alpha, w, first, horizon):
            lookups.clear()
            results.append(call())
            counts.append(len(lookups))
        assert counts == [1, 1, 1, 1]
        assert results[0] > 0
        assert results[1:] == [0, (0, True), 1]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "grid_width = 3\ngrid_height = 3\nspeeds = 1, 2\nhorizon = 10\nnodes = 1\n"
            "waypoints = iid-uniform\n"
        )
        lookups.clear()
        argv = ["verify-channel", "--config", str(cfg), "--horizon", str(horizon)]
        assert main(argv + ["--prefixes", "4"]) == 0
        assert "all checks passed" in capsys.readouterr().out
        # per prefix: stationarity, mass, three decoupling shifts and the
        # command's own first path of each family
        assert len(lookups) == 4 * 6

    @pytest.mark.parametrize("index", [0, 2])
    def test_waypoint_outside_grid_is_named(self, row_three, index):
        grid, alpha = row_three
        w = [Cell(0, 0), Cell(0, 1), Cell(0, 2), Cell(0, 1), Cell(0, 0)]
        w[index] = Cell(0, 3)
        with pytest.raises(ValueError) as refused:
            grid.cell_id(w[index])
        assert str(Cell(0, 3)) in str(refused.value)
        for call in self.calls(alpha, w, [0] * 4, 2):
            with pytest.raises(ValueError, match=re.escape(str(refused.value))):
                call()


class TestPathProcess:
    def test_single_symbol(self, two_cell):
        grid, alpha = two_cell
        spec = WaypointProcessSpec.iid_uniform(grid)
        for pid in alpha.all_paths:
            assert path_process_prob(spec, alpha, CylinderEvent(0, (pid,))) == Fraction(1, 4)

    def test_two_symbols(self, two_cell):
        grid, alpha = two_cell
        spec = WaypointProcessSpec.iid_uniform(grid)
        pause_a = next(iter(alpha.family_id_set(A, A)))
        hop_ab = next(iter(alpha.family_id_set(A, B)))
        event = CylinderEvent(0, (pause_a, hop_ab))
        # the only contributing waypoint prefix is (A, A, B): (1/2)^3
        assert path_process_prob(spec, alpha, event) == Fraction(1, 8)

    def test_halved_by_family_size(self, row_three):
        grid, alpha = row_three
        spec = WaypointProcessSpec.iid_uniform(grid)
        s, d = Cell(0, 0), Cell(0, 2)
        direct = next(
            pid for pid in alpha.family_id_set(s, d) if alpha.all_paths[pid].length == 1
        )
        # P(w0=s, w1=d) * 1/2 = (1/9) * (1/2)
        assert path_process_prob(spec, alpha, CylinderEvent(0, (direct,))) == Fraction(1, 18)

    def test_longer_horizon_same_value(self, two_cell):
        grid, alpha = two_cell
        spec = WaypointProcessSpec.iid_uniform(grid)
        event = CylinderEvent(0, (min(alpha.all_paths),))
        assert path_process_prob(spec, alpha, event) == path_process_prob(
            spec, alpha, event, horizon=4
        )

    def test_family_of_the_ordered_pair(self):
        # ties round toward the smaller coordinate, so at these speeds the trip
        # from (0, 2) to (0, 0) has two paths and the trip back has one
        grid = GridSpec(1, 3)
        speeds = (Fraction(1), Fraction(3, 2))
        alpha = build_alphabet(grid, speeds)
        spec = WaypointProcessSpec.iid_uniform(grid)
        s, d = Cell(0, 2), Cell(0, 0)
        down, up = min(alpha.family_id_set(s, d)), min(alpha.family_id_set(d, s))
        # each trip's two waypoints have probability 1/9; its family has 2 or 1 paths
        for event, value in [
            (CylinderEvent(0, (down,)), Fraction(1, 18)),
            (CylinderEvent(0, (up,)), Fraction(1, 9)),
        ]:
            assert path_process_prob(spec, alpha, event) == value
            assert oracle_prob(spec, alpha, speeds, event, 2) == value

    def test_capacity_guard(self):
        # both events once needed more waypoint prefixes than the enumeration
        # cap allows (9^8 and 25^8); the closed form enumerates none
        grid = GridSpec(3, 3)
        speeds = (Fraction(1),)
        alpha = build_alphabet(grid, speeds)
        spec = WaypointProcessSpec.iid_uniform(grid)
        # the first six paths in pair order
        first_six = per_pair_alphabet(grid, speeds).all_paths[:6]
        ids = {path: pid for pid, path in alpha.all_paths.items()}
        event = CylinderEvent(0, tuple(ids[path] for path in first_six))
        assert path_process_prob(spec, alpha, event) == oracle_prob(
            spec, alpha, speeds, event, event.end + 2
        )

        grid = GridSpec(5, 5)
        speeds = (Fraction(1), Fraction(2))
        alpha = build_alphabet(grid, speeds)
        spec = WaypointProcessSpec.lazy_walk(grid)
        a, b, c = Cell(1, 1), Cell(1, 2), Cell(2, 2)
        first = min(alpha.family_id_set(a, b))
        second = min(alpha.family_id_set(b, c))
        event = CylinderEvent(5, (first, second))
        value = path_process_prob(spec, alpha, event)
        assert value > 0
        assert value == oracle_prob(spec, alpha, speeds, event, event.end + 2)

    def test_rejects_path_id_outside_alphabet(self, two_cell):
        grid, alpha = two_cell
        spec = WaypointProcessSpec.iid_uniform(grid)
        ids = list(alpha.all_paths)
        # an id below the last one that names no path: its member's
        # displacement leaves the grid from its source
        unnamed = next(p for p in range(max(ids)) if p not in ids)
        for pid in (-1, unnamed, max(ids) + 1):
            with pytest.raises(ValueError, match="outside alphabet"):
                path_process_prob(spec, alpha, CylinderEvent(0, (ids[0], pid)))
            with pytest.raises(ValueError, match="outside alphabet"):
                channel_cylinder_prob(alpha, [A, B], CylinderEvent(0, (pid,)))
            with pytest.raises(KeyError):
                alpha.all_paths[pid]

    def test_rejects_alphabet_on_another_grid(self, two_cell):
        grid, alpha = two_cell
        spec = WaypointProcessSpec.iid_uniform(GridSpec(2, 1))
        with pytest.raises(ValueError, match="different grids"):
            path_process_prob(spec, alpha, CylinderEvent(0, (0,)))

    def test_rejects_horizon_shorter_than_event(self, two_cell):
        grid, alpha = two_cell
        spec = WaypointProcessSpec.iid_uniform(grid)
        event = CylinderEvent(1, (0, 1))
        with pytest.raises(ValueError, match="horizon"):
            path_process_prob(spec, alpha, event, horizon=event.end + 1)

    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.sets(st.integers(1, 6), min_size=1, max_size=3),
        st.booleans(),
        st.integers(2, 4).flatmap(
            lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q))
        ),
        st.integers(0, 3),
        st.sampled_from(["chained", "unchained", "random"]),
        st.integers(0, 2),
        st.randoms(use_true_random=False),
    )
    def test_closed_form_equals_marginal_oracle(
        self, width, height, halves, walk, stay, start, kind, extra, rnd
    ):
        grid = GridSpec(width, height)
        speeds = tuple(Fraction(h, 2) for h in sorted(halves))
        alpha = build_alphabet(grid, speeds)
        if walk:
            spec = WaypointProcessSpec.lazy_walk(grid, stay)
        else:
            spec = WaypointProcessSpec.iid_uniform(grid)
        cells = list(grid.cells())
        length = rnd.randint(1, 3)

        def member(a, b):
            return rnd.choice(sorted(alpha.family_id_set(a, b)))

        if kind == "chained":
            walk = [rnd.choice(cells) for _ in range(length + 1)]
            ids = [member(a, b) for a, b in zip(walk, walk[1:])]
        elif kind == "unchained":
            ids = [member(rnd.choice(cells), rnd.choice(cells)) for _ in range(length)]
        else:
            ids = [rnd.choice(list(alpha.all_paths)) for _ in range(length)]
        event = CylinderEvent(start, tuple(ids))
        span = event.end + 2 + extra
        horizon = span if extra else None
        assert path_process_prob(spec, alpha, event, horizon=horizon) == oracle_prob(
            spec, alpha, speeds, event, span
        )


def _cycle_chain(weights, initial):
    # n = len(initial) states; the cycle 0 -> 1 -> ... -> n - 1 -> 0 and the
    # self loop at 0 make every such chain irreducible and aperiodic; other
    # entries of the n x n weights may be zero
    n = len(initial)
    weights = list(weights)
    for i, j in ((0, 0), *((i, (i + 1) % n) for i in range(n))):
        weights[n * i + j] += 1
    rows = [
        [Fraction(w, sum(weights[n * i : n * i + n])) for w in weights[n * i : n * i + n]]
        for i in range(n)
    ]
    return WaypointProcessSpec.markov(
        GridSpec(1, n), rows, [Fraction(w, sum(initial)) for w in initial]
    )


def _two_state_chain(p):
    return WaypointProcessSpec.markov(GridSpec(1, 2), [[p, 1 - p], [1 - p, p]], [p, 1 - p])


STAYS = st.integers(2, 30).flatmap(
    lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q))
)
MARKOV_SPECS = st.one_of(
    # random chains on 1 to 5 states, built from their dense matrices
    st.integers(1, 5).flatmap(
        lambda n: st.builds(
            _cycle_chain,
            st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n),
            st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any),
        )
    ),
    st.builds(
        lambda width, height, stay: WaypointProcessSpec.lazy_walk(GridSpec(width, height), stay),
        st.integers(1, 6),
        st.integers(1, 6),
        STAYS,
    ),
    # the largest common denominator the sampler admits
    st.just(_two_state_chain(Fraction(1, 2**63 - 1))),
)


def _distribution_at(spec, index):
    """The library's integer masses at ``index``, over ``D^(index + 1)``, as probabilities."""
    scale = spec.denominator ** (index + 1)
    return [Fraction(mass, scale) for mass in _markov_distribution_at(spec, index)]


class TestMarkovDistribution:
    @pytest.mark.parametrize("start", range(7))
    def test_lazy_walk_equals_matrix_power(self, start):
        spec = WaypointProcessSpec.lazy_walk(GridSpec(3, 3), Fraction(1, 3))
        assert _distribution_at(spec, start) == dense_markov_distribution(spec, start)

    @given(
        st.lists(st.integers(0, 3), min_size=9, max_size=9),
        st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any),
    )
    def test_random_chain_equals_matrix_power(self, weights, initial):
        spec = _cycle_chain(weights, initial)
        for start in range(7):
            assert _distribution_at(spec, start) == dense_markov_distribution(spec, start)


class TestSamplers:
    def test_waypoints_reproducible(self):
        spec = WaypointProcessSpec.iid_uniform(GridSpec(3, 3))
        a = sample_waypoints(spec, 100, seed=9)
        b = sample_waypoints(spec, 100, seed=9)
        c = sample_waypoints(spec, 100, seed=10)
        assert np.array_equal(a.ids, b.ids)
        assert not np.array_equal(a.ids, c.ids)

    def test_paths_stay_in_their_families(self):
        grid = GridSpec(3, 3)
        alpha = build_alphabet(grid, (Fraction(1), Fraction(2)))
        spec = WaypointProcessSpec.iid_uniform(grid)
        w = sample_waypoints(spec, 500, seed=11)
        p = sample_paths(alpha, w, seed=12)
        assert len(p) == 499
        sources, dests = alpha.endpoints(p.ids)
        assert np.array_equal(sources, w.ids[:-1])
        assert np.array_equal(dests, w.ids[1:])

    def test_markov_sampler_tracks_matrix(self):
        grid = GridSpec(1, 2)
        spec = WaypointProcessSpec.markov(
            grid,
            [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]],
            [Fraction(1, 2), Fraction(1, 2)],
        )
        w = sample_waypoints(spec, 60_000, seed=13)
        ids = w.ids
        from_zero = ids[1:][ids[:-1] == 0]
        frac_01 = (from_zero == 1).mean()
        assert abs(frac_01 - 0.5) < 0.02
        from_one = ids[1:][ids[:-1] == 1]
        frac_10 = (from_one == 0).mean()
        assert abs(frac_10 - 1 / 3) < 0.02

    def test_iid_sampler_is_roughly_uniform(self):
        grid = GridSpec(3, 3)
        spec = WaypointProcessSpec.iid_uniform(grid)
        w = sample_waypoints(spec, 90_000, seed=14)
        counts = np.bincount(w.ids, minlength=9)
        assert abs(counts / len(w.ids) - 1 / 9).max() < 0.01

    def test_uniform_prefix_in_grid(self):
        grid = GridSpec(2, 3)
        rng = np.random.default_rng(0)
        prefix = uniform_prefix(grid, 50, rng)
        assert len(prefix) == 50
        assert all(grid.contains(c) for c in prefix)


# the lazy walks whose float cumulative rows end short of 1 (see below)
GAP_WALKS = [((6, 6), Fraction(1, 2)), ((10, 10), Fraction(1, 3))]


def _rows(spec):
    """The spec's distributions in the table's row order: transitions, then initial."""
    return [*dense_transition(spec), dense_initial(spec)]


def _table_moves(table, state, draws):
    """The state the table picks from ``state`` on each draw; state n is the first waypoint's."""
    if state == len(table.successor):
        return [table.start[bisect_right(table.start_sums, u)] for u in draws]
    buckets = np.searchsorted(table.cuts, draws, side="right")
    return [table.successor[state][b] for b in buckets.tolist()]


# a spec taking each route of the walk, with whether its table keeps
# bucket_of and pairs
WALK_ROUTES = {
    "pairs": (WaypointProcessSpec.lazy_walk(GridSpec(6, 6)), True, True),
    "searchsorted": (_two_state_chain(Fraction(1, 2**63 - 1)), False, True),
    # n·B² = 1600 · 10² is over processes._TABLE_ENTRIES
    "one-step": (WaypointProcessSpec.lazy_walk(GridSpec(40, 40)), True, False),
}


class TestExactMarkovSampler:
    @pytest.mark.parametrize("size,stay", GAP_WALKS)
    def test_top_draw_stays_in_support(self, size, stay):
        spec = WaypointProcessSpec.lazy_walk(GridSpec(*size), stay)
        # a float draw of 1 - 2^-53 lies above these rows' float cumulative
        # sums, and searching them sends the node to cell n-1
        gap_rows = [
            row for row in dense_transition(spec)
            if np.cumsum([float(p) for p in row])[-1] <= 1 - 2**-53
        ]
        assert gap_rows
        table = spec.sampling_table
        for state, row in enumerate(_rows(spec)):
            (top,) = _table_moves(table, state, [table.denominator - 1])
            assert row[top] > 0

    @pytest.mark.parametrize("size,stay", GAP_WALKS)
    def test_every_draw_counts_exactly(self, size, stay):
        spec = WaypointProcessSpec.lazy_walk(GridSpec(*size), stay)
        table = spec.sampling_table
        draws = np.arange(table.denominator, dtype=np.int64)
        for state, row in enumerate(_rows(spec)):
            counts = Counter(_table_moves(table, state, draws))
            assert [counts[j] for j in range(len(row))] == [p * table.denominator for p in row]

    @pytest.mark.parametrize(
        "spec, bucket_of, pairs", list(WALK_ROUTES.values()), ids=list(WALK_ROUTES)
    )
    def test_walk_routes(self, spec, bucket_of, pairs):
        table = spec.sampling_table
        assert (table.bucket_of is not None, bool(table.pairs)) == (bucket_of, pairs)

    @settings(max_examples=60)
    @given(MARKOV_SPECS, st.integers(1, 40), st.integers(1, 7), st.integers(0, 2**32))
    # every route of the walk (WALK_ROUTES): pairs over even blocks with an
    # odd last block, over odd blocks, searchsorted buckets, one step a time
    @example(WALK_ROUTES["pairs"][0], 40, 6, 1)
    @example(WALK_ROUTES["pairs"][0], 40, 7, 2)
    @example(WALK_ROUTES["searchsorted"][0], 40, 4, 3)
    @example(WALK_ROUTES["searchsorted"][0], 40, 5, 4)
    @example(WALK_ROUTES["one-step"][0], 40, 6, 5)
    def test_sampler_equals_bisect_walk(self, spec, count, block, seed):
        # small blocks, so that walks cross block edges
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(processes, "_WALK_BLOCK", block)
            ids = sample_waypoints(spec, count, seed).ids
        assert ids.dtype == np.int64
        assert ids.tolist() == bisect_walk(spec, count, seed)

    @pytest.mark.parametrize(
        "chain, entries, pairs",
        [
            (lambda: WaypointProcessSpec.lazy_walk(GridSpec(3, 3), Fraction(1, 3)), 0, False),
            # D = 20 is over the bound and n·B² = 2 · 3² is within it
            (lambda: _two_state_chain(Fraction(1, 20)), 18, True),
        ],
        ids=["one-step", "pairs"],
    )
    def test_searchsorted_route_on_draws_at_cuts(self, monkeypatch, chain, entries, pairs):
        # a small D, so that many draws equal a cut: searchsorted must put
        # each in the bucket above the cut, as bucket_of does
        monkeypatch.setattr(processes, "_TABLE_ENTRIES", entries)
        spec = chain()
        table = spec.sampling_table
        assert (table.bucket_of is None, bool(table.pairs)) == (True, pairs)
        assert sample_waypoints(spec, 2000, 7).ids.tolist() == bisect_walk(spec, 2000, 7)

    @pytest.mark.parametrize(
        "side, count",
        [(100, 2**17), (100, 2**20), (20, 2**17), (20, 2**20)],
        ids=["131072", "1048576", "20x20-131072", "20x20-1048576"],
    )
    def test_walk_memory_is_its_ids_and_one_block(self, side, count):
        # one step an iteration on 100x100, whose table has no pairs, two
        # on 20x20
        spec = WaypointProcessSpec.lazy_walk(GridSpec(side, side))
        spec.sampling_table  # built once per spec, not per walk
        tracemalloc.start()
        try:
            sample_waypoints(spec, count, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 8-byte ids, and one block's draws, buckets, pair keys and
        # states: 25 to 29 bytes a block step
        assert peak <= 8 * count + 40 * processes._WALK_BLOCK

    def test_pairs_hold_one_pointer_an_entry(self):
        # the 40,000 entries of a 20x20 walk's pairs are the ints of steps,
        # about 9 bytes an entry with the lists; a new int per entry, as
        # ndarray.tolist() makes above 256, took 20
        spec = WaypointProcessSpec.lazy_walk(GridSpec(20, 20))
        tracemalloc.start()
        try:
            pairs = spec.sampling_table.pairs
            del spec  # what is still traced is held by pairs
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        entries = sum(map(len, pairs))
        assert entries == 40_000
        assert held / entries < 11

    def test_sampler_source_has_no_float_arithmetic(self):
        # exactness rests on integer buckets: the table build, the walk and
        # every function of the module they name use no float, no true
        # division and no numpy float, rounding or log routine
        # the spec's builders and checks decide which cells are reachable,
        # so they are held to the same rule
        tree = ast.parse(FilePath(processes.__file__).read_text())
        spec_class = next(
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "WaypointProcessSpec"
        )
        defined = {}
        for root in (tree, spec_class):  # the spec's methods over others of their name
            defined.update(
                (node.name, node) for node in ast.walk(root) if isinstance(node, ast.FunctionDef)
            )
        reached = ["lazy_walk", "markov", "__post_init__", "sampling_table", "sample_waypoints"]
        for name in reached:  # grows as it is read
            named = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(defined[name])
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            reached.extend(sorted(named & defined.keys() - set(reached)))
        assert {
            "_bfs_depths",
            "_check_denominator",
            "_check_irreducible_aperiodic",
            "_from_padded_rows",
            "_lazy_walk_rows",
            "_reversed_rows",
            "_rng",
            "_running_sums",
        } <= set(reached)

        def floating(node) -> bool:
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                return isinstance(node.op, ast.Div)
            if isinstance(node, ast.Attribute):
                return node.attr in (
                    "sqrt", "rint", "round", "around", "floor", "ceil", "trunc", "fix"
                ) or node.attr.startswith(("float", "log"))
            return isinstance(node, ast.Name) and node.id in ("float", "round", "sqrt")

        offending = [
            node.lineno
            for name in reached
            for node in ast.walk(defined[name])
            if floating(node)
        ]
        assert offending == []

    def test_first_waypoint_drawn_from_initial(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        spec = WaypointProcessSpec.markov(
            GridSpec(1, 3),
            [[half, half, 0], [third, third, third], [0, half, half]],
            [0, 0, 1],
        )
        assert {int(sample_waypoints(spec, 2, seed).ids[0]) for seed in range(20)} == {2}

    def test_tables_built_once_per_spec(self):
        spec = WaypointProcessSpec.lazy_walk(GridSpec(3, 3))
        assert spec.sampling_table is spec.sampling_table

    @given(st.integers(1, 5), st.integers(1, 5), STAYS, st.integers(0, 2**32))
    def test_lazy_walk_moves_only_along_the_matrix(self, width, height, stay, seed):
        spec = WaypointProcessSpec.lazy_walk(GridSpec(width, height), stay)
        ids = sample_waypoints(spec, 300, seed).ids.tolist()
        dense = dense_transition(spec)
        assert spec.initial[ids[0]] > 0
        assert all(dense[a][b] > 0 for a, b in zip(ids, ids[1:]))

    def test_denominator_limit(self):
        largest = _two_state_chain(Fraction(1, 2**63 - 1))
        assert len(sample_waypoints(largest, 50, seed=1)) == 50
        # a chain no int64 draw can sample is refused when it is built
        with pytest.raises(ConfigurationError, match=f"denominator .*{2**63}"):
            _two_state_chain(Fraction(1, 2**63))
        with pytest.raises(ConfigurationError, match=f"denominator .*{2 * 10**19}"):
            WaypointProcessSpec.lazy_walk(GridSpec(2, 2), Fraction(1, 10**19))
