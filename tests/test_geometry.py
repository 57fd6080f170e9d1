"""Grid, exact digitization, and path-alphabet tests.

The digitizer is checked two independent ways: frozen hand-worked examples,
and an exhaustive sweep against the symbolic reference in ``oracles.py``
(sympy radicals, no custom integer sign tests).
"""

import ast
import hashlib
import re
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwmm.errors import CapacityError, ConfigurationError
from rwmm.geometry import (
    Cell,
    GridSpec,
    Path,
    build_alphabet,
    normalize_speeds,
)

from oracles import (
    per_pair_alphabet,
    scalar_alphabet_tables,
    scalar_emitted_cells,
    sympy_digitize,
)


def numpy_tables(alphabet):
    return {name: v for name, v in vars(alphabet).items() if isinstance(v, np.ndarray)}


@lru_cache(maxsize=64)
def _alphabet(grid, speeds):
    return build_alphabet(grid, speeds)


def family(grid, source, dest, speeds):
    """The paths of the family of the cells (source, dest), read from the alphabet's id range."""
    alpha = _alphabet(grid, normalize_speeds(speeds))
    members = alpha.family_id_set(grid.cell_id(source), grid.cell_id(dest))
    return [alpha.all_paths[i] for i in sorted(members)]


def family_cells(grid, source, dest, speeds):
    """Each path of the family as its tuple of cells."""
    return [tuple(map(grid.cell_at, p.cells)) for p in family(grid, source, dest, speeds)]


class TestGridSpec:
    def test_cell_ids_are_row_major(self):
        grid = GridSpec(3, 2)
        assert grid.size == 6
        assert grid.cell_id(Cell(0, 0)) == 0
        assert grid.cell_id(Cell(2, 0)) == 2
        assert grid.cell_id(Cell(0, 1)) == 3
        assert [grid.cell_id(c) for c in grid.cells()] == list(range(6))
        for cid in range(6):
            assert grid.cell_id(grid.cell_at(cid)) == cid

    def test_contains(self):
        grid = GridSpec(2, 2)
        assert grid.contains(Cell(1, 1))
        assert not grid.contains(Cell(2, 0))
        assert not grid.contains(Cell(0, -1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GridSpec(0, 3)

    def test_cell_id_rejects_outside(self):
        with pytest.raises(ValueError):
            GridSpec(2, 2).cell_id(Cell(5, 0))


# the path ids of speeds 1 and 2 on a 1x3 grid
ROW3_PATHS = (3, 4, 5, 6, 9, 10, 11, 14, 15, 16, 17)


class TestIdEntries:
    """Cell and path ids name the first entry of the input that is not an int.

    ``np.asarray`` casts every entry of a list to one type, so a float or a
    string beside ints once made the refusal name an int: ``[1, '4']`` as
    ``'1'``, ``[1, 2.5]`` as ``1.0``.
    """

    @given(
        st.lists(
            st.one_of(
                st.integers(0, 8),
                st.floats(),
                st.integers(0, 20).map(float),
                st.integers(0, 20).map(str),
                st.text(max_size=3),
            ),
            min_size=1,
            max_size=6,
        ),
        st.booleans(),
    )
    @example([1, "4"], False)
    @example([1, 2.5], False)
    @example([0, 3.0], True)
    @pytest.mark.parametrize("kind", ["cell", "path"])
    def test_first_entry_that_is_not_an_int_is_named(self, kind, entries, as_tuple):
        # an int entry is a valid id: cell v of a 3x3 grid, or path v of
        # ROW3_PATHS on the 1x3 grid
        if kind == "cell":
            check = GridSpec(3, 3).check_ids
        else:
            check = _alphabet(GridSpec(1, 3), (Fraction(1), Fraction(2))).endpoints
            entries = [ROW3_PATHS[v] if isinstance(v, int) else v for v in entries]
        ids = tuple(entries) if as_tuple else entries
        bad = [v for v in entries if not isinstance(v, int)]
        if bad:
            error = f"{kind} id {bad[0]!r} is not an integer"
            with pytest.raises(ValueError, match=re.escape(error)):
                check(ids)
        elif kind == "cell":
            assert check(ids).tolist() == entries
        else:
            sources, _ = check(ids)
            assert len(sources) == len(entries)

    @pytest.mark.parametrize(
        "ids, named",
        [
            (True, "True"),
            (np.True_, "np.True_"),
            ([True, False], "True"),
            ([1, True], "True"),  # np.asarray makes this an int array
            (np.array([False, True]), "False"),
            (np.array([2, False], dtype=object), "False"),
        ],
    )
    def test_bools_are_refused(self, ids, named):
        # a bool is a Python int, but 0 or 1 as an id is a cast
        with pytest.raises(ValueError, match=re.escape(f"cell id {named} is not an integer")):
            GridSpec(3, 3).check_ids(ids)

    def test_int64_array_is_not_copied(self):
        ids = np.arange(9)
        assert GridSpec(3, 3).check_ids(ids) is ids


class TestNormalizeSpeeds:
    def test_sorts_and_converts(self):
        assert normalize_speeds((2, 1)) == (Fraction(1), Fraction(2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalize_speeds((1, 0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_speeds(())


class TestDigitization:
    def test_straight_line_unit_speed(self):
        cells = family_cells(GridSpec(4, 1), Cell(0, 0), Cell(3, 0), (1,))
        assert cells == [(Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(3, 0))]

    def test_two_speeds_give_two_paths(self):
        cells = family_cells(GridSpec(4, 1), Cell(0, 0), Cell(3, 0), (1, 3))
        assert (Cell(0, 0), Cell(3, 0)) in cells
        assert (Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(3, 0)) in cells
        assert len(cells) == 2

    def test_three_speeds_on_a_row(self):
        cells = family_cells(
            GridSpec(4, 1), Cell(0, 0), Cell(3, 0), (1, Fraction(3, 2), 3)
        )
        # speed 3/2 samples at arc 3/2: x = 1.5, a tie, rounded down to 1
        assert cells == [
            (Cell(0, 0), Cell(3, 0)),
            (Cell(0, 0), Cell(1, 0), Cell(3, 0)),
            (Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(3, 0)),
        ]

    def test_half_speed_tie_rounds_down(self):
        # sample lands exactly on x = 1/2 -> belongs to the smaller cell
        cells = family_cells(GridSpec(2, 1), Cell(0, 0), Cell(1, 0), (Fraction(1, 2),))
        assert cells == [(Cell(0, 0), Cell(0, 0), Cell(1, 0))]
        # in the negative direction the smaller cell is the destination's
        cells = family_cells(GridSpec(2, 1), Cell(1, 0), Cell(0, 0), (Fraction(1, 2),))
        assert cells == [(Cell(1, 0), Cell(0, 0), Cell(0, 0))]
        cells = family_cells(GridSpec(1, 2), Cell(0, 1), Cell(0, 0), (Fraction(1, 2),))
        assert cells == [(Cell(0, 1), Cell(0, 0), Cell(0, 0))]

    def test_diagonal(self):
        cells = family_cells(GridSpec(2, 2), Cell(0, 0), Cell(1, 1), (1,))
        assert cells == [(Cell(0, 0), Cell(1, 1), Cell(1, 1))]

    def test_final_sample_is_forced_to_destination(self):
        # at speed 2 the last free sample would land past x = 3
        cells = family_cells(GridSpec(4, 1), Cell(0, 0), Cell(3, 0), (2,))
        assert cells == [(Cell(0, 0), Cell(2, 0), Cell(3, 0))]

    def test_pause_is_a_single_unit_path(self):
        fam = family(GridSpec(3, 3), Cell(1, 1), Cell(1, 1), (Fraction(1),))
        assert len(fam) == 1
        assert fam[0].cells == (4, 4)  # the id of cell (1, 1)
        assert fam[0].length == 1

    def test_step_count_bounds(self):
        # l is minimal with l * v >= distance
        grid = GridSpec(6, 6)
        for speed in (
            Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
            Fraction(7, 3), Fraction(1, 10),
        ):
            for dest in (Cell(5, 0), Cell(3, 4), Cell(5, 5), Cell(1, 2)):
                dist2 = dest.x**2 + dest.y**2
                for p in family(grid, Cell(0, 0), dest, (speed,)):
                    length = p.length
                    assert (length * speed) ** 2 >= dist2
                    if length > 1:
                        assert ((length - 1) * speed) ** 2 < dist2

    def test_matches_symbolic_reference_exhaustively(self):
        # every pair on a 4x3 grid, three speeds, against the sympy route
        grid = GridSpec(4, 3)
        speeds = (Fraction(1), Fraction(3, 2), Fraction(2))
        for source, dest in product(grid.cells(), repeat=2):
            if source == dest:
                continue
            for speed in speeds:
                expected = tuple(sympy_digitize(source, dest, speed))
                assert family_cells(grid, source, dest, (speed,)) == [expected], (
                    source, dest, speed
                )

    def test_matches_symbolic_reference_long_vectors(self):
        grid = GridSpec(9, 5)
        for dest, speed in [
            (Cell(8, 3), Fraction(3, 2)),
            (Cell(7, 4), Fraction(1)),
            (Cell(8, 4), Fraction(7, 3)),
            (Cell(5, 4), Fraction(1, 2)),
        ]:
            expected = tuple(sympy_digitize(Cell(0, 0), dest, speed))
            assert family_cells(grid, Cell(0, 0), dest, (speed,)) == [expected], (dest, speed)


class TestPath:
    def test_length_and_endpoints(self):
        p = Path((0, 1, 2))
        assert p.length == 2
        assert p.source == 0
        assert p.dest == 2

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError):
            Path((0,))


class TestAlphabet:
    def test_small_alphabet_shape(self):
        grid = GridSpec(1, 2)
        alpha = build_alphabet(grid, (Fraction(1),))
        assert len(alpha.all_paths) == 4  # two pauses + two unit hops
        assert alpha.max_path_length == 1

    def test_tables_agree_with_paths(self):
        grid = GridSpec(3, 3)
        alpha = build_alphabet(grid, (Fraction(1), Fraction(2)))
        for pid, path in alpha.all_paths.items():
            assert alpha.lengths([pid]).tolist() == [path.length]
            sources, dests = alpha.endpoints([pid])
            assert sources.tolist() == [path.source]
            assert dests.tolist() == [path.dest]
            emitted = alpha.emitted_cells([pid])
            assert emitted.tolist() == list(path.cells[: path.length])

    def test_families_partition_and_match_enumeration(self):
        grid = GridSpec(3, 2)
        speeds = (Fraction(1), Fraction(2))
        alpha = build_alphabet(grid, speeds)
        seen = set()
        for source, dest in product(grid.cells(), repeat=2):
            members = alpha.family_id_set(grid.cell_id(source), grid.cell_id(dest))
            digitized = {
                Path(tuple(map(grid.cell_id, sympy_digitize(source, dest, v)))) for v in speeds
            }
            assert {alpha.all_paths[i] for i in members} == digitized
            assert seen.isdisjoint(members)
            seen |= members
        assert seen == set(alpha.all_paths)

    def test_capacity_guard(self, monkeypatch):
        # 5 x 5 displacements x 2 speeds = 50 digitized paths, at most the cap
        speeds = (Fraction(1), Fraction(2))
        monkeypatch.setenv("RWMM_ENUM_CAP", "50")
        build_alphabet(GridSpec(3, 3), speeds)
        monkeypatch.setenv("RWMM_ENUM_CAP", "49")
        with pytest.raises(CapacityError, match="bound 50"):
            build_alphabet(GridSpec(3, 3), speeds)

    def test_capacity_env_override(self, monkeypatch):
        monkeypatch.setenv("RWMM_ENUM_CAP", "10")
        with pytest.raises(CapacityError):
            build_alphabet(GridSpec(3, 3), (Fraction(1),))

    @pytest.mark.parametrize(
        "value, error", [("abc", "must be an integer, got 'abc'"), ("0", "must be positive, got 0")]
    )
    def test_capacity_env_refuses_bad_value(self, monkeypatch, value, error):
        monkeypatch.setenv("RWMM_ENUM_CAP", value)
        with pytest.raises(ConfigurationError, match=f"RWMM_ENUM_CAP {error}"):
            build_alphabet(GridSpec(3, 3), (Fraction(1),))

    def test_capacity_bound_counts_displacements(self, monkeypatch):
        # 49 x 49 displacements x 3 speeds = 7,203 digitized paths; the old
        # bound of 625^2 pairs x 3 speeds = 1,171,875 refused this grid
        monkeypatch.delenv("RWMM_ENUM_CAP", raising=False)
        grid = GridSpec(25, 25)
        speeds = (Fraction(1), Fraction(3, 2), Fraction(2))
        alpha = build_alphabet(grid, speeds)
        source, dest = Cell(24, 0), Cell(0, 24)
        corner = {tuple(sympy_digitize(source, dest, v)) for v in speeds}
        members = sorted(alpha.family_id_set(grid.cell_id(source), grid.cell_id(dest)))
        cells = [tuple(map(grid.cell_at, alpha.all_paths[pid].cells)) for pid in members]
        assert cells == sorted(
            corner, key=lambda cells: (len(cells), cells)
        )
        monkeypatch.setenv("RWMM_ENUM_CAP", "7202")
        with pytest.raises(CapacityError, match="7203"):
            build_alphabet(grid, speeds)

    def test_tables_stay_per_displacement(self):
        # 472,020 paths and 3.85M emitted cells: the per-pair tables took 48 MB
        alpha = build_alphabet(GridSpec(20, 20), (1, Fraction(3, 2), 2))
        assert len(alpha.all_paths) == 472_020
        assert sum(table.nbytes for table in numpy_tables(alpha).values()) < 10**6

    @pytest.mark.parametrize(
        "width, height, speeds, digest",
        [
            (
                20, 20, (1, Fraction(3, 2), 2),
                "97d7f6e2ab15b586fecc5f54438ee92b321634513cc5b4dc98833fb40aba0f3b",
            ),
            (
                15, 11, (Fraction(1, 3), Fraction(5, 7), Fraction(7, 3), Fraction(13, 9)),
                "1be8d905c25afcc133db73fba47fc1adfe8cad0d110b31e6e972b70631506559",
            ),
        ],
        ids=["20x20", "15x11-fine-speeds"],
    )
    def test_alphabet_pinned(self, width, height, speeds, digest):
        # sha256 of every path's id, length, endpoints and emitted cells: any
        # change to a step count or a rounding decision shows here
        alpha = build_alphabet(GridSpec(width, height), speeds)
        ids = np.fromiter(alpha.all_paths, np.int64, count=len(alpha.all_paths))
        h = hashlib.sha256()
        for table in (ids, alpha.lengths(ids), *alpha.endpoints(ids), alpha.emitted_cells(ids)):
            h.update(np.asarray(table, dtype="<i8").tobytes())
        assert h.hexdigest() == digest

    def test_deterministic_ordering(self):
        a = build_alphabet(GridSpec(3, 3), (Fraction(1), Fraction(2)))
        b = build_alphabet(GridSpec(3, 3), (Fraction(1), Fraction(2)))
        assert a.all_paths == b.all_paths
        tables = numpy_tables(b)
        for name, table in numpy_tables(a).items():
            assert np.array_equal(table, tables[name]), name


class TestAlphabetTables:
    """The displacement-keyed build against the per-pair oracle."""

    @pytest.mark.parametrize(
        "width, height, speeds",
        [
            (1, 2, (1,)),
            (3, 3, (Fraction(1, 2), 1, Fraction(7, 3))),
            (7, 5, (1, Fraction(3, 2), 2, Fraction(7, 3))),
            (6, 6, (1, Fraction(4, 3), Fraction(3, 2), 2, Fraction(5, 2), 3)),
        ],
    )
    def test_tables_equal_per_pair_oracle(self, width, height, speeds):
        grid = GridSpec(width, height)
        alpha = build_alphabet(grid, speeds)
        oracle = per_pair_alphabet(grid, speeds)
        # every pair's family, member by member, in the oracle's order
        for pair, (source, dest) in enumerate(product(range(grid.size), repeat=2)):
            ids = sorted(alpha.family_id_set(source, dest))
            assert ids == list(range(ids[0], ids[0] + len(ids)))  # contiguous
            start, size = oracle.family_offsets[pair], oracle.family_sizes[pair]
            expected = [oracle.all_paths[i] for i in oracle.family_members[start : start + size]]
            assert [alpha.all_paths[p] for p in ids] == expected, (source, dest)
        # every id's tables, against the oracle's row of the same path
        ids = np.array(list(alpha.all_paths), dtype=np.int64)
        assert len(ids) == len(alpha.all_paths) == len(oracle.all_paths)
        index = {path: i for i, path in enumerate(oracle.all_paths)}
        rows = np.array([index[alpha.all_paths[p]] for p in ids.tolist()], dtype=np.int64)
        assert sorted(rows.tolist()) == list(range(len(oracle.all_paths)))
        assert np.array_equal(alpha.lengths(ids), oracle.path_lengths[rows])
        sources, dests = alpha.endpoints(ids)
        assert np.array_equal(sources, oracle.path_sources[rows])
        assert np.array_equal(dests, oracle.path_dests[rows])
        starts = oracle.emit_offsets[rows]
        ends = starts + oracle.path_lengths[rows]
        emitted = [oracle.emit_cells[a:b] for a, b in zip(starts, ends)]
        assert np.array_equal(alpha.emitted_cells(ids), np.concatenate(emitted))
        assert alpha.max_path_length == oracle.max_path_length

    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    def test_walk_families_are_each_pairs_family(self, width, height, data):
        grid = GridSpec(width, height)
        alpha = _alphabet(grid, (Fraction(1), Fraction(3, 2)))
        ids = data.draw(st.lists(st.integers(0, grid.size - 1), min_size=1, max_size=12))
        walk = np.array(ids, dtype=np.int64)
        first, sizes = alpha.family_ranges(walk[:-1], walk[1:])
        assert np.array_equal(walk, ids)  # the lookup writes into neither input
        pairs = [alpha.family_ranges(a, b) for a, b in zip(ids, ids[1:])]  # Python ints
        assert [(int(f), int(n)) for f, n in pairs] == list(zip(first.tolist(), sizes.tolist()))
        assert [list(range(f, f + n)) for f, n in zip(first.tolist(), sizes.tolist())] == [
            sorted(alpha.family_id_set(a, b))
            for a, b in zip(ids, ids[1:])
        ]

    def test_all_paths_is_a_read_only_view(self):
        grid = GridSpec(3, 2)
        alpha = build_alphabet(grid, (1, 2))
        paths = per_pair_alphabet(grid, (1, 2)).all_paths
        ids = list(alpha.all_paths)
        assert len(alpha.all_paths) == len(ids) == len(paths)
        assert ids == sorted(ids)
        assert {alpha.all_paths[np.int64(p)] for p in ids} == set(paths)
        # ids are sparse: a source's members whose displacement leaves the
        # grid name no path, and neither does any id past the last source
        unnamed = [p for p in range(max(ids)) if p not in alpha.all_paths]
        assert unnamed
        for key in (-1, *unnamed, max(ids) + 1, 10**30, "0"):
            with pytest.raises(KeyError):
                alpha.all_paths[key]
        assert all(p in alpha.all_paths for p in ids)
        assert not any(key in alpha.all_paths for key in (-1, 10**30, "0", 1.5))
        with pytest.raises(TypeError):
            alpha.all_paths[0] = paths[0]


def _translate(cells, tx, ty):
    return tuple(Cell(c.x + tx, c.y + ty) for c in cells)


@st.composite
def trips(draw):
    """A grid, a trip inside it, and a translation that keeps the trip inside."""
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    dx = draw(st.integers(1 - width, width - 1))
    dy = draw(st.integers(1 - height, height - 1))
    source = Cell(
        draw(st.integers(max(0, -dx), min(width, width - dx) - 1)),
        draw(st.integers(max(0, -dy), min(height, height - dy) - 1)),
    )
    dest = Cell(source.x + dx, source.y + dy)
    tx = draw(st.integers(-min(source.x, dest.x), width - 1 - max(source.x, dest.x)))
    ty = draw(st.integers(-min(source.y, dest.y), height - 1 - max(source.y, dest.y)))
    return GridSpec(width, height), source, dest, tx, ty


# half-integer speeds put samples of axis-aligned trips exactly on cell
# borders, the tie cases of the rounding rule
speeds_st = st.builds(Fraction, st.integers(1, 7), st.integers(1, 2))
# p/q with q in 1..7 and p in q..7q: the digitizer scales the squared
# distance by q^2, so denominators past 2 must be drawn too
fine_speeds_st = st.integers(1, 7).flatmap(
    lambda q: st.builds(Fraction, st.integers(q, 7 * q), st.just(q))
)


class TestDigitizerProperties:
    @settings(max_examples=200)
    @given(trips(), st.lists(speeds_st, min_size=1, max_size=4))
    def test_translation_invariant(self, trip, speeds):
        grid, source, dest, tx, ty = trip
        cells = family_cells(grid, source, dest, speeds)
        moved = family_cells(
            grid, Cell(source.x + tx, source.y + ty), Cell(dest.x + tx, dest.y + ty), speeds
        )
        assert [_translate(path, tx, ty) for path in cells] == moved

    @given(trips(), st.one_of(speeds_st, fine_speeds_st))
    def test_matches_symbolic_reference(self, trip, speed):
        grid, source, dest, _, _ = trip
        expected = tuple(sympy_digitize(source, dest, speed))
        assert family_cells(grid, source, dest, (speed,)) == [expected]


# the build's speeds: the fine speeds, and slow ones whose paths run long
build_speeds_st = st.one_of(fine_speeds_st, st.sampled_from([Fraction(1, 10), Fraction(1, 7)]))
# speeds that put samples of the perfect-square displacements (3, 4), (6, 8)
# and (5, 12) exactly on a cell border, the tie cases of the rounding rule
SQUARE_TIE_SPEEDS = (Fraction(5, 4), Fraction(5, 2), Fraction(3, 2), Fraction(1, 10))
LONG_SQUARE_TIE_SPEEDS = (Fraction(13, 6), Fraction(13, 4), Fraction(13, 2), Fraction(1, 10))


def member_emits(alpha):
    """Every member's emitted cells once, in member order, each digitized from
    a source where it fits and given relative to that source."""
    grid = alpha.grid
    width, height = grid.width, grid.height
    dy, dx = np.divmod(np.arange((2 * width - 1) * (2 * height - 1)), 2 * width - 1)
    dx -= width - 1
    dy -= height - 1
    sources = grid.ids(np.maximum(-dx, 0), np.maximum(-dy, 0))
    firsts, sizes = alpha.family_ranges(sources, sources + grid.ids(dx, dy))
    ids = np.concatenate([np.arange(f, f + n) for f, n in zip(firsts, sizes)])
    emitted = alpha.emitted_cells(ids)
    assert emitted.dtype == np.int64
    return emitted - np.repeat(np.repeat(sources, sizes), alpha.lengths(ids))


class TestVectorizedBuild:
    """The build's tables against the scalar digitizer, one sample at a time."""

    @settings(max_examples=60)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.lists(build_speeds_st, min_size=1, max_size=4),
    )
    # each grid holds its displacements in all four sign quadrants, and
    # 13x6 holds (12, 5), whose ties fall on the other axis
    @example(7, 9, SQUARE_TIE_SPEEDS)
    @example(9, 7, SQUARE_TIE_SPEEDS)
    @example(6, 13, LONG_SQUARE_TIE_SPEEDS)
    @example(13, 6, LONG_SQUARE_TIE_SPEEDS)
    def test_tables_equal_scalar_oracle(self, width, height, speeds):
        grid = GridSpec(width, height)
        alpha = build_alphabet(grid, speeds)
        oracle = scalar_alphabet_tables(grid, speeds)
        for table, expected in [
            (alpha._family_sizes, oracle.family_sizes),
            (alpha._lengths, oracle.lengths),
        ]:
            assert table.dtype == np.int64
            assert np.array_equal(table, expected)
        assert np.array_equal(member_emits(alpha), oracle.emits)

    def test_members_longer_than_a_block(self):
        # 3x3 at speed 1/2000: the diagonal members run 5657 samples, more
        # than 2**12, and are digitized whole
        grid = GridSpec(3, 3)
        alpha = build_alphabet(grid, (Fraction(1, 2000),))
        assert alpha.max_path_length > 1 << 12
        assert np.array_equal(
            member_emits(alpha), scalar_alphabet_tables(grid, (Fraction(1, 2000),)).emits
        )

    @settings(max_examples=60)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.lists(build_speeds_st, min_size=1, max_size=3),
        st.data(),
    )
    def test_emitted_cells_equal_per_id_oracle(self, width, height, speeds, data):
        grid = GridSpec(width, height)
        alpha = _alphabet(grid, normalize_speeds(speeds))
        assert alpha.emitted_cells([]).tolist() == []
        drawn = data.draw(st.lists(st.sampled_from(list(alpha.all_paths)), max_size=12))
        # each drawn member again, from a source where it fits, then all
        # shuffled with the drawn ids repeated
        moved = []
        for pid in drawn:
            (source,), (dest,) = alpha.endpoints([pid])
            first, _ = alpha.family_ranges(source, dest)
            (sx, sy), (tx, ty) = grid.xy(int(source)), grid.xy(int(dest))
            x = data.draw(st.integers(max(0, sx - tx), width - 1 - max(0, tx - sx)))
            y = data.draw(st.integers(max(0, sy - ty), height - 1 - max(0, ty - sy)))
            moved_source = grid.ids(x, y)
            moved_first, _ = alpha.family_ranges(moved_source, moved_source + dest - source)
            moved.append(int(moved_first) + pid - int(first))
        ids = data.draw(st.permutations(drawn + moved + drawn))
        emitted = alpha.emitted_cells(np.array(ids, dtype=np.int64))
        assert emitted.dtype == np.int64
        assert emitted.tolist() == scalar_emitted_cells(alpha, speeds, ids)

    def test_slow_speed_holds_nothing_per_sample(self):
        # paths of up to 2,828,428 samples: the alphabet keeps per member its
        # length, displacement and speed, and no square past 2 * span
        tracemalloc.start()
        try:
            alpha = build_alphabet(GridSpec(3, 3), (Fraction(1, 1000000),))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert alpha.max_path_length == 2_828_428
        assert held < 2**20

    def test_refuses_speed_past_int64(self):
        # 10x10: 4 q^2 R D^2 <= 2^62 admits q up to 9,373,458; q is taken far
        # past that, where an unguarded build fails at once, not after GBs
        with pytest.raises(CapacityError, match="1/10000000000 on a 10x10 grid"):
            build_alphabet(GridSpec(10, 10), (1, Fraction(1, 10**10)))
        with pytest.raises(CapacityError, match="2147483649 on a 1x1 grid"):
            build_alphabet(GridSpec(1, 1), (2**31 + 1,))
        # a numerator of 2^31 is the largest admitted: every trip takes one step
        alpha = build_alphabet(GridSpec(3, 1), (2**31,))
        assert alpha.max_path_length == 1


def test_digitizer_source_has_no_float_arithmetic():
    # the digitizer decides every rounding in integers: no math.sqrt, no
    # float, no true division and no numpy float, rounding or log routine
    source = FilePath(__file__).parents[1] / "src" / "rwmm" / "geometry.py"

    def floating(node) -> bool:
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.Div)
        if isinstance(node, ast.Attribute):
            return node.attr in ("sqrt", "rint", "floor", "ceil") or node.attr.startswith(
                ("float", "log")
            )
        return isinstance(node, ast.Name) and node.id in ("float", "sqrt")

    offending = [node.lineno for node in ast.walk(ast.parse(source.read_text())) if floating(node)]
    assert offending == []
