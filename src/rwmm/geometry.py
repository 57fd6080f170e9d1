"""Discrete geography: grid cells, digitized trips, and the path alphabet.

A trip between two waypoints is digitized by sampling the straight segment
between their cell centers once per unit time step at a fixed speed and
rounding every sample to the nearest cell, the last sample being forced onto
the destination. Different speeds can produce different cell sequences for
the same waypoint pair; collecting the distinct sequences for every ordered
pair of cells yields a finite path alphabet. A digitized trip depends only on
its displacement, so the alphabet is built from one family per displacement,
(2W-1)(2H-1) of them, rather than one per cell pair.

All sampling arithmetic is exact. Sample offsets from the source have the
form ``k*v*span / sqrt(d2)`` with rational ``k*v`` and integer ``span`` and
``d2``, so rounding decisions reduce, after scaling by the denominator of
``k*v``, to sign tests of ``a*sqrt(d2) - b`` with integer ``a`` and ``b``,
which are decided by comparing squares. Half-integer ties round toward the smaller coordinate,
deterministically on every platform.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import CapacityError, ConfigurationError, enumeration_cap

SpeedLike = Union[Fraction, int, str]

# cells of one path as (dx, dy) offsets from its source
Offsets = tuple[tuple[int, int], ...]


@dataclass(frozen=True, order=True)
class Cell:
    """One cell of the finite geographic grid."""

    x: int
    y: int


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of ``width * height`` cells, indexed row-major by y."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigurationError(
                f"grid dimensions must be positive, got {self.width}x{self.height}"
            )

    @property
    def size(self) -> int:
        return self.width * self.height

    def contains(self, cell: Cell) -> bool:
        return 0 <= cell.x < self.width and 0 <= cell.y < self.height

    def cell_id(self, cell: Cell) -> int:
        if not self.contains(cell):
            raise ValueError(f"{cell} outside {self.width}x{self.height} grid")
        return cell.y * self.width + cell.x

    def cell_at(self, cell_id: int) -> Cell:
        if not 0 <= cell_id < self.size:
            raise ValueError(f"cell id {cell_id} outside grid of size {self.size}")
        return Cell(cell_id % self.width, cell_id // self.width)

    def cells(self) -> Iterator[Cell]:
        """All cells in id order."""
        for y in range(self.height):
            for x in range(self.width):
                yield Cell(x, y)


@dataclass(frozen=True)
class Path:
    """A digitized trip: ``length + 1`` cells from source to destination.

    ``cells[0]`` is the source waypoint and ``cells[-1]`` the destination;
    the trip takes ``length >= 1`` time steps.
    """

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if len(self.cells) < 2:
            raise ValueError("a path needs at least two cells (length >= 1)")

    @property
    def length(self) -> int:
        return len(self.cells) - 1

    @property
    def source(self) -> Cell:
        return self.cells[0]

    @property
    def dest(self) -> Cell:
        return self.cells[-1]


@dataclass(frozen=True)
class PathFamily:
    """The distinct digitized paths for one ordered waypoint pair."""

    source: Cell
    dest: Cell
    paths: tuple[Path, ...]

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError(f"empty path family for {self.source} -> {self.dest}")
        for p in self.paths:
            if p.source != self.source or p.dest != self.dest:
                raise ValueError(f"path {p} does not join {self.source} -> {self.dest}")

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)


def normalize_speeds(speeds: Iterable[SpeedLike]) -> tuple[Fraction, ...]:
    """Validate and canonicalize a speed set to sorted positive Fractions."""
    values = sorted({Fraction(v) for v in speeds})
    if not values:
        raise ConfigurationError("speed set must not be empty")
    if values[0] <= 0:
        raise ConfigurationError(f"speeds must be positive, got {values[0]}")
    return tuple(values)


def _sqrt_ge(coeff: int, rhs: int, radicand: int) -> bool:
    """Exact test of ``coeff * sqrt(radicand) >= rhs`` (radicand >= 0)."""
    if coeff >= 0:
        if rhs <= 0:
            return True
        return coeff * coeff * radicand >= rhs * rhs
    # left side <= 0 here
    if rhs > 0:
        return False
    return coeff * coeff * radicand <= rhs * rhs


def _step_count(radicand: int, speed: Fraction) -> int:
    """Smallest l >= 1 with ``l * speed >= sqrt(radicand)``."""
    if radicand == 0:
        return 1
    steps = max(1, math.ceil(math.sqrt(radicand) / float(speed) - 1e-9))
    while (steps * speed) ** 2 < radicand:
        steps += 1
    while steps > 1 and ((steps - 1) * speed) ** 2 >= radicand:
        steps -= 1
    return steps


def _round_coordinate(span: int, travelled: Fraction, radicand: int) -> int:
    """Nearest integer to ``travelled * span / sqrt(radicand)``.

    Half-integer ties go to the smaller value, i.e. the result is the
    smallest integer n with ``n + 1/2 >= coordinate``. A float estimate is
    corrected by exact comparisons, so the tie rule is honored even when the
    coordinate is exactly half-integral. The comparisons are scaled by
    ``2 * travelled.denominator`` so that they run on integers.
    """
    scale = travelled.denominator
    rhs = 2 * travelled.numerator * span
    estimate = float(travelled) * span / math.sqrt(radicand)
    n = math.floor(estimate + 0.5)

    def at_least_coordinate(m: int) -> bool:
        return _sqrt_ge((2 * m + 1) * scale, rhs, radicand)

    while not at_least_coordinate(n):
        n += 1
    while at_least_coordinate(n - 1):
        n -= 1
    return n


def _displacement_family(dx: int, dy: int, speeds: tuple[Fraction, ...]) -> tuple[Offsets, ...]:
    """Distinct digitized paths of the trip from (0, 0) to (dx, dy).

    Every speed contributes one path; a zero displacement yields the single
    pause path. Paths are ordered by (length, cell sequence).
    """
    if dx == 0 and dy == 0:
        return (((0, 0), (0, 0)),)
    radicand = dx * dx + dy * dy
    distinct: dict[Offsets, None] = {}
    for speed in speeds:
        steps = _step_count(radicand, speed)
        cells = [(0, 0)]
        for k in range(1, steps):
            travelled = k * speed
            cells.append(
                (
                    _round_coordinate(dx, travelled, radicand),
                    _round_coordinate(dy, travelled, radicand),
                )
            )
        cells.append((dx, dy))
        distinct.setdefault(tuple(cells))
    return tuple(sorted(distinct, key=lambda cells: (len(cells), cells)))


def enumerate_paths(
    grid: GridSpec,
    source: Cell,
    dest: Cell,
    speeds: Iterable[SpeedLike],
) -> PathFamily:
    """Digitize the source->dest trip at every speed and collect distinct paths.

    A same-cell trip yields the single pause path ``[source, source]`` of
    length 1 regardless of the speed set. Paths are ordered by (length,
    cell sequence), so identical inputs always produce identical families.
    The family is the translate of its displacement's family: rounding
    ``source + offset`` with an integer source commutes with translation,
    and translation keeps the order.
    """
    speed_set = normalize_speeds(speeds)
    for cell in (source, dest):
        if not grid.contains(cell):
            raise ValueError(f"{cell} outside {grid.width}x{grid.height} grid")
    family = _displacement_family(dest.x - source.x, dest.y - source.y, speed_set)
    paths = tuple(
        Path(tuple(Cell(source.x + ox, source.y + oy) for ox, oy in cells))
        for cells in family
    )
    return PathFamily(source, dest, paths)


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """Start offsets of consecutive blocks of the given sizes."""
    out = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


class _PathSequence(Sequence):
    """Read-only view of an alphabet's paths by id; each is built on access.

    It holds the tables rather than the alphabet, so that the two form no
    reference cycle and an alphabet is freed as soon as it is dropped.
    """

    def __init__(self, grid: GridSpec, lengths, dests, emit_offsets, emit_cells):
        self._grid = grid
        self._lengths = lengths
        self._dests = dests
        self._emit_offsets = emit_offsets
        self._emit_cells = emit_cells

    def __len__(self) -> int:
        return len(self._lengths)

    def __getitem__(self, index) -> Path:
        count = len(self)
        pid = operator.index(index)
        if pid < 0:
            pid += count
        if not 0 <= pid < count:
            raise IndexError(f"path id {index} outside alphabet of {count} paths")
        start = int(self._emit_offsets[pid])
        ids = self._emit_cells[start : start + int(self._lengths[pid])].tolist()
        ids.append(int(self._dests[pid]))
        return Path(tuple(self._grid.cell_at(c) for c in ids))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _PathSequence)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]


class PathAlphabet:
    """Every digitized path of a grid, as flat tables built from displacement families.

    A path's cells depend only on its trip's displacement ``(dx, dy)``, so
    the alphabet is built from one family per displacement (cells relative
    to the source) and translated to every ordered cell pair with numpy
    gathers.

    Attributes
    ----------
    grid            : the underlying grid (waypoint alphabet equals its cells)
    all_paths       : every path by id, a read-only sequence built on access
    max_path_length : largest path length over the whole alphabet

    The numpy tables index paths and ordered cell pairs by id
    (``pair_id = source_id * grid.size + dest_id``):

    family_sizes / family_offsets
        pair p owns the contiguous path ids ``family_offsets[p]`` to
        ``family_offsets[p] + family_sizes[p] - 1``, ordered by (length,
        cell sequence); ids follow pair-id order
    path_lengths, path_sources, path_dests
        per-path metadata
    emit_offsets / emit_cells
        per-path emitted cell ids (the first ``length`` cells of the path,
        the destination being emitted by the next trip), flattened
    """

    def __init__(self, grid: GridSpec, families: Mapping[tuple[int, int], Sequence[Offsets]]):
        """Build the tables from ``families[(dx, dy)]`` for every displacement."""
        self.grid = grid
        width, height, size = grid.width, grid.height, grid.size
        disp_sizes: list[int] = []
        member_lengths: list[int] = []
        member_emits: list[int] = []  # emitted cells relative to the source id
        for dy in range(1 - height, height):
            for dx in range(1 - width, width):
                if (dx, dy) not in families:
                    raise ValueError(f"missing path family for displacement {(dx, dy)}")
                members = families[(dx, dy)]
                disp_sizes.append(len(members))
                for cells in members:
                    member_lengths.append(len(cells) - 1)
                    member_emits.extend(ox + oy * width for ox, oy in cells[:-1])
        lengths = np.array(member_lengths, dtype=np.int64)
        self.max_path_length = int(lengths.max())

        # displacement index of every ordered pair, in pair-id order
        xs = np.arange(size, dtype=np.int64) % width
        ys = np.arange(size, dtype=np.int64) // width
        disp = (
            (ys[None, :] - ys[:, None] + height - 1) * (2 * width - 1)
            + (xs[None, :] - xs[:, None] + width - 1)
        ).ravel()
        disp_sizes_arr = np.array(disp_sizes, dtype=np.int64)
        self.family_sizes = disp_sizes_arr[disp]
        self.family_offsets = _exclusive_cumsum(self.family_sizes)

        # each path's pair, and its member index in the displacement tables
        count = int(self.family_sizes.sum())
        pairs = np.repeat(np.arange(size * size, dtype=np.int64), self.family_sizes)
        member = np.repeat(
            _exclusive_cumsum(disp_sizes_arr)[disp] - self.family_offsets, self.family_sizes
        ) + np.arange(count, dtype=np.int64)
        self.path_sources = pairs // size
        self.path_dests = pairs % size
        self.path_lengths = lengths[member]
        self.emit_offsets = _exclusive_cumsum(self.path_lengths)

        # each emitted cell's index in member_emits, then translated to its
        # source; in place, so that at most two emission-sized arrays are alive
        index = np.repeat(
            _exclusive_cumsum(lengths)[member] - self.emit_offsets, self.path_lengths
        )
        index += np.arange(len(index), dtype=np.int64)
        self.emit_cells = np.array(member_emits, dtype=np.int64)[index]
        del index
        self.emit_cells += np.repeat(self.path_sources, self.path_lengths)

        self.all_paths: Sequence[Path] = _PathSequence(
            grid, self.path_lengths, self.path_dests, self.emit_offsets, self.emit_cells
        )
        self._member_sets: dict[int, frozenset[int]] = {}

    def pair_id(self, source: Cell, dest: Cell) -> int:
        return self.grid.cell_id(source) * self.grid.size + self.grid.cell_id(dest)

    def family_id_set(self, source: Cell, dest: Cell) -> frozenset[int]:
        """Member path ids of one family, as a set (built once per pair)."""
        pair = self.pair_id(source, dest)
        members = self._member_sets.get(pair)
        if members is None:
            start = int(self.family_offsets[pair])
            members = frozenset(range(start, start + int(self.family_sizes[pair])))
            self._member_sets[pair] = members
        return members

    def path_id(self, path: Path) -> int:
        """The id of a path, searched within its pair's id range."""
        pair = self.pair_id(path.source, path.dest)
        start = int(self.family_offsets[pair])
        for pid in range(start, start + int(self.family_sizes[pair])):
            if self.all_paths[pid] == path:
                return pid
        raise ValueError(f"{path} is not in the alphabet")


def build_alphabet(
    grid: GridSpec,
    speeds: Iterable[SpeedLike],
    cap: int | None = None,
) -> PathAlphabet:
    """Digitize every displacement of the grid and build the path alphabet.

    Raises :class:`CapacityError` before enumerating when
    ``|S|^2 * |speeds|`` (an upper bound on the total path count, since each
    speed contributes at most one path per pair) exceeds the cap.
    """
    speed_set = normalize_speeds(speeds)
    limit = enumeration_cap() if cap is None else cap
    bound = grid.size * grid.size * len(speed_set)
    if bound > limit:
        raise CapacityError(
            f"path enumeration bound {bound} (= {grid.size}^2 pairs x "
            f"{len(speed_set)} speeds) exceeds cap {limit}"
        )
    families = {
        (dx, dy): _displacement_family(dx, dy, speed_set)
        for dy in range(1 - grid.height, grid.height)
        for dx in range(1 - grid.width, grid.width)
    }
    return PathAlphabet(grid, families)
