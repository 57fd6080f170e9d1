"""Discrete geography: grid cells, digitized trips, and the path alphabet.

A trip between two waypoints is digitized by sampling the straight segment
between their cell centers once per unit time step at a fixed speed and
rounding every sample to the nearest cell, the last sample being forced onto
the destination. Different speeds can produce different cell sequences for
the same waypoint pair; collecting the distinct sequences for every ordered
pair of cells yields a finite path alphabet. A digitized trip depends only on
its displacement, so the alphabet stores one family per displacement,
(2W-1)(2H-1) of them, rather than one per cell pair, and a path id names a
source cell and a displacement member (see :class:`PathAlphabet`).

All sampling arithmetic is in integers. At speed ``p/q`` a trip of
displacement ``(dx, dy)`` covers ``sqrt(S) / q`` with ``S = q^2 (dx^2 + dy^2)``,
so it takes ``ceil(sqrt(S / p^2))`` steps. Sample ``k`` lies ``a / sqrt(S)``
half-cells from the source along an axis of span ``d``, with ``a = 2kpd``,
and rounds to ``ceil(a / sqrt(S)) // 2``: the nearest cell, half-integer ties
toward the smaller coordinate. ``math.isqrt`` gives both ceilings in closed
form, deterministically on every platform.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

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


def normalize_speeds(speeds: Iterable[SpeedLike]) -> tuple[Fraction, ...]:
    """Validate and canonicalize a speed set to sorted positive Fractions."""
    values = sorted({Fraction(v) for v in speeds})
    if not values:
        raise ConfigurationError("speed set must not be empty")
    if values[0] <= 0:
        raise ConfigurationError(f"speeds must be positive, got {values[0]}")
    return tuple(values)


def _ceil_sqrt(n: int, d: int) -> int:
    """Exact ``ceil(sqrt(n / d))`` for integers ``n > 0`` and ``d > 0``."""
    return math.isqrt((n - 1) // d) + 1


def _nearest(a: int, b: int) -> int:
    """Nearest integer to ``a / (2 * sqrt(b))``, ties to the smaller one.

    That is ``ceil(a / sqrt(b)) // 2``: the smallest n with ``2n + 1 >= a / sqrt(b)``.
    """
    return (_ceil_sqrt(a * a, b) if a > 0 else -math.isqrt(a * a // b)) // 2


def _displacement_family(dx: int, dy: int, speeds: tuple[Fraction, ...]) -> tuple[Offsets, ...]:
    """Distinct digitized paths of the trip from (0, 0) to (dx, dy).

    Every speed contributes one path; a zero displacement yields the single
    pause path. Paths are ordered by (length, cell sequence). The trip from
    any source is this family translated: rounding ``source + offset`` with
    an integer source commutes with translation, which keeps the order.
    """
    if dx == 0 and dy == 0:
        return (((0, 0), (0, 0)),)
    distinct: dict[Offsets, None] = {}
    for speed in speeds:
        p, q = speed.numerator, speed.denominator
        # at speed p/q the trip covers sqrt(dx^2 + dy^2) = sqrt(scaled) / q
        scaled = q * q * (dx * dx + dy * dy)
        steps = _ceil_sqrt(scaled, p * p)
        cells = [(0, 0)]
        for k in range(1, steps):
            cells.append((_nearest(2 * k * p * dx, scaled), _nearest(2 * k * p * dy, scaled)))
        cells.append((dx, dy))
        distinct.setdefault(tuple(cells))
    return tuple(sorted(distinct, key=lambda cells: (len(cells), cells)))


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """Start offsets of consecutive blocks of the given sizes."""
    out = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


class _PathMapping(Mapping):
    """Read-only view of an alphabet's paths by id; each is built on access."""

    def __init__(self, alphabet: "PathAlphabet"):
        self._alphabet = alphabet

    def __len__(self) -> int:
        return self._alphabet._path_count

    def __iter__(self) -> Iterator[int]:
        alphabet = self._alphabet
        members = np.arange(len(alphabet._lengths), dtype=np.int64)
        for source in range(alphabet.grid.size):
            ids = source * len(members) + members
            yield from ids[alphabet._decode(ids)[2]].tolist()

    def __getitem__(self, key) -> Path:
        alphabet = self._alphabet
        try:
            ids = [operator.index(key)]
            _, dests = alphabet.endpoints(ids)
        except (TypeError, ValueError, OverflowError):
            raise KeyError(key) from None
        cells = alphabet.emitted_cells(ids).tolist() + dests.tolist()
        return Path(tuple(map(alphabet.grid.cell_at, cells)))

    def __contains__(self, key) -> bool:
        try:
            ids = np.array([operator.index(key)], dtype=np.int64)
        except (TypeError, OverflowError):
            return False
        return bool(self._alphabet._decode(ids)[2][0])


class PathAlphabet:
    """Every digitized path of a grid, stored once per displacement.

    A path's cells depend only on its trip's displacement ``(dx, dy)``, so
    the alphabet keeps one family per displacement, with cells relative to
    the source, and translates it to a source on access. A path's id names
    its source and its member: ``source_id * M + m``, where ``m`` indexes
    the ``M`` members of all displacement families (displacements by
    ``(dy, dx)``, each family's members by (length, cell sequence)). So the
    family of ``(source, dest)`` is one contiguous id range, and an id whose
    member's displacement leaves the grid from its source names no path.
    Only this class knows that format: callers go through
    :meth:`family_ranges`, :meth:`lengths`, :meth:`endpoints`,
    :meth:`emitted_cells` and :attr:`all_paths`.

    Attributes
    ----------
    grid            : the underlying grid (waypoint alphabet equals its cells)
    max_path_length : largest path length over the whole alphabet

    The numpy tables hold O((2W-1)(2H-1)·|speeds|) members and their
    emissions, never one entry per cell pair or per path.
    """

    def __init__(self, grid: GridSpec, speeds: tuple[Fraction, ...]):
        """Digitize every displacement of the grid at the normalized ``speeds``."""
        self.grid = grid
        width, height = grid.width, grid.height
        sizes: list[int] = []
        lengths: list[int] = []
        dxs: list[int] = []
        dys: list[int] = []
        emits: list[int] = []  # emitted cells as offsets ox + oy * width from the source
        for dy in range(1 - height, height):
            for dx in range(1 - width, width):
                members = _displacement_family(dx, dy, speeds)
                sizes.append(len(members))
                for cells in members:
                    lengths.append(len(cells) - 1)
                    dxs.append(dx)
                    dys.append(dy)
                    emits.extend(ox + oy * width for ox, oy in cells[:-1])
        # per displacement, in (dy, dx) order
        self._family_sizes = np.array(sizes, dtype=np.int64)
        self._family_starts = _exclusive_cumsum(self._family_sizes)
        # per member
        self._lengths = np.array(lengths, dtype=np.int64)
        self._dx = np.array(dxs, dtype=np.int64)
        self._dy = np.array(dys, dtype=np.int64)
        self._emit_starts = _exclusive_cumsum(self._lengths)
        self._emits = np.array(emits, dtype=np.int64)
        self.max_path_length = int(self._lengths.max())
        # a member is a path from each of the (W - |dx|)(H - |dy|) sources it fits
        fits = (width - np.abs(self._dx)) * (height - np.abs(self._dy))
        self._path_count = int(fits.sum())

    @property
    def all_paths(self) -> Mapping[int, Path]:
        """Every path by id, in id order; an id that names no path raises ``KeyError``."""
        return _PathMapping(self)

    def family_ranges(self, sources, dests) -> tuple[np.ndarray, np.ndarray]:
        """First path id and size of the family of each ``(source, dest)`` pair.

        ``sources`` and ``dests`` are cell ids, as ints or integer arrays.
        """
        width, height = self.grid.width, self.grid.height
        sy, sx = divmod(sources, width)
        ty, tx = divmod(dests, width)
        disp = (ty - sy + height - 1) * (2 * width - 1) + (tx - sx + width - 1)
        return sources * len(self._lengths) + self._family_starts[disp], self._family_sizes[disp]

    def _decode(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Source cell id, destination cell id and validity of each path id."""
        width, height = self.grid.width, self.grid.height
        sources, members = np.divmod(ids, len(self._lengths))
        y, x = np.divmod(sources, width)
        x += self._dx[members]
        y += self._dy[members]
        valid = (
            (sources >= 0) & (sources < self.grid.size)
            & (x >= 0) & (x < width) & (y >= 0) & (y < height)
        )
        return sources, y * width + x, valid

    def endpoints(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """Source and destination cell ids of each path id.

        Raises ``ValueError`` for an id that names no path.
        """
        ids = np.asarray(ids, dtype=np.int64)
        sources, dests, valid = self._decode(ids)
        if not valid.all():
            raise ValueError(
                f"path id {ids[~valid].flat[0]} outside alphabet of {self._path_count} paths"
            )
        return sources, dests

    def lengths(self, ids) -> np.ndarray:
        """Length of each path id (ids are not validated)."""
        return self._lengths[np.asarray(ids, dtype=np.int64) % len(self._lengths)]

    def emitted_cells(self, ids) -> np.ndarray:
        """The emitted cells (all but the last) of each path id, concatenated.

        Ids are not validated.
        """
        sources, members = np.divmod(np.asarray(ids, dtype=np.int64), len(self._lengths))
        lengths = self._lengths[members]
        # emission k of the concatenation is member emission k - (block start - emit start)
        index = np.arange(int(lengths.sum()), dtype=np.int64)
        index -= np.repeat(np.cumsum(lengths) - lengths - self._emit_starts[members], lengths)
        cells = self._emits[index]
        cells += np.repeat(sources, lengths)
        return cells

    def family_id_set(self, source: Cell, dest: Cell) -> frozenset[int]:
        """Member path ids of one family, as a set."""
        first, size = self.family_ranges(self.grid.cell_id(source), self.grid.cell_id(dest))
        return frozenset(range(int(first), int(first + size)))


def build_alphabet(grid: GridSpec, speeds: Iterable[SpeedLike]) -> PathAlphabet:
    """Digitize every displacement of the grid and build the path alphabet.

    The build digitizes each of the (2W-1)(2H-1) displacements once per
    speed, so it raises :class:`CapacityError`, before digitizing anything,
    when that many digitized paths, ``(2W-1)(2H-1) * |speeds|``, exceed the
    cap (:func:`~rwmm.errors.enumeration_cap`).
    """
    speed_set = normalize_speeds(speeds)
    limit = enumeration_cap()
    spans = (2 * grid.width - 1, 2 * grid.height - 1)
    bound = spans[0] * spans[1] * len(speed_set)
    if bound > limit:
        raise CapacityError(
            f"path enumeration bound {bound} (= {spans[0]}x{spans[1]} displacements x "
            f"{len(speed_set)} speeds) exceeds cap {limit}"
        )
    return PathAlphabet(grid, speed_set)
