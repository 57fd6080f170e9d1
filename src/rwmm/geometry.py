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
so it takes ``ceil(sqrt(S / p^2)) = isqrt((S - 1) // p^2) + 1`` steps. Sample
``k`` lies ``a / sqrt(S)`` half-cells from the source along an axis of span
``d``, with ``a = 2kpd``, and rounds to ``ceil(a / sqrt(S)) // 2``: the nearest
cell, half-integer ties toward the smaller coordinate. The build computes
every step count at once, and the alphabet digitizes samples when they are
asked for, both in int64 numpy arrays, with every ``isqrt`` exact and no
float: ``isqrt(m)`` is ``searchsorted(squares, m, side="right")`` over the
squares ``1, 4, 9, ...`` up to the longest path's length (step counts) or
twice the grid's larger span (samples), which is deterministic everywhere.
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


@dataclass(frozen=True, order=True)
class Cell:
    """One cell of the finite geographic grid."""

    x: int
    y: int


@dataclass(frozen=True)
class GridSpec:
    """Grid of ``width * height`` cells, ids row-major by y (see :meth:`xy`, :meth:`ids`)."""

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

    def xy(self, ids):
        """The ``(x, y)`` of each cell id, as ints or arrays like ``ids``; unchecked."""
        y = ids // self.width
        return ids - y * self.width, y  # one division: np.divmod took 2.5x as long

    def ids(self, x, y) -> np.ndarray:
        """The int64 cell id of each ``(x, y)``, ints or integer arrays; unchecked."""
        out = y * np.int64(self.width)  # int64, with no int64 copy of an int32 ``y``
        out += x  # in place, so an array call makes one full-size array
        return out

    def cell_id(self, cell: Cell) -> int:
        if not self.contains(cell):
            raise ValueError(f"{cell} outside {self.width}x{self.height} grid")
        return int(self.ids(cell.x, cell.y))

    def cell_at(self, cell_id: int) -> Cell:
        if not 0 <= cell_id < self.size:
            raise ValueError(f"cell id {cell_id} outside grid of size {self.size}")
        return Cell(*self.xy(cell_id))

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


def _isqrt(values: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Exact ``isqrt`` of values below ``(len(squares) + 1)^2``; ``squares`` is 1, 4, 9, ..."""
    return np.searchsorted(squares, values, side="right")


def _nearest(a: np.ndarray, scaled: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Nearest integer to each ``a / (2 sqrt(scaled))``, ties to the smaller one.

    That is ``ceil(a / sqrt(scaled)) // 2``, where the ceiling is
    ``isqrt((a^2 - 1) // scaled) + 1`` for ``a > 0`` and ``-isqrt(a^2 // scaled)``
    otherwise. ``scaled`` must be positive, and ``a`` is overwritten.
    """
    positive = a > 0
    a *= a
    a -= positive
    a //= scaled
    root = _isqrt(a, squares)
    root += positive
    np.negative(root, out=root, where=~positive)
    return np.floor_divide(root, 2, out=root)


def _members(steps: np.ndarray, speeds: int, ranks) -> np.ndarray:
    """Candidate ids of the distinct paths, in member order.

    Member order is by displacement, then by (length, cells). ``steps``
    holds each candidate's length, with candidate ``c`` the displacement
    ``c // speeds`` at its ``c % speeds``-th fastest speed, so a
    displacement's lengths never fall: only a tie, candidates of one
    displacement and one length, needs its cells compared. The ties of each
    length are sorted by ``ranks(group, length)``, their samples ranked in
    cell order, and a repeated path is dropped.
    """
    # edge c: candidates c - 1 and c tie
    edge = np.zeros(len(steps) + 1, dtype=bool)
    edge[1:-1] = (steps[1:] == steps[:-1]) & (np.arange(1, len(steps)) % speeds != 0)
    ties = np.flatnonzero(edge[:-1] | edge[1:])
    # member slot -> candidate; the slots of a tie go to its paths in cell order
    slot = np.arange(len(steps))
    kept = np.ones(len(steps), dtype=bool)
    for length in sorted(set(steps[ties].tolist())):
        group = ties[steps[ties] == length]  # by displacement, as ``ties`` is
        disp = group // speeds
        key = ranks(group, length)
        order = np.lexsort((*key.T[::-1], disp))
        key = key[order]
        slot[group] = group[order]
        kept[group[1:]] = (disp[1:] != disp[:-1]) | (key[1:] != key[:-1]).any(axis=1)
    return slot[kept]


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
    :meth:`family_ranges`, :meth:`walk_family_ranges`, :meth:`lengths`,
    :meth:`endpoints`, :meth:`emitted_cells` and :attr:`all_paths`.

    Attributes
    ----------
    grid            : the underlying grid (waypoint alphabet equals its cells)
    max_path_length : largest path length over the whole alphabet

    The numpy tables hold the length, displacement and speed of each of the
    O((2W-1)(2H-1)·|speeds|) members, and nothing per cell pair, path or cell.
    """

    def __init__(self, grid: GridSpec, speeds: tuple[Fraction, ...]):
        """Digitize every displacement of the grid at the normalized ``speeds``.

        The build relies on the ascending, distinct speeds that
        :func:`normalize_speeds` gives. A candidate is one displacement's path
        at one speed: candidate ``c`` is displacement ``c // |speeds|`` at the
        ``c % |speeds|``-th fastest speed. :func:`_members` picks the distinct
        ones in member order, and each member keeps its candidate's
        displacement and speed, from which :meth:`emitted_cells` digitizes.
        """
        self.grid = grid
        width, height = grid.width, grid.height
        count = (2 * width - 1) * (2 * height - 1)
        # per displacement, in (dy, dx) order
        dy, dx = np.divmod(np.arange(count, dtype=np.int64), 2 * width - 1)
        dx -= width - 1
        dy -= height - 1
        # per speed, fastest first
        self._p = np.array([v.numerator for v in reversed(speeds)], dtype=np.int64)
        self._q2 = np.array([v.denominator**2 for v in reversed(speeds)], dtype=np.int64)
        # a sample's isqrt(a^2 // S) is below 2|d|, as a < 2 sqrt(S) |d|
        self._squares = np.arange(1, 2 * max(width, height), dtype=np.int64) ** 2
        # a step count is at most the slowest speed's longest; its squares
        # serve the step counts alone and are dropped with the build
        slowest = speeds[0]
        reach = slowest.denominator**2 * ((width - 1) ** 2 + (height - 1) ** 2)
        longest = math.isqrt(max(reach - 1, 0) // slowest.numerator**2) + 1
        squares = np.arange(1, longest + 1, dtype=np.int64) ** 2
        # per candidate
        scaled = (dx * dx + dy * dy)[:, None] * self._q2
        steps = _isqrt(np.maximum(scaled - 1, 0) // (self._p**2), squares).ravel() + 1
        del scaled, squares

        def ranks(group: np.ndarray, length: int) -> np.ndarray:
            """Samples 1 .. length - 1 of each candidate, ranked in (ox, oy) tuple order."""
            disp, speed = np.divmod(group, len(speeds))
            trips = self._trips(dx[disp], dy[disp], speed)
            ox, oy = self._offsets(np.arange(1, length), *(t[:, None] for t in trips))
            return ox * (2 * height - 1) + oy

        members = _members(steps, len(speeds), ranks)
        # per member
        self._lengths = steps[members]
        disp, self._speeds = np.divmod(members, len(speeds))
        self._dx, self._dy = dx[disp], dy[disp]
        # per displacement
        self._family_sizes = np.bincount(disp, minlength=count)
        self._family_starts = _exclusive_cumsum(self._family_sizes)
        self.max_path_length = int(self._lengths.max())
        # a member is a path from each of the (W - |dx|)(H - |dy|) sources it fits
        fits = (width - np.abs(dx)) * (height - np.abs(dy))
        self._path_count = int((fits * self._family_sizes).sum())

    def _trips(self, dx, dy, speed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``2p * dx``, ``2p * dy`` (``a`` per unit of k) and S of each trip at its speed index."""
        two_p = 2 * self._p[speed]
        # the pause samples only a = 0, which any positive S rounds to 0
        return dx * two_p, dy * two_p, np.maximum((dx * dx + dy * dy) * self._q2[speed], 1)

    def _offsets(self, k, ax, ay, scaled) -> tuple[np.ndarray, np.ndarray]:
        """Offsets ``(ox, oy)`` of samples ``k`` of the trips, broadcast together."""
        return _nearest(k * ax, scaled, self._squares), _nearest(k * ay, scaled, self._squares)

    @property
    def all_paths(self) -> Mapping[int, Path]:
        """Every path by id, in id order; an id that names no path raises ``KeyError``."""
        return _PathMapping(self)

    def family_ranges(self, sources, dests) -> tuple[np.ndarray, np.ndarray]:
        """First path id and size of the family of each ``(source, dest)`` pair.

        ``sources`` and ``dests`` are cell ids, as ints or integer arrays.
        """
        sx, sy = self.grid.xy(sources)
        tx, ty = self.grid.xy(dests)
        return self._family_ranges(sources, tx - sx, ty - sy)

    def walk_family_ranges(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`family_ranges` of each consecutive pair of the cell id array ``ids``.

        Each id is split into ``(x, y)`` once, and each pair's displacement
        is read from the coordinate differences.
        """
        x, y = self.grid.xy(ids)
        return self._family_ranges(ids[:-1], x[1:] - x[:-1], y[1:] - y[:-1])

    def _family_ranges(self, sources, dx, dy) -> tuple[np.ndarray, np.ndarray]:
        """First path id and size of the family of each trip ``(dx, dy)`` from ``sources``."""
        width, height = self.grid.width, self.grid.height
        disp = (dy + height - 1) * (2 * width - 1) + (dx + width - 1)
        return sources * len(self._lengths) + self._family_starts[disp], self._family_sizes[disp]

    def _decode(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Source cell id, destination cell id and validity of each path id."""
        grid = self.grid
        sources, members = np.divmod(ids, len(self._lengths))
        x, y = grid.xy(sources)
        x += self._dx[members]
        y += self._dy[members]
        valid = (
            (sources >= 0) & (sources < grid.size)
            & (x >= 0) & (x < grid.width) & (y >= 0) & (y < grid.height)
        )
        return sources, grid.ids(x, y), valid

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

        Each distinct member among the ids is digitized once, into a table
        that every id's cells are gathered from. Ids are not validated.
        """
        sources, members = np.divmod(np.asarray(ids, dtype=np.int64), len(self._lengths))
        marked = np.zeros(len(self._lengths), dtype=bool)
        marked[members] = True
        distinct = np.flatnonzero(marked)
        sizes = self._lengths[distinct]
        offsets = _exclusive_cumsum(sizes)
        # the distinct members' samples k = 0 .. length - 1, as offsets ox + oy * width
        k = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(offsets, sizes)
        trips = self._trips(self._dx[distinct], self._dy[distinct], self._speeds[distinct])
        ox, table = self._offsets(k, *(np.repeat(t, sizes) for t in trips))
        table *= self.grid.width
        table += ox
        starts = np.zeros(len(self._lengths), dtype=np.int64)
        starts[distinct] = offsets
        lengths = self._lengths[members]
        # emission k of the concatenation is member emission k - (block start - table start)
        index = np.arange(int(lengths.sum()), dtype=np.int64)
        index -= np.repeat(np.cumsum(lengths) - lengths - starts[members], lengths)
        cells = table[index]
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
    cap (:func:`~rwmm.errors.enumeration_cap`). It also raises it for a
    speed ``p/q`` whose arithmetic could leave int64: ``p^2``, or
    ``4 q^2 R D^2``, with ``R`` the largest ``dx^2 + dy^2`` and ``D`` the
    largest ``|dx|`` or ``|dy|`` (both at least 1), past ``2^62``. That
    bounds every ``S = q^2 (dx^2 + dy^2)`` and every sample's
    ``a^2 < 4 S d^2``.
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
    reach = max((grid.width - 1) ** 2 + (grid.height - 1) ** 2, 1)
    span = max(grid.width, grid.height, 2) - 1
    for speed in speed_set:
        p, q = speed.numerator, speed.denominator
        if max(p * p, 4 * q * q * reach * span * span) > 2**62:
            raise CapacityError(
                f"speed {speed} on a {grid.width}x{grid.height} grid needs integers "
                f"past 2^62, the digitizer's int64 range"
            )
    return PathAlphabet(grid, speed_set)
