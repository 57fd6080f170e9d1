"""Empirical diagnostics on simulated traces.

Time averages along one trace, Cesàro-averaged ensemble frequencies across
independent runs, cross-seed agreement, and occupancy histograms. Together
these check the long-run behavior the exact layer predicts: time averages
settle (Cauchy criterion over trailing checkpoints), the settled value agrees
across seeds, and it matches the Cesàro limit of ensemble frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from . import errors
from .geometry import Cell, GridSpec, _ids_below
from .location import JointTrace, LocationTrace

DEFAULT_CHECKPOINT_COUNT = 20
DEFAULT_TAIL = 10


class Observable(Protocol):
    """Real-valued, finite-window function of a location (or joint) trace.

    The observables here read cell ids on their own grid, so each refuses,
    with ``ValueError``, a trace on another grid.
    """

    def values(self, trace) -> np.ndarray:
        """f(T^n x) for each n whose window of samples fits in the trace, as float64."""
        ...


def _check_grid(grid: GridSpec, trace: LocationTrace | JointTrace) -> None:
    if trace.grid != grid:
        raise ValueError(f"trace is on {trace.grid}, the observable on {grid}")


@dataclass(frozen=True)
class CellIndicator:
    """1 when the node occupies the given cell."""

    grid: GridSpec
    cell: Cell

    def values(self, trace: LocationTrace) -> np.ndarray:
        _check_grid(self.grid, trace)
        target = self.grid.cell_id(self.cell)
        return (trace.ids == target).astype(np.float64)


@dataclass(frozen=True)
class CylinderIndicator:
    """1 when the next ``len(cells)`` samples match the given cells in order."""

    grid: GridSpec
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("cylinder indicator needs at least one cell")

    def values(self, trace: LocationTrace) -> np.ndarray:
        _check_grid(self.grid, trace)
        ids = trace.ids
        w = len(self.cells)
        if len(ids) < w:
            return np.empty(0, dtype=np.float64)
        hits = np.ones(len(ids) - w + 1, dtype=bool)
        for k, cell in enumerate(self.cells):
            target = self.grid.cell_id(cell)
            hits &= ids[k : len(ids) - w + 1 + k] == target
        return hits.astype(np.float64)


@dataclass(frozen=True)
class PairWithinRange:
    """1 when two nodes of a joint trace are within Euclidean distance ``radius``."""

    grid: GridSpec
    node_a: int
    node_b: int
    radius: float

    def __post_init__(self) -> None:
        if not 0 <= self.radius < math.inf:
            raise ValueError(f"radius must be finite and >= 0, got {self.radius}")

    def values(self, trace: JointTrace) -> np.ndarray:
        _check_grid(self.grid, trace)
        within = f"[0, {trace.node_count}) for this trace"
        a, b = _ids_below(trace.node_count, [self.node_a, self.node_b], "node", within)
        ax, ay = self.grid.xy(trace.ids[a])
        bx, by = self.grid.xy(trace.ids[b])
        dist2 = (ax - bx) ** 2 + (ay - by) ** 2
        return (dist2 <= self.radius**2).astype(np.float64)


@dataclass(frozen=True)
class TableObservable:
    """Arbitrary per-cell real payoff, looked up by occupied cell in a read-only copy."""

    grid: GridSpec
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.array(self.table, dtype=np.float64)
        table.flags.writeable = False
        if table.shape != (self.grid.size,):
            raise ValueError(
                f"table must have one entry per cell ({self.grid.size}), got {table.shape}"
            )
        if not np.isfinite(table).all():
            raise ValueError("table entries must all be finite")
        object.__setattr__(self, "table", table)

    def values(self, trace: LocationTrace) -> np.ndarray:
        _check_grid(self.grid, trace)
        return self.table[trace.ids]


@dataclass(frozen=True)
class ConvergenceReport:
    """Partial averages at geometric checkpoints plus a trailing Cauchy spread.

    ``converged`` means the last ``tail`` checkpoint averages all sit within
    ``tolerance`` of each other (max minus min), i.e. the running average has
    stopped moving at the resolution the tolerance sets.
    """

    checkpoints: np.ndarray
    partial_averages: np.ndarray
    final_value: float
    cauchy_width: float
    tail: int
    tolerance: float
    converged: bool


def _geometric_checkpoints(total: int) -> np.ndarray:
    """Up to ``DEFAULT_CHECKPOINT_COUNT`` distinct sample counts, total // 100 up to total."""
    if total < 1:
        raise ValueError("need at least one sample")
    num = min(DEFAULT_CHECKPOINT_COUNT, total)
    raw = np.rint(np.geomspace(max(1, total // 100), total, num=num)).astype(np.int64)
    # geomspace ends on ``total`` and its rounding ascends: only neighbours repeat
    return raw[np.append(True, raw[1:] != raw[:-1])]


def _settle(partials: Iterable[np.ndarray], last: int, tolerance: float | None = None):
    """The convergence rule, applied to the tail's partial averages in order.

    The tail is the last ``DEFAULT_TAIL`` checkpoints (all, if fewer). Its
    partial averages, of any one shape for several observables at once, are
    read one at a time into a running max and min, and none is written to.
    Returns each Cauchy width (max minus min), the tolerance (3/sqrt(last)
    by default, ``last`` the last checkpoint) and the verdicts ``width <= tolerance``.
    """
    if tolerance is None:
        tolerance = 3.0 / math.sqrt(last)
    partials = iter(partials)
    high = np.array(next(partials), dtype=np.float64)  # a copy, which ``out=`` may fill
    low = high.copy()
    for partial in partials:
        np.maximum(high, partial, out=high)
        np.minimum(low, partial, out=low)
    widths = high - low
    return widths, float(tolerance), widths <= tolerance


def _birkhoff_report(values: np.ndarray, tolerance: float | None) -> ConvergenceReport:
    checkpoints = _geometric_checkpoints(len(values))
    partials = np.cumsum(values)[checkpoints - 1] / checkpoints
    width, tolerance, converged = _settle(partials[-DEFAULT_TAIL:], checkpoints[-1], tolerance)
    return ConvergenceReport(
        checkpoints=checkpoints,
        partial_averages=partials,
        final_value=float(partials[-1]),
        cauchy_width=float(width),
        tail=min(DEFAULT_TAIL, len(checkpoints)),
        tolerance=tolerance,
        converged=bool(converged),
    )


def time_average(
    observable: Observable,
    trace,
    tolerance: float | None = None,
) -> ConvergenceReport:
    """Birkhoff running average of the observable along one trace.

    Default tolerance is 3/sqrt(n) with n the number of evaluation points
    (trace length less the observable's window plus one).
    """
    values = np.asarray(observable.values(trace), dtype=np.float64)
    if len(values) == 0:
        raise ValueError("trace too short for this observable's window")
    return _birkhoff_report(values, tolerance)


@dataclass(frozen=True)
class CellAverages:
    """Occupancy time averages of every (node, cell) of a joint trace.

    Each array is indexed [node, cell id], and each entry equals what
    ``time_average(CellIndicator(grid, cell), trace.node(node))`` reports
    with its default tolerance, bit for bit.
    """

    visits: np.ndarray  # int64 occupancy counts over the whole trace
    final_values: np.ndarray  # visits / steps
    cauchy_widths: np.ndarray
    converged: np.ndarray  # cauchy_widths <= 3 / sqrt(steps)


def _node_counts(ids: np.ndarray, size: int) -> np.ndarray:
    """The (nodes, size) counts of a (nodes, steps) block of ids: one bincount of node*size + id."""
    keys = ids + size * np.arange(len(ids)).reshape(-1, 1)
    return np.bincount(keys.ravel(), minlength=len(ids) * size).reshape(-1, size)


def cell_time_averages(trace: JointTrace) -> CellAverages:
    """Every cell indicator's time average, every node counted at once.

    The steps before the tail's first checkpoint are counted as one block,
    and each tail segment is added to the one count kept of every (node, cell).
    A running sum of 0/1 floats is an exact integer below 2**53, so
    ``count / checkpoint`` has the same bits as the running mean ``time_average``
    reads there. More than ``errors.MAX_SAMPLES`` (node, cell) rows are refused first.
    """
    steps, size = len(trace), trace.grid.size
    if trace.node_count * size > errors.MAX_SAMPLES:
        raise errors.ConfigurationError(
            f"{trace.node_count} node(s) x {size} cells exceeds the limit of "
            f"{errors.MAX_SAMPLES} (node, cell) rows per report"
        )
    checkpoints = _geometric_checkpoints(steps)
    tail = checkpoints[-DEFAULT_TAIL:]
    counts = _node_counts(trace.ids[:, : tail[0]], size)

    def partials() -> Iterator[np.ndarray]:
        yield counts / tail[0]
        for lo, hi in zip(tail[:-1], tail[1:]):
            np.add(counts, _node_counts(trace.ids[:, lo:hi], size), out=counts)
            yield counts / hi

    widths, _, converged = _settle(partials(), steps)
    return CellAverages(
        visits=counts,
        final_values=counts / steps,
        cauchy_widths=widths,
        converged=converged,
    )


def cesaro_measure(
    observable: Observable,
    simulate: Callable[[object], object],
    seeds: Sequence,
    tolerance: float | None = None,
) -> ConvergenceReport:
    """Cesàro average of ensemble frequencies across independent runs.

    For each time offset k the ensemble frequency is the fraction of the
    ``simulate(seed)`` runs whose observable fires at k; the report tracks the
    running Cesàro mean of those frequencies over k. For a process whose
    time-shifted event probabilities settle, this converges to the same limit
    as single-trace time averages.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    total: np.ndarray | None = None
    for seed in seeds:
        values = np.asarray(observable.values(simulate(seed)), dtype=np.float64)
        if total is None:
            total = values.copy()
        else:
            if len(values) != len(total):
                raise ValueError("all runs must produce traces of equal length")
            total += values
    assert total is not None
    return _birkhoff_report(total / len(seeds), tolerance)


@dataclass(frozen=True)
class ErgodicityReport:
    """Cross-seed agreement of settled time averages for one observable."""

    reports: tuple[ConvergenceReport, ...]
    values: np.ndarray
    mean: float
    spread: float  # max - min of the per-seed final averages
    all_converged: bool

    def agrees_within(self, tolerance: float) -> bool:
        return self.spread <= tolerance


def ergodicity_check(
    observable: Observable,
    simulate: Callable[[object], object],
    seeds: Sequence,
    tolerance: float | None = None,
) -> ErgodicityReport:
    """Run per-seed time averages and measure how tightly they cluster.

    A seed-independent limit is the empirical signature of ergodicity: every
    run's time average should land on the same value, so the spread across
    seeds shrinks as the horizon grows.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    reports = tuple(
        time_average(observable, simulate(seed), tolerance=tolerance) for seed in seeds
    )
    values = np.array([r.final_value for r in reports])
    return ErgodicityReport(
        reports=reports,
        values=values,
        mean=float(values.mean()),
        spread=float(values.max() - values.min()),
        all_converged=all(r.converged for r in reports),
    )


@dataclass(frozen=True)
class Histogram:
    """Occupancy counts and frequencies per cell, optionally split by node."""

    grid: GridSpec
    counts: np.ndarray
    per_node: np.ndarray | None = None

    @property
    def frequencies(self) -> np.ndarray:
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / total

    def frequency(self, cell: Cell) -> float:
        return float(self.frequencies[self.grid.cell_id(cell)])


def location_histogram(trace: LocationTrace | JointTrace) -> Histogram:
    """How often each cell is occupied over the whole trace, and by each node of a joint one."""
    per_node = _node_counts(np.atleast_2d(trace.ids), trace.grid.size)
    joint = isinstance(trace, JointTrace)
    return Histogram(trace.grid, per_node.sum(axis=0), per_node if joint else None)
