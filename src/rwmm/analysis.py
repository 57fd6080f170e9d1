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
from typing import Callable, Protocol, Sequence

import numpy as np

from . import errors
from .geometry import Cell, GridSpec
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
        for node in (self.node_a, self.node_b):
            if not 0 <= node < trace.node_count:
                raise ValueError(f"node id {node} outside [0, {trace.node_count}) for this trace")
        ax, ay = self.grid.xy(trace.ids[self.node_a])
        bx, by = self.grid.xy(trace.ids[self.node_b])
        dist2 = (ax - bx) ** 2 + (ay - by) ** 2
        return (dist2 <= self.radius**2).astype(np.float64)


@dataclass(frozen=True)
class TableObservable:
    """Arbitrary per-cell real payoff, looked up by occupied cell."""

    grid: GridSpec
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.float64)
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


def _settle(sums: np.ndarray, checkpoints: np.ndarray, tolerance: float | None = None):
    """The convergence rule, applied to running sums at the checkpoints.

    ``sums[i]`` sums the first ``checkpoints[i]`` values, with any trailing
    shape for several observables at once. Returns the partial averages, the
    tail, each Cauchy width (max minus min of the last ``tail`` partial
    averages), the tolerance (3/sqrt(n) by default, n the last checkpoint)
    and the verdicts ``width <= tolerance``.
    """
    if tolerance is None:
        tolerance = 3.0 / math.sqrt(checkpoints[-1])
    partials = sums / checkpoints.reshape(-1, *(1,) * (sums.ndim - 1))
    tail = min(DEFAULT_TAIL, len(checkpoints))
    widths = partials[-tail:].max(axis=0) - partials[-tail:].min(axis=0)
    return partials, tail, widths, float(tolerance), widths <= tolerance


def _birkhoff_report(values: np.ndarray, tolerance: float | None) -> ConvergenceReport:
    checkpoints = _geometric_checkpoints(len(values))
    partials, tail, width, tolerance, converged = _settle(
        np.cumsum(values)[checkpoints - 1], checkpoints, tolerance
    )
    return ConvergenceReport(
        checkpoints=checkpoints,
        partial_averages=partials,
        final_value=float(partials[-1]),
        cauchy_width=float(width),
        tail=tail,
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


def cell_time_averages(trace: JointTrace) -> CellAverages:
    """Every cell indicator's time average in one pass over each node's ids.

    Counts each segment between consecutive checkpoints with one
    ``bincount`` and sums the segments up. A running sum of 0/1 floats is an
    exact integer below 2**53, so ``count / checkpoint`` has the same bits
    as the running mean ``time_average`` reads at that checkpoint. More
    than ``errors.MAX_SAMPLES`` (node, cell) rows are refused first.
    """
    steps, size = len(trace), trace.grid.size
    if trace.node_count * size > errors.MAX_SAMPLES:
        raise errors.ConfigurationError(
            f"{trace.node_count} node(s) x {size} cells exceeds the limit of "
            f"{errors.MAX_SAMPLES} (node, cell) rows per report"
        )
    checkpoints = _geometric_checkpoints(steps)
    shape = (trace.node_count, size)
    visits = np.empty(shape, dtype=np.int64)
    widths = np.empty(shape, dtype=np.float64)
    converged = np.empty(shape, dtype=bool)
    for node, ids in enumerate(trace.ids):
        segments = np.split(ids, checkpoints[:-1])
        counts = np.cumsum([np.bincount(s, minlength=size) for s in segments], axis=0)
        _, _, widths[node], _, converged[node] = _settle(counts, checkpoints)
        visits[node] = counts[-1]
    return CellAverages(
        visits=visits,
        final_values=visits / steps,
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
    """Count how often each cell is occupied over the whole trace."""
    if isinstance(trace, JointTrace):
        per_node = np.stack(
            [
                np.bincount(trace.ids[i], minlength=trace.grid.size)
                for i in range(trace.node_count)
            ]
        )
        return Histogram(trace.grid, per_node.sum(axis=0), per_node)
    counts = np.bincount(trace.ids, minlength=trace.grid.size)
    return Histogram(trace.grid, counts)
