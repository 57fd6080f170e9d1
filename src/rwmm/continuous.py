"""Continuous-space random waypoint motion and its bridge to the grid model.

Nodes move in a rectangle: pick a uniform waypoint, pick a uniform speed,
travel in a straight line, optionally pause, repeat. Positions are sampled on
a fixed time step. ``discretize`` resamples a continuous run onto a grid so
the exact-measure machinery can be applied to it, and ``traffic_proxy`` scores
constant-bitrate delivery over a disk connectivity model.

A node's legs are one ``(legs, 7)`` float64 table, one row per leg in the
order the node drives them, with the columns ``START``, ``DURATION``, ``X0``,
``Y0``, ``X1``, ``Y1`` and ``SPEED``: the leg runs from ``(X0, Y0)`` at time
``START`` to ``(X1, Y1)`` at ``START + DURATION``. A pause is a row with
speed 0 whose end point is its start point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .geometry import Cell, GridSpec, Path
from .location import LocationTrace
from .processes import _seed_sequence

_EDGE_NUDGE = 1e-12  # keeps integer-multiple travel times from gaining a step

# Most samples (nodes × samples per node) one run may hold. A run stores only
# its legs. io.save_positions samples one node, or one block's nodes, at a
# time, 16 bytes a sample, beside the sample times twice (8 bytes a step
# each) and their words, at most 28 bytes a step; its traced peak was 22
# bytes a sample at 2 nodes × 5·10^5 steps and 4.9 at 10 × 2·10^5. Sampling
# one node's 2·10^6 samples peaked at 25 bytes a sample traced, with the
# positions and times.
MAX_SAMPLES = 10**8

# Samples interpolated at once: the interpolation's temporaries, about 25
# bytes a sample, are bounded by this block (about 1.6 MB), not by the run.
_BLOCK_SAMPLES = 2**16

# Most legs (over all nodes) one run may build, however few its samples. A
# built leg is one 56-byte table row, 280 MB at the limit; the node being
# drawn also holds its legs as block tables until they are joined, so a
# one-node run's traced peak is 113 bytes a leg, about 570 MB at the limit.
MAX_LEGS = 5 * 10**6

# Trips drawn at once for a node: at most one block's legs, about 115 KB, are
# drawn past a node's last leg or past MAX_LEGS.
_BLOCK_TRIPS = 2**10

# The columns of a leg table.
START, DURATION, X0, Y0, X1, Y1, SPEED = range(7)
_FROM, _TO = slice(X0, Y0 + 1), slice(X1, Y1 + 1)


@dataclass(frozen=True)
class ContinuousAreaSpec:
    """Movement area and speed range for continuous random waypoint motion."""

    width: float
    height: float
    min_speed: float
    max_speed: float
    pause_time: float = 0.0

    def __post_init__(self) -> None:
        values = (self.width, self.height, self.min_speed, self.max_speed, self.pause_time)
        if not all(map(math.isfinite, values)):
            raise ConfigurationError(f"area values must be finite, got {self}")
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError(
                f"area must have positive extent, got {self.width} x {self.height}"
            )
        if self.min_speed <= 0:
            # A zero lower bound lets draws land arbitrarily close to a
            # standstill; those legs take unboundedly long and the long-run
            # average speed collapses, so the model degenerates.
            raise ConfigurationError(
                f"minimum speed must be > 0, got {self.min_speed}"
            )
        if self.max_speed < self.min_speed:
            raise ConfigurationError(
                f"speed range empty: [{self.min_speed}, {self.max_speed}]"
            )
        if self.pause_time < 0:
            raise ConfigurationError(f"pause time must be >= 0, got {self.pause_time}")


@dataclass(frozen=True, eq=False)
class ContinuousTrace:
    """A continuous run: each node's legs, sampled every ``time_step`` for ``step_count`` steps.

    The legs are all a run stores: ``positions`` samples them at each call;
    ``discretize``, ``mean_speeds`` and the ns-2 export read only the legs.
    """

    area: ContinuousAreaSpec
    time_step: float
    step_count: int
    legs: tuple[np.ndarray, ...]  # per node, a (legs, 7) leg table

    @property
    def node_count(self) -> int:
        return len(self.legs)

    @property
    def times(self) -> np.ndarray:
        """Sample k's time, ``k * time_step``; a huge step overflows to ``inf``."""
        with np.errstate(over="ignore"):
            return np.arange(self.step_count) * self.time_step

    def positions(self, nodes: Sequence[int]) -> np.ndarray:
        """The ``(len(nodes), steps, 2)`` positions of ``nodes``, one ``_sample_legs`` call each."""
        times = self.times
        out = np.empty((len(nodes), self.step_count, 2))
        for node, node_out in zip(nodes, out):
            _sample_legs(self.legs[node], times, node_out)
        return out


def _interpolate(
    legs: np.ndarray, counts: np.ndarray, times: np.ndarray, out: np.ndarray
) -> None:
    """Write the position on leg ``i`` at each of its ``counts[i]`` times to ``out``.

    ``times`` and ``out`` hold leg 0's samples, then leg 1's, and so on. A
    position is clamped to its leg, and a zero-duration leg gives its end
    point. The float operations and their order are those of the scalar
    ``x0 + a * (x1 - x0)`` with ``a = min(max((t - start) / duration, 0.0),
    1.0)``, vectorized: the columns the formula reads are expanded to one
    value a sample with ``np.repeat``, and ``x1 - x0`` is taken once a leg,
    the same IEEE subtraction as once a sample. The end point is read only
    for the samples of zero-duration legs.
    """
    span = legs[:, DURATION]
    still = span == 0
    # in place, so that few per-sample temporaries are alive at once
    a = times - np.repeat(legs[:, START], counts)
    # a still leg's a is not used; a subnormal duration overflows a to inf,
    # which clamps to 1 as the scalar division's inf does
    with np.errstate(over="ignore"):
        a /= np.repeat(np.where(still, 1.0, span), counts)
    np.minimum(np.maximum(a, 0.0, out=a), 1.0, out=a)
    # one coordinate at a time: numpy loops over a contiguous column faster
    # than over the two coordinates of each row
    for xy, (x0, x1) in enumerate(((X0, X1), (Y0, Y1))):
        p = np.repeat(legs[:, x1] - legs[:, x0], counts)
        p *= a
        p += np.repeat(legs[:, x0], counts)  # x0 + a * (x1 - x0): IEEE + and * commute exactly
        out[:, xy] = p
    if still.any():
        out[np.repeat(still, counts)] = np.repeat(legs[still][:, _TO], counts[still], axis=0)


def _sample_legs(legs: np.ndarray, times: np.ndarray, out: np.ndarray) -> None:
    """Write the positions on a leg table at ascending ``times`` to ``out``.

    A time at a leg's end belongs to that leg, times before the first leg
    go to it, and times past the last leg clamp to it. The leg ends must
    not decrease. They are merged with the times once: ``bounds[i]`` counts
    the times at or before leg ``i``'s end, so leg ``i`` takes times
    ``bounds[i - 1]`` (0 for the first leg) to ``bounds[i] - 1``. The
    times are then interpolated ``_BLOCK_SAMPLES`` at a time.
    """
    n = len(times)
    bounds = np.searchsorted(times, legs[:, START] + legs[:, DURATION], side="right")
    bounds[-1] = n  # the last leg also takes every later time
    for lo in range(0, n, _BLOCK_SAMPLES):
        hi = min(lo + _BLOCK_SAMPLES, n)
        # the legs of the block's first and last samples, and those between
        first, last = np.searchsorted(bounds, (lo, hi - 1), side="right").tolist()
        ends = bounds[first : last + 1].copy()
        ends[-1] = hi
        counts = np.diff(ends, prepend=lo)
        _interpolate(legs[first : last + 1], counts, times[lo:hi], out[lo:hi])


def simulate_continuous(
    area: ContinuousAreaSpec,
    node_count: int,
    duration: float,
    time_step: float,
    seed,
) -> ContinuousTrace:
    """Draw the legs of ``node_count`` independent walkers for ``duration`` time units.

    The run samples at 0, dt, 2*dt, ... up to and including the last
    multiple of dt that is <= duration, when its ``positions`` are read.
    Waypoints (and the initial position) are uniform over the rectangle;
    each trip's speed is uniform over the configured range; every arrival
    is followed by the configured pause.
    Runs of more than ``MAX_SAMPLES`` samples in all are refused with
    :class:`ConfigurationError` before anything is allocated, and runs that
    build more than ``MAX_LEGS`` legs in all once the block of trips that
    passes the limit is drawn.
    """
    if node_count < 1:
        raise ConfigurationError(f"node count must be >= 1, got {node_count}")
    if not (0 < duration < math.inf and 0 < time_step < math.inf):
        raise ConfigurationError(
            f"duration and time step must be finite and > 0, got {duration} and {time_step}"
        )
    root = _seed_sequence(seed)
    ratio = duration / time_step * (1 + _EDGE_NUDGE)
    # the float test comes first: an overflowed ratio is inf, and floor(inf) raises
    if ratio >= MAX_SAMPLES or node_count * (math.floor(ratio) + 1) > MAX_SAMPLES:
        raise ConfigurationError(
            f"{node_count} node(s) x {ratio + 1:.6g} samples each exceeds the "
            f"limit of {MAX_SAMPLES} samples per run"
        )
    all_legs: list[np.ndarray] = []
    built = 0  # legs of the nodes already simulated
    for child in root.spawn(node_count):
        legs = _draw_legs(np.random.default_rng(child), area, duration, MAX_LEGS - built)
        if legs is None:
            raise ConfigurationError(
                f"{node_count} node(s) exceed the limit of {MAX_LEGS} legs per run"
            )
        built += len(legs)
        all_legs.append(legs)
    return ContinuousTrace(area, time_step, math.floor(ratio) + 1, tuple(all_legs))


def _draw_legs(
    rng: np.random.Generator, area: ContinuousAreaSpec, duration: float, budget: int
) -> np.ndarray | None:
    """One node's leg table, up to and including the first leg that ends past ``duration``.

    The start point is drawn first, then each trip's waypoint and speed,
    ``_BLOCK_TRIPS`` trips at a time: one ``uniform`` call of shape
    ``(trips, 3)`` yields the stream that three scalar calls a trip would.
    A travel time is ``math.hypot`` of the displacement over the speed,
    and every arrival is followed by the pause, if any. Leg starts are a
    running sum from 0, added in leg order. Trips drawn past the last leg
    are dropped. Returns ``None`` as soon as the table passes ``budget``
    legs.
    """
    low = (0.0, 0.0, area.min_speed)
    high = (area.width, area.height, area.max_speed)
    here = np.array([rng.uniform(0.0, area.width), rng.uniform(0.0, area.height)])
    per_trip = 2 if area.pause_time > 0 else 1
    clock, count = 0.0, 0
    blocks: list[np.ndarray] = []
    while True:
        draws = rng.uniform(low, high, size=(_BLOCK_TRIPS, 3))
        to, speed = draws[:, :2], draws[:, 2]
        start = np.vstack((here, to[:-1]))
        trips = np.empty((_BLOCK_TRIPS, per_trip, 7))
        travel = trips[:, 0]
        travel[:, DURATION] = list(map(math.hypot, *(to - start).T.tolist()))
        travel[:, DURATION] /= speed
        travel[:, _FROM], travel[:, _TO], travel[:, SPEED] = start, to, speed
        if per_trip == 2:
            pause = trips[:, 1]
            pause[:, DURATION] = area.pause_time
            pause[:, _FROM] = pause[:, _TO] = to
            pause[:, SPEED] = 0.0
        legs = trips.reshape(-1, 7)
        # ends[i + 1] is leg i's end: the clock, then each duration added in turn
        ends = np.cumsum(np.concatenate(([clock], legs[:, DURATION])))
        legs[:, START] = ends[:-1]
        past = np.flatnonzero(ends[1:] > duration)
        if past.size:
            legs = legs[: past[0] + 1]
        count += len(legs)
        if count > budget:
            return None
        blocks.append(legs)
        if past.size:
            return np.concatenate(blocks)
        clock, here = ends[-1], to[-1]


def mean_speeds(trace: ContinuousTrace) -> tuple[float, float]:
    """(arithmetic mean of drawn trip speeds, time-weighted mean speed).

    The time-weighted mean — distance covered per unit time over the whole
    run — is pulled below the per-trip arithmetic mean because slow trips
    last longer, and further down by pauses. The gap between the two numbers
    is the classic decay trap when speeds are drawn close to zero.
    """
    table = np.concatenate(trace.legs)
    moving = table[:, SPEED] > 0
    drawn = table[moving, SPEED]
    if not drawn.size:
        return 0.0, 0.0
    # running sums in leg order, as a scalar loop over the legs adds them
    distance = np.cumsum(drawn * table[moving, DURATION])[-1]
    elapsed = np.cumsum(table[:, DURATION])[-1]
    weighted = float(distance / elapsed) if elapsed > 0 else 0.0
    return float(np.mean(drawn)), weighted


def _containing_cells(grid: GridSpec, points: np.ndarray, cell_size: float) -> np.ndarray:
    """The ``(x, y)`` cell of each point of an ``(n, 2)`` array, as int64 columns."""
    # Cell i covers the half-open [i*cell_size, (i+1)*cell_size), so a point
    # on a boundary goes to the larger index; points past the area's edges
    # are clamped into the first or last cell.
    index = np.floor(points / cell_size)
    np.clip(index, 0, [grid.width - 1, grid.height - 1], out=index)
    return index.astype(np.int64)


def discretize(
    trace: ContinuousTrace,
    grid: GridSpec,
    node_id: int = 0,
    time_step: float | None = None,
) -> tuple[list[Path], LocationTrace]:
    """Resample one node's continuous run onto grid cells, trip by trip.

    Each travel leg becomes a path: the leg sampled every ``time_step`` time
    units (the trace's own step by default), each sample mapped to the cell
    containing it, with the final sample tied down to the destination's cell.
    Pauses become repeated single-step pause paths. The returned location
    trace is the concatenated encoding of those paths: every cell of each
    path but its last. A ``node_id`` outside ``[0, node_count)``, a time
    step that is not finite and > 0, and a run of more than ``MAX_SAMPLES``
    samples are refused with :class:`ConfigurationError`, the last before
    any sample is allocated.
    """
    if not 0 <= node_id < trace.node_count:
        raise ConfigurationError(
            f"node id {node_id} outside [0, {trace.node_count}) for this trace"
        )
    dt = trace.time_step if time_step is None else time_step
    if not 0 < dt < math.inf:
        raise ConfigurationError(f"time step must be finite and > 0, got {dt}")
    cell_w = trace.area.width / grid.width
    cell_h = trace.area.height / grid.height
    if not math.isclose(cell_w, cell_h, rel_tol=1e-9):
        raise ConfigurationError(
            "grid cells must be square: area/grid aspect ratios differ "
            f"({cell_w} vs {cell_h})"
        )
    legs = trace.legs[node_id]
    counts = np.maximum(np.ceil(legs[:, DURATION] / dt * (1 - _EDGE_NUDGE)), 1.0)
    total = counts.sum()
    if total > MAX_SAMPLES:
        raise ConfigurationError(
            f"node {node_id} at time step {dt} needs {total:.6g} samples, over the "
            f"limit of {MAX_SAMPLES} samples per run"
        )
    counts = counts.astype(np.int64)
    first = np.cumsum(counts) - counts  # each leg's first sample
    # sample k of a leg is at start + k * dt; the first is the leg's start
    # point, and every sample of a pause is its end point
    k = np.arange(int(total)) - np.repeat(first, counts)
    points = np.empty((len(k), 2))
    _interpolate(legs, counts, np.repeat(legs[:, START], counts) + k * dt, points)
    points[first] = legs[:, _FROM]
    pause = legs[:, SPEED] == 0.0
    points[np.repeat(pause, counts)] = np.repeat(legs[pause][:, _TO], counts[pause], axis=0)
    xy = _containing_cells(grid, points, cell_w)
    cells = list(map(Cell, *xy.T.tolist()))
    ends = map(Cell, *_containing_cells(grid, legs[:, _TO], cell_w).T.tolist())
    paths: list[Path] = []
    for lo, count, end, speed in zip(first.tolist(), counts.tolist(), ends, legs[:, SPEED]):
        if speed == 0.0:  # pause: one pause path per sample interval
            paths.extend([Path((end, end))] * count)
        else:
            paths.append(Path((*cells[lo : lo + count], end)))
    return paths, LocationTrace(grid, grid.ids(xy[:, 0], xy[:, 1]))


@dataclass(frozen=True)
class TrafficReport:
    """Step-by-step delivery of constant-bitrate flows over disk links."""

    times: np.ndarray
    offered: np.ndarray  # per step, summed over flows
    delivered: np.ndarray  # per step, summed over flows
    connected_fraction: np.ndarray  # per step, fraction of flows in range

    @property
    def delivery_ratio(self) -> float:
        total = self.offered.sum()
        return float(self.delivered.sum() / total) if total > 0 else 0.0

    @property
    def burst_fraction(self) -> float:
        """Fraction of offered-load steps with no delivery at all."""
        active = self.offered > 0
        if not active.any():
            return 0.0
        return float((self.delivered[active] == 0).mean())


def traffic_proxy(
    trace: ContinuousTrace,
    flows: Sequence[tuple[int, int]],
    bitrate: float | np.ndarray,
    reach: float,
) -> TrafficReport:
    """Score delivery of constant-bitrate flows with disk connectivity.

    In each sampling interval a flow delivers ``bitrate * dt`` when sender
    and receiver are within ``reach`` (finite, >= 0) of each other, and
    nothing otherwise (no queueing, no relaying). ``bitrate`` (finite,
    >= 0) may be a per-step array — e.g. a ramp — or a single flat number;
    an array of any other shape is refused. Each node a flow names is sampled once.
    """
    if not flows:
        raise ConfigurationError("traffic proxy needs at least one flow")
    for a, b in flows:
        if not (0 <= a < trace.node_count and 0 <= b < trace.node_count):
            raise ConfigurationError(f"flow ({a}, {b}) names a missing node")
        if a == b:
            raise ConfigurationError(f"flow ({a}, {b}) sends to itself")
    steps = trace.step_count
    rate = np.asarray(bitrate, dtype=np.float64)
    if rate.ndim and rate.shape != (steps,):
        raise ConfigurationError(
            f"bitrate must be one number or one value per step ({steps}), got shape {rate.shape}"
        )
    rate = np.broadcast_to(rate, (steps,))
    if not (np.isfinite(rate) & (rate >= 0)).all():
        raise ConfigurationError("bitrate must be finite and >= 0")
    if not (math.isfinite(reach) and reach >= 0):
        raise ConfigurationError(f"reach must be a finite number >= 0, got {reach}")
    dt = trace.time_step
    named = sorted({node for flow in flows for node in flow})
    positions = dict(zip(named, trace.positions(named)))
    connected = np.zeros(steps)
    for a, b in flows:
        delta = positions[a] - positions[b]
        dist2 = (delta**2).sum(axis=1)
        connected += dist2 <= reach * reach
    offered = rate * dt * len(flows)
    delivered = rate * dt * connected
    return TrafficReport(
        times=trace.times,
        offered=offered,
        delivered=delivered,
        connected_fraction=connected / len(flows),
    )
