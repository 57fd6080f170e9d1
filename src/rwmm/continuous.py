"""Continuous-space random waypoint motion and its bridge to the grid model.

Nodes move in a rectangle: pick a uniform waypoint, pick a uniform speed,
travel in a straight line, optionally pause, repeat. Positions are sampled on
a fixed time step. ``discretize`` maps a node's samples to a grid's cell
ids, so that the discrete model's analysis can read the run, and
``traffic_proxy`` scores constant-bitrate delivery over a disk connectivity
model.

A node's legs are one ``(legs, 7)`` float64 table, one row per leg in the
order the node drives them, with the columns ``START``, ``DURATION``, ``X0``,
``Y0``, ``X1``, ``Y1`` and ``SPEED``: the leg runs from ``(X0, Y0)`` at time
``START`` to ``(X1, Y1)`` at ``START + DURATION``. A pause is a row with
speed 0 whose end point is its start point. Legs must not overlap in time,
and their values and end points must be finite (see ``ContinuousTrace``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import errors
from .errors import ConfigurationError
from .geometry import GridSpec, _ids_below
from .location import LocationTrace
from .processes import _seed_sequence

_EDGE_NUDGE = 1e-12  # keeps a whole number of steps' last sample from rounding away

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

    The legs are all a run stores: ``positions`` and ``discretize`` sample
    them at each call; ``mean_speeds`` and the ns-2 export read only the legs.
    A run is refused with ``ValueError`` when it is made, so no reader meets
    one, if it has no nodes or steps, a step count that is not an int below
    2**63, a time step that is not finite and > 0 or whose last time
    ``(step_count - 1) * time_step`` overflows, or a leg table that is
    empty, not 7 columns wide, or holds a value or an end
    ``X0 + (X1 - X0)``, ``Y0 + (Y1 - Y0)`` that is not finite, a negative
    ``DURATION`` or a leg that starts before the one before it ends (gaps
    are allowed). So the leg ends never decrease, and every sample is
    finite: a zero-duration leg's end point, or ``x0 + a * d`` with
    ``d = x1 - x0`` and ``a = (t - start) / duration`` clamped to [0, 1],
    never NaN as t, start and duration are finite; by monotone rounding
    ``a * d`` lies between 0 and d, and ``x0 + a * d`` between x0 and
    ``x0 + d``. A value no sample reads, such as a speed, is refused too.
    """

    area: ContinuousAreaSpec
    time_step: float
    step_count: int
    legs: tuple[np.ndarray, ...]  # per node, a (legs, 7) leg table

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self) -> None:
        n, steps, dt = len(self.legs), self.step_count, self.time_step
        if not (isinstance(steps, (int, np.integer)) and steps < 2**63):  # an int64 arange
            raise ValueError(f"the step count must be an int below 2**63, got {steps!r}")
        if not (n and steps >= 1 and 0 < dt < math.inf):
            raise ValueError(f"nodes, steps and a finite time step must be > 0: {n}, {steps}, {dt}")
        if not math.isfinite((steps - 1) * dt):
            raise ValueError(f"{steps} steps of {dt} overflow the last sample time")
        for node, legs in enumerate(self.legs):
            if legs.ndim != 2 or legs.shape[1] != 7 or not len(legs):
                raise ValueError(f"node {node}'s leg table has shape {legs.shape}, not (n >= 1, 7)")
            ends = [legs[:, X0 + xy] + _displacement(legs, xy) for xy in (0, 1)]
            for bad, fault in (
                (~np.isfinite(legs), "holds a value that is not finite"),
                (~np.isfinite(ends).all(axis=0), "ends at a point that is not finite"),
                (legs[:, DURATION] < 0, "has a negative duration"),
                (legs[:-1, START] + legs[:-1, DURATION] > legs[1:, START], "overlaps the next leg"),
            ):
                if bad.any():
                    raise ValueError(f"node {node}'s leg {np.argwhere(bad)[0, 0]} {fault}")

    @property
    def node_count(self) -> int:
        return len(self.legs)

    @property
    def times(self) -> np.ndarray:
        """Sample k's time, ``k * time_step``."""
        return np.arange(self.step_count) * self.time_step

    def positions(self, nodes: Sequence[int]) -> np.ndarray:
        """The ``(len(nodes), steps, 2)`` positions of ``nodes``, one ``_sample_legs`` call each.

        ``ValueError`` refuses a node id that is not an int in ``[0, node_count)``, or is a bool.
        """
        within = f"[0, {self.node_count}) for this run"
        return self._sample_at(_ids_below(self.node_count, nodes, "node", within), self.times)

    def _sample_at(self, nodes: Sequence[int], times: np.ndarray) -> np.ndarray:
        """``positions`` at the run's ``times``, which a caller that holds them passes in."""
        out = np.empty((len(nodes), len(times), 2))
        for node, node_out in zip(nodes, out):
            _sample_legs(self.legs[node], times, node_out)
        return out


def _displacement(legs: np.ndarray, xy: int) -> np.ndarray:
    """Each leg's ``X1 - X0`` (``xy`` 0) or ``Y1 - Y0`` (``xy`` 1): the formula's subtraction."""
    return legs[:, X1 + xy] - legs[:, X0 + xy]


def _interpolate(
    legs: np.ndarray, counts: np.ndarray, times: np.ndarray, out: np.ndarray
) -> None:
    """Write the position on leg ``i`` at each of its ``counts[i]`` times to ``out``.

    ``times`` and ``out`` hold leg 0's samples, then leg 1's, and so on. A
    position is clamped to its leg, and a zero-duration leg gives its end
    point. The float operations and their order are those of the scalar
    ``x0 + a * (x1 - x0)`` with ``a = min(max((t - start) / duration, 0.0),
    1.0)``, vectorized: the columns the formula reads are expanded to one
    value a sample with ``np.repeat``, and ``x1 - x0`` is taken once a leg
    by ``_displacement``, the same IEEE subtraction as once a sample. The
    end point is read only for the samples of zero-duration legs.
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
    for xy in (0, 1):
        p = np.repeat(_displacement(legs, xy), counts)
        p *= a
        p += np.repeat(legs[:, X0 + xy], counts)  # x0 + a * (x1 - x0): IEEE + and * commute exactly
        out[:, xy] = p
    if still.any():
        out[np.repeat(still, counts)] = np.repeat(legs[still][:, _TO], counts[still], axis=0)


def _sample_legs(legs: np.ndarray, times: np.ndarray, out: np.ndarray) -> None:
    """Write the positions on a leg table at ascending ``times`` to ``out``.

    A time's leg is the first that ends at or after it, else the last, so
    times before the first leg go to it and past the last clamp to it; the
    leg ends must not decrease (``ContinuousTrace`` checks). A block of
    ``_BLOCK_SAMPLES`` times is interpolated at once over the legs from its
    first time's to its last's, found by bisection, not by a pass over all.
    """

    def leg_at(t) -> int:
        return min(bisect_left(legs, t, key=lambda leg: leg[START] + leg[DURATION]), len(legs) - 1)

    for lo in range(0, len(times), _BLOCK_SAMPLES):
        block = times[lo : lo + _BLOCK_SAMPLES]
        span = legs[leg_at(block[0]) : leg_at(block[-1]) + 1]
        # leg i takes the block's times after leg i - 1's end, up to its own
        ends = np.searchsorted(block, span[:-1, START] + span[:-1, DURATION], side="right")
        counts = np.diff(ends, prepend=0, append=len(block))
        _interpolate(span, counts, block, out[lo : lo + len(block)])


def simulate_continuous(
    area: ContinuousAreaSpec,
    node_count: int,
    duration: float,
    time_step: float,
    seed,
) -> ContinuousTrace:
    """Draw the legs of ``node_count`` independent walkers for ``duration`` time units.

    The run samples at 0, dt, 2*dt, ... up to and including the last
    multiple of dt that is <= duration (``_EDGE_NUDGE`` only keeps it from
    rounding away), when its ``positions`` are read.
    Waypoints (and the initial position) are uniform over the rectangle;
    each trip's speed is uniform over the configured range; every arrival
    is followed by the configured pause.
    Runs of more than ``errors.MAX_SAMPLES`` samples in all are refused with
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
    # A run stores only its legs. io.save_positions samples one node, or one
    # block's nodes, at a time (16 bytes a sample) beside the times and their
    # words (at most 20 bytes a step): a traced peak of 18.0 bytes a sample at
    # 2 nodes × 5·10^5 steps and 4.1 at 10 × 2·10^5. Sampling one node's 2·10^6
    # samples peaked at 25. The float test comes first: an overflowed ratio is
    # inf, and floor(inf) raises.
    if ratio >= errors.MAX_SAMPLES or node_count * (math.floor(ratio) + 1) > errors.MAX_SAMPLES:
        raise ConfigurationError(
            f"{node_count} node(s) x {ratio + 1:.6g} samples each exceeds the "
            f"limit of {errors.MAX_SAMPLES} samples per run"
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
    drawn, durations = table[moving, SPEED], table[:, DURATION]
    if not drawn.size:
        return 0.0, 0.0
    with np.errstate(over="ignore"):
        mean = np.mean(drawn)
        # running sums in leg order, as a scalar loop over the legs adds them
        distance = np.cumsum(drawn * durations[moving])[-1]
        elapsed = np.cumsum(durations)[-1]
    if np.isfinite([mean, distance, elapsed]).all():
        return float(mean), float(distance / elapsed) if elapsed > 0 else 0.0
    # a sum overflowed: speeds and durations scaled into [0.5, 1) by powers of
    # two, exactly but for values too small to count; the means scaled back
    v, d = (math.ldexp(1.0, -math.frexp(x.max())[1]) for x in (drawn, durations))
    speeds, spans = drawn * v, durations * d
    weighted = np.cumsum(speeds * spans[moving])[-1] / spans.sum() if elapsed > 0 else 0.0
    return tuple(float(min(m, speeds.max()) / v) for m in (np.mean(speeds), weighted))


def discretize(trace: ContinuousTrace, grid: GridSpec, node_id: int = 0) -> LocationTrace:
    """One node's run as grid cell ids, one at each of the run's sample times.

    Sample k is the cell of ``trace.positions([node_id])[0][k]``, the node's
    point at ``k * time_step``, sampled ``_BLOCK_SAMPLES`` times at a time. A
    ``node_id`` outside ``[0, node_count)``, cells that are not square and
    more than ``errors.MAX_SAMPLES`` steps are refused with
    :class:`ConfigurationError`, the last before any sample is allocated.
    """
    if not 0 <= node_id < trace.node_count:
        raise ConfigurationError(
            f"node id {node_id} outside [0, {trace.node_count}) for this trace"
        )
    cell_w = trace.area.width / grid.width
    cell_h = trace.area.height / grid.height
    if not math.isclose(cell_w, cell_h, rel_tol=1e-9):
        raise ConfigurationError(
            "grid cells must be square: area/grid aspect ratios differ "
            f"({cell_w} vs {cell_h})"
        )
    steps = trace.step_count
    # the returned ids keep 8 bytes a sample; one block's temporaries, about
    # 5 MB, add 5.3 a sample to the traced peak at 10^6 samples
    if steps > errors.MAX_SAMPLES:
        raise ConfigurationError(
            f"node {node_id} needs {steps} samples, over the limit of "
            f"{errors.MAX_SAMPLES} samples per run"
        )
    ids = np.empty(steps, dtype=np.int64)
    for lo in range(0, steps, _BLOCK_SAMPLES):
        times = np.arange(lo, min(lo + _BLOCK_SAMPLES, steps)) * trace.time_step
        points = trace._sample_at([node_id], times)[0]
        # Cell i covers the half-open [i*cell_w, (i+1)*cell_w), so a point on
        # a boundary goes to the larger index; points past the area's edges
        # are clamped into the first or last cell.
        index = np.floor(points / cell_w)
        np.clip(index, 0, [grid.width - 1, grid.height - 1], out=index)
        ids[lo : lo + len(times)] = grid.ids(*index.astype(np.int64).T)
    return LocationTrace(grid, ids)


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
    dt, times = trace.time_step, trace.times
    named = sorted({node for flow in flows for node in flow})
    positions = dict(zip(named, trace._sample_at(named, times)))
    # a reach whose square is not normal (past 1e154, below 1e-154 or 0) would
    # pass every distance as inf or 0: all are then scaled to put the reach in
    # [0.5, 1), or by 2**1023 below 2**-1022, so a nonzero gap squares normal
    scale, limit = 1.0, reach * reach
    if not sys.float_info.min <= limit < math.inf:
        scale = math.ldexp(1.0, min(-math.frexp(reach)[1], 1023) if reach else 1023)
        limit = (reach * scale) * (reach * scale)
    connected = np.zeros(steps)
    with np.errstate(over="ignore"):  # a distance past 1e154 squares to inf
        for a, b in flows:
            delta = (positions[a] - positions[b]) * scale
            dist2 = (delta**2).sum(axis=1)
            connected += dist2 <= limit
    offered = rate * dt * len(flows)
    delivered = rate * dt * connected
    return TrafficReport(
        times=times,
        offered=offered,
        delivered=delivered,
        connected_fraction=connected / len(flows),
    )
