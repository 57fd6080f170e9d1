"""Continuous-space random waypoint motion and its bridge to the grid model.

Nodes move in a rectangle: pick a uniform waypoint, pick a uniform speed,
travel in a straight line, optionally pause, repeat. Positions are sampled on
a fixed time step. ``discretize`` resamples a continuous run onto a grid so
the exact-measure machinery can be applied to it, and ``traffic_proxy`` scores
constant-bitrate delivery over a disk connectivity model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .geometry import Cell, GridSpec, Path
from .location import LocationTrace, encode_paths

_EDGE_NUDGE = 1e-12  # keeps integer-multiple travel times from gaining a step

# Most samples (nodes × samples per node) one run may hold; the positions
# alone take 16 bytes a sample, 1.6 GB at the limit.
MAX_SAMPLES = 10**8

# Most legs (over all nodes) one run may build, however few its samples; a
# Leg takes about 280 bytes, 1.4 GB at the limit.
MAX_LEGS = 5 * 10**6


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


@dataclass(frozen=True)
class Leg:
    """One straight trip (or pause, when start == end and speed == 0)."""

    start_time: float
    duration: float
    x0: float
    y0: float
    x1: float
    y1: float
    speed: float

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def position_at(self, t: float) -> tuple[float, float]:
        if self.duration == 0:
            return self.x1, self.y1
        a = min(max((t - self.start_time) / self.duration, 0.0), 1.0)
        return self.x0 + a * (self.x1 - self.x0), self.y0 + a * (self.y1 - self.y0)


@dataclass(frozen=True, eq=False)
class ContinuousTrace:
    """Sampled positions of all nodes plus the legs that produced them."""

    area: ContinuousAreaSpec
    time_step: float
    times: np.ndarray  # (steps,)
    positions: np.ndarray  # (nodes, steps, 2)
    legs: tuple[tuple[Leg, ...], ...]  # per node

    @property
    def node_count(self) -> int:
        return int(self.positions.shape[0])

    @property
    def step_count(self) -> int:
        return int(self.positions.shape[1])


def _sample_legs(legs: Sequence[Leg], times: np.ndarray) -> np.ndarray:
    """Positions at ``times``, equal bit for bit to ``Leg.position_at``.

    A time at a leg's end belongs to that leg, and times past the last leg
    clamp to it. The interpolation repeats ``position_at``'s float
    operations in the same order, vectorized over all samples.
    """
    table = np.array(
        [(leg.start_time, leg.duration, leg.x0, leg.y0, leg.x1, leg.y1) for leg in legs]
    )
    start, duration = table[:, 0], table[:, 1]
    idx = np.searchsorted(start + duration, times, side="left")
    idx = np.minimum(idx, len(legs) - 1)
    span = duration[idx]
    still = span == 0
    # in place, so that few per-sample temporaries are alive at once
    a = times - start[idx]
    np.divide(a, span, out=a, where=~still)
    np.minimum(np.maximum(a, 0.0, out=a), 1.0, out=a)
    p0, p1 = table[idx, 2:4], table[idx, 4:6]
    out = p1 - p0
    out *= a[:, None]
    out += p0  # x0 + a * (x1 - x0): IEEE + and * are exactly commutative
    out[still] = p1[still]
    return out


def simulate_continuous(
    area: ContinuousAreaSpec,
    node_count: int,
    duration: float,
    time_step: float,
    seed,
) -> ContinuousTrace:
    """Simulate ``node_count`` independent walkers for ``duration`` time units.

    Sampling happens at 0, dt, 2*dt, ... up to and including the last multiple
    of dt that is <= duration. Waypoints (and the initial position) are
    uniform over the rectangle; each trip's speed is uniform over the
    configured range; every arrival is followed by the configured pause.
    Runs of more than ``MAX_SAMPLES`` samples in all are refused with
    :class:`ConfigurationError` before anything is allocated, and runs that
    build more than ``MAX_LEGS`` legs in all as soon as they pass the limit.
    """
    if node_count < 1:
        raise ConfigurationError(f"node count must be >= 1, got {node_count}")
    if not (0 < duration < math.inf and 0 < time_step < math.inf):
        raise ConfigurationError(
            f"duration and time step must be finite and > 0, got {duration} and {time_step}"
        )
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    ratio = duration / time_step * (1 + _EDGE_NUDGE)
    # the float test comes first: an overflowed ratio is inf, and floor(inf) raises
    if ratio >= MAX_SAMPLES or node_count * (math.floor(ratio) + 1) > MAX_SAMPLES:
        raise ConfigurationError(
            f"{node_count} node(s) x {ratio + 1:.6g} samples each exceeds the "
            f"limit of {MAX_SAMPLES} samples per run"
        )
    steps = math.floor(ratio) + 1
    times = np.arange(steps) * time_step
    all_positions = np.empty((node_count, steps, 2))
    all_legs: list[tuple[Leg, ...]] = []
    built = 0  # legs of the nodes already simulated
    for node_id, child in enumerate(root.spawn(node_count)):
        rng = np.random.default_rng(child)
        x = rng.uniform(0.0, area.width)
        y = rng.uniform(0.0, area.height)
        clock = 0.0
        legs: list[Leg] = []
        while clock <= duration:
            nx = rng.uniform(0.0, area.width)
            ny = rng.uniform(0.0, area.height)
            speed = rng.uniform(area.min_speed, area.max_speed)
            travel = math.hypot(nx - x, ny - y) / speed
            legs.append(
                Leg(
                    start_time=clock,
                    duration=travel,
                    x0=x,
                    y0=y,
                    x1=nx,
                    y1=ny,
                    speed=speed,
                )
            )
            clock += travel
            if area.pause_time > 0 and clock <= duration:
                legs.append(
                    Leg(
                        start_time=clock,
                        duration=area.pause_time,
                        x0=nx,
                        y0=ny,
                        x1=nx,
                        y1=ny,
                        speed=0.0,
                    )
                )
                clock += area.pause_time
            x, y = nx, ny
            if built + len(legs) > MAX_LEGS:
                raise ConfigurationError(
                    f"{node_count} node(s) exceed the limit of {MAX_LEGS} legs per run"
                )
        built += len(legs)
        all_positions[node_id] = _sample_legs(legs, times)
        all_legs.append(tuple(legs))
    return ContinuousTrace(
        area=area,
        time_step=time_step,
        times=times,
        positions=all_positions,
        legs=tuple(all_legs),
    )


def mean_speeds(trace: ContinuousTrace) -> tuple[float, float]:
    """(arithmetic mean of drawn trip speeds, time-weighted mean speed).

    The time-weighted mean — distance covered per unit time over the whole
    run — is pulled below the per-trip arithmetic mean because slow trips
    last longer, and further down by pauses. The gap between the two numbers
    is the classic decay trap when speeds are drawn close to zero.
    """
    drawn: list[float] = []
    distance = 0.0
    elapsed = 0.0
    for legs in trace.legs:
        for leg in legs:
            if leg.speed > 0:
                drawn.append(leg.speed)
                distance += leg.speed * leg.duration
            elapsed += leg.duration
    arithmetic = float(np.mean(drawn)) if drawn else 0.0
    weighted = distance / elapsed if elapsed > 0 else 0.0
    return arithmetic, weighted


def _containing_cell(grid: GridSpec, x: float, y: float, cell_size: float) -> Cell:
    # Cell i covers the half-open [i*cell_size, (i+1)*cell_size), so a sample
    # on a boundary goes to the larger index; samples past the area's edges
    # are clamped into the first or last cell.
    cx = min(int(math.floor(x / cell_size)), grid.width - 1) if x > 0 else 0
    cy = min(int(math.floor(y / cell_size)), grid.height - 1) if y > 0 else 0
    return Cell(cx, cy)


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
    trace is the concatenated encoding of those paths.
    """
    dt = trace.time_step if time_step is None else time_step
    if dt <= 0:
        raise ConfigurationError(f"time step must be > 0, got {dt}")
    cell_w = trace.area.width / grid.width
    cell_h = trace.area.height / grid.height
    if not math.isclose(cell_w, cell_h, rel_tol=1e-9):
        raise ConfigurationError(
            "grid cells must be square: area/grid aspect ratios differ "
            f"({cell_w} vs {cell_h})"
        )
    paths: list[Path] = []
    for leg in trace.legs[node_id]:
        start = _containing_cell(grid, leg.x0, leg.y0, cell_w)
        end = _containing_cell(grid, leg.x1, leg.y1, cell_w)
        if leg.speed == 0.0:  # pause: one pause path per sample interval
            count = max(1, int(math.ceil(leg.duration / dt * (1 - _EDGE_NUDGE))))
            paths.extend(Path((end, end)) for _ in range(count))
            continue
        samples = max(1, int(math.ceil(leg.duration / dt * (1 - _EDGE_NUDGE))))
        cells = [start]
        for k in range(1, samples):
            x, y = leg.position_at(leg.start_time + k * dt)
            cells.append(_containing_cell(grid, x, y, cell_w))
        cells.append(end)
        paths.append(Path(tuple(cells)))
    return paths, encode_paths(paths, grid)


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
    nothing otherwise (no queueing, no relaying). ``bitrate`` may be a
    per-step array — e.g. a ramp — or a single flat number.
    """
    if not flows:
        raise ConfigurationError("traffic proxy needs at least one flow")
    for a, b in flows:
        if not (0 <= a < trace.node_count and 0 <= b < trace.node_count):
            raise ConfigurationError(f"flow ({a}, {b}) names a missing node")
        if a == b:
            raise ConfigurationError(f"flow ({a}, {b}) sends to itself")
    steps = trace.step_count
    rate = np.broadcast_to(np.asarray(bitrate, dtype=np.float64), (steps,))
    if (rate < 0).any():
        raise ConfigurationError("bitrate must be nonnegative")
    if not (math.isfinite(reach) and reach >= 0):
        raise ConfigurationError(f"reach must be a finite number >= 0, got {reach}")
    dt = trace.time_step
    connected = np.zeros(steps)
    for a, b in flows:
        delta = trace.positions[a] - trace.positions[b]
        dist2 = (delta**2).sum(axis=1)
        connected += dist2 <= reach * reach
    offered = rate * dt * len(flows)
    delivered = rate * dt * connected
    return TrafficReport(
        times=trace.times.copy(),
        offered=offered,
        delivered=delivered,
        connected_fraction=connected / len(flows),
    )
