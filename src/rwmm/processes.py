"""Waypoint and path randomness: exact cylinder measures and seeded samplers.

Measure computations use exact rational arithmetic (`fractions.Fraction`), so
identities like channel stationarity and output-mixing decoupling can be
checked for equality rather than within a floating-point tolerance. Samplers
draw from numpy bit generators and are fully reproducible from their seed.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import ConfigurationError
from .geometry import Cell, GridSpec, PathAlphabet

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]

IID_UNIFORM = "iid-uniform"
MARKOV = "markov"


@dataclass(frozen=True)
class CylinderEvent:
    """The event fixing a sequence's symbols on indices start..start+len-1.

    Symbols are cells for waypoint or location events and path ids (keys of
    a :class:`~rwmm.geometry.PathAlphabet`'s ``all_paths``) for path events.
    """

    start: int
    symbols: tuple

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"cylinder start index must be >= 0, got {self.start}")
        if not self.symbols:
            raise ValueError("cylinder events need at least one symbol")

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def end(self) -> int:
        """Last constrained index (inclusive)."""
        return self.start + len(self.symbols) - 1


def _check_strongly_connected(adjacency: Sequence[Iterable[int]]) -> bool:
    n = len(adjacency)
    reverse: list[list[int]] = [[] for _ in range(n)]
    for u, outs in enumerate(adjacency):
        for v in outs:
            reverse[v].append(u)
    for adj in (adjacency, reverse):
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        if not all(seen):
            return False
    return True


def _check_aperiodic(adjacency: Sequence[Iterable[int]]) -> bool:
    # For a strongly connected digraph the period is gcd over all edges of
    # depth[u] + 1 - depth[v], with depths from any BFS tree.
    n = len(adjacency)
    depth = [-1] * n
    depth[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for v in adjacency[u]:
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        queue = nxt
    g = 0
    for u, outs in enumerate(adjacency):
        for v in outs:
            g = math.gcd(g, abs(depth[u] + 1 - depth[v]))
    return g == 1


@dataclass(frozen=True)
class WaypointProcessSpec:
    """Distribution of the per-node waypoint sequence over a grid's cells.

    ``iid-uniform`` draws every waypoint independently with probability
    1/|cells|. ``markov`` evolves an exact Markov chain from ``initial``, a
    dense tuple of n ``Fraction``s; ``transition[i]`` maps each successor of
    state ``i``, ids ascending, to its positive ``Fraction`` probability.
    The chain must be irreducible and aperiodic so that long-run time
    averages over the induced movement exist and are seed-independent.
    """

    grid: GridSpec
    kind: str
    transition: tuple[dict[int, Fraction], ...] | None = None
    initial: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == IID_UNIFORM:
            if self.transition is not None or self.initial is not None:
                raise ConfigurationError("iid-uniform takes no transition matrix")
            return
        if self.kind != MARKOV:
            raise ConfigurationError(f"unknown waypoint process kind {self.kind!r}")
        n = self.grid.size
        if self.transition is None or self.initial is None:
            raise ConfigurationError("markov waypoint process needs matrix and initial")
        if len(self.transition) != n:
            raise ConfigurationError(f"transition matrix must be {n}x{n}")
        if len(self.initial) != n:
            raise ConfigurationError(f"initial distribution must have {n} entries")
        for row in self.transition:
            if list(row) != sorted(row) or not all(0 <= j < n for j in row):
                raise ConfigurationError(f"transition rows must list ascending ids below {n}")
            if any(p <= 0 for p in row.values()) or sum(row.values()) != 1:
                raise ConfigurationError("transition rows must be positive and sum to 1")
        if any(p < 0 for p in self.initial) or sum(self.initial) != 1:
            raise ConfigurationError("initial distribution must be nonnegative and sum to 1")
        if not _check_strongly_connected(self.transition):
            raise ConfigurationError("markov waypoint chain must be irreducible")
        if not _check_aperiodic(self.transition):
            raise ConfigurationError("markov waypoint chain must be aperiodic")

    @cached_property
    def sampling_rows(self) -> tuple[int, list[list[int]], list[list[int]]]:
        """Integer sampling tables ``(D, succ, cum)`` of a markov chain.

        ``D`` is the lcm of the denominators of the initial distribution and
        every transition row. Rows 0..n-1 are the transition rows and row n
        the initial distribution, so a walk from state n begins with the
        initial draw. Row ``r`` keeps its nonzero entries in ``succ[r]`` and
        the running sums of their weights ``p·D``, the full total left off,
        in ``cum[r]``: a draw ``u`` uniform on ``[0, D)`` then selects
        ``succ[r][bisect_right(cum[r], u)]`` with probability exactly ``p``.
        Built once per spec.
        """
        assert self.transition is not None and self.initial is not None
        rows = [*self.transition, {j: p for j, p in enumerate(self.initial) if p}]
        denominator = math.lcm(*(p.denominator for row in rows for p in row.values()))
        cum = [
            list(itertools.accumulate(int(p * denominator) for p in row.values()))[:-1]
            for row in rows
        ]
        return denominator, [list(row) for row in rows], cum

    @classmethod
    def iid_uniform(cls, grid: GridSpec) -> "WaypointProcessSpec":
        return cls(grid=grid, kind=IID_UNIFORM)

    @classmethod
    def markov(
        cls,
        grid: GridSpec,
        transition: Sequence[Sequence],
        initial: Sequence,
    ) -> "WaypointProcessSpec":
        """A chain from a dense n×n transition matrix, stored as sparse rows."""
        n = grid.size
        if len(transition) != n or any(len(row) != n for row in transition):
            raise ConfigurationError(f"transition matrix must be {n}x{n}")
        return cls(
            grid=grid,
            kind=MARKOV,
            transition=tuple(
                {j: p for j, p in enumerate(map(Fraction, row)) if p} for row in transition
            ),
            initial=tuple(Fraction(v) for v in initial),
        )

    @classmethod
    def lazy_walk(cls, grid: GridSpec, stay: Fraction = Fraction(1, 2)) -> "WaypointProcessSpec":
        """Lazy nearest-neighbor walk on the grid, uniform initial distribution.

        Stays put with probability ``stay`` and otherwise moves to a uniformly
        chosen in-grid 4-neighbor. Irreducible for every grid; the self loop
        makes it aperiodic (so ``stay`` must be positive on grids with more
        than one cell).
        """
        stay = Fraction(stay)
        if not 0 <= stay < 1:
            raise ConfigurationError(f"stay probability must be in [0, 1), got {stay}")
        n = grid.size
        if n == 1:
            return cls.markov(grid, [[Fraction(1)]], [Fraction(1)])
        rows = []
        for cell in grid.cells():
            neighbors = [
                grid.cell_id(Cell(cell.x + dx, cell.y + dy))
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if grid.contains(Cell(cell.x + dx, cell.y + dy))
            ]
            row = dict.fromkeys(neighbors, (1 - stay) / len(neighbors))
            if stay:
                row[grid.cell_id(cell)] = stay
            rows.append(dict(sorted(row.items())))
        return cls(grid=grid, kind=MARKOV, transition=tuple(rows), initial=(Fraction(1, n),) * n)


def _validate_cells(spec_grid: GridSpec, symbols: Sequence) -> list[int]:
    ids = []
    for sym in symbols:
        if not isinstance(sym, Cell):
            raise ValueError(f"waypoint cylinder symbols must be cells, got {sym!r}")
        ids.append(spec_grid.cell_id(sym))
    return ids


def _markov_distribution_at(spec: WaypointProcessSpec, index: int) -> list[Fraction]:
    """Exact symbol distribution at a given time index (initial @ P^index).

    Each step pushes every state's mass only along its row's nonzero
    successors, so a step costs O(nonzero entries) rather than O(n²).
    """
    assert spec.transition is not None and spec.initial is not None
    dist = list(spec.initial)
    for _ in range(index):
        nxt = [Fraction(0)] * len(dist)
        for mass, row in zip(dist, spec.transition):
            if mass:
                for j, p in row.items():
                    nxt[j] += mass * p
        dist = nxt
    return dist


def waypoint_cylinder_prob(spec: WaypointProcessSpec, event: CylinderEvent) -> Fraction:
    """Exact probability that the waypoint sequence matches the cylinder."""
    ids = _validate_cells(spec.grid, event.symbols)
    if spec.kind == IID_UNIFORM:
        return Fraction(1, spec.grid.size ** len(ids))
    assert spec.transition is not None
    dist = _markov_distribution_at(spec, event.start)
    prob = dist[ids[0]]
    for a, b in zip(ids, ids[1:]):
        if not prob:
            return Fraction(0)
        prob *= spec.transition[a].get(b, 0)
    return prob


def _channel_factor(alphabet: PathAlphabet, w_from: Cell, w_to: Cell, path_id: int) -> Fraction:
    members = alphabet.family_id_set(w_from, w_to)
    if path_id in members:
        return Fraction(1, len(members))
    alphabet.endpoints([path_id])  # raises for an id that names no path
    return Fraction(0)


def _constrained_channel_prob(
    alphabet: PathAlphabet,
    waypoints: Sequence[Cell],
    constraints: dict[int, int],
) -> Fraction:
    """Channel probability of an event fixing path symbols at given indices.

    The channel draws each path coordinate independently and uniformly from
    the family of its waypoint pair, so the event probability is the product
    of per-index factors; unconstrained indices contribute 1.
    """
    prob = Fraction(1)
    for index, path_id in sorted(constraints.items()):
        if index + 1 >= len(waypoints):
            raise ValueError(
                f"waypoint prefix of length {len(waypoints)} too short for "
                f"path index {index}"
            )
        prob *= _channel_factor(alphabet, waypoints[index], waypoints[index + 1], path_id)
        if not prob:
            return Fraction(0)
    return prob


def channel_cylinder_prob(
    alphabet: PathAlphabet,
    waypoints: Sequence[Cell],
    event: CylinderEvent,
) -> Fraction:
    """Exact conditional probability of a path cylinder given the waypoints.

    The value is the product over constrained indices i of
    ``1 / |family(w_i, w_i+1)|`` when every fixed path belongs to its
    family, and exactly 0 otherwise. The waypoint prefix must cover index
    ``event.end + 1``.
    """
    constraints = {event.start + k: pid for k, pid in enumerate(event.symbols)}
    return _constrained_channel_prob(alphabet, waypoints, constraints)


def _stationarity_gap(pairs: Sequence[tuple[frozenset, frozenset]]) -> Fraction:
    """Max over path tuples of ``|prod a_i(p_i) - prod b_i(p_i)|``.

    ``pairs[i] = (A_i, B_i)``, with ``a_i = 1/|A_i|`` on ``A_i`` and 0 off it
    (``b_i`` alike). Tuples inside every ``A_i ∩ B_i`` give
    ``|prod 1/|A_i| - prod 1/|B_i||``; tuples inside every ``A_i`` but
    outside some ``B_i`` give ``prod 1/|A_i|`` (B alike); all others give 0.
    Where some ``A_i ∩ B_i`` is empty, the first value is at most one of the
    other two, so it needs no condition of its own.
    """
    weight_a = weight_b = Fraction(1)
    a_only = b_only = False
    for side_a, side_b in pairs:
        weight_a *= Fraction(1, len(side_a)) if side_a else 0
        weight_b *= Fraction(1, len(side_b)) if side_b else 0
        a_only = a_only or not side_a <= side_b
        b_only = b_only or not side_b <= side_a
    return max(abs(weight_a - weight_b), weight_a * a_only, weight_b * b_only)


def check_channel_stationarity(
    alphabet: PathAlphabet,
    waypoints: Sequence[Cell],
    horizon: int,
) -> Fraction:
    """Max over length-``horizon`` path cylinders of the stationarity gap.

    Compares the shifted-input channel measure of ``[p_0..p_{n-1}]`` with the
    original channel measure of the shift preimage (the same symbols fixed at
    indices 1..n). Both are products of per-coordinate factors, so the
    maximum follows from the two families at each coordinate
    (:func:`_stationarity_gap`): O(horizon), nothing enumerated.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if len(waypoints) < horizon + 2:
        raise ValueError(
            f"need at least {horizon + 2} waypoints, got {len(waypoints)}"
        )
    shifted = list(waypoints[1:])
    pairs = [
        (
            alphabet.family_id_set(shifted[i], shifted[i + 1]),
            alphabet.family_id_set(waypoints[i + 1], waypoints[i + 2]),
        )
        for i in range(horizon)
    ]
    return _stationarity_gap(pairs)


class MixingCheck(NamedTuple):
    """Result of one output-mixing decoupling check."""

    discrepancy: Fraction
    premise_met: bool  # shift >= second event's length, where decoupling is exact
    shift: int
    decoupling_threshold: int


def check_output_mixing(
    alphabet: PathAlphabet,
    waypoints: Sequence[Cell],
    event_a: Sequence[int],
    event_b: Sequence[int],
    shift: int,
) -> MixingCheck:
    """Exact decoupling gap ``|nu(T^-shift A and B) - nu(T^-shift A) nu(B)|``.

    ``event_a`` and ``event_b`` fix path symbols from index 0; the first is
    then shifted. For ``shift >= len(event_b)`` the constrained index sets
    are disjoint and the product measure factorizes, so the gap is exactly 0;
    smaller shifts are still evaluated but flagged as not meeting that
    premise.
    """
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    a = {shift + i: pid for i, pid in enumerate(event_a)}
    b = {i: pid for i, pid in enumerate(event_b)}
    merged = dict(b)
    conflict = False
    for idx, pid in a.items():
        if idx in merged and merged[idx] != pid:
            conflict = True
            break
        merged[idx] = pid
    if conflict:
        joint = Fraction(0)
    else:
        joint = _constrained_channel_prob(alphabet, waypoints, merged)
    split = _constrained_channel_prob(alphabet, waypoints, a) * _constrained_channel_prob(
        alphabet, waypoints, b
    )
    return MixingCheck(
        discrepancy=abs(joint - split),
        premise_met=shift >= len(event_b),
        shift=shift,
        decoupling_threshold=len(event_b),
    )


def channel_total_mass(
    alphabet: PathAlphabet,
    waypoints: Sequence[Cell],
    horizon: int,
) -> Fraction:
    """Sum of the channel measure over all admissible length-``horizon`` cylinders.

    The coordinates are independent, so the sum is the product over
    coordinates of the summed factors of each family: O(horizon × family
    size), nothing enumerated. A correctly normalized channel returns 1.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if len(waypoints) < horizon + 1:
        raise ValueError(f"need at least {horizon + 1} waypoints, got {len(waypoints)}")
    total = Fraction(1)
    for w_from, w_to in zip(waypoints[:horizon], waypoints[1 : horizon + 1]):
        factors = (
            _channel_factor(alphabet, w_from, w_to, pid)
            for pid in alphabet.family_id_set(w_from, w_to)
        )
        total *= sum(factors, Fraction(0))
    return total


def path_process_prob(
    spec: WaypointProcessSpec,
    alphabet: PathAlphabet,
    event: CylinderEvent,
    horizon: int | None = None,
) -> Fraction:
    """Exact unconditional probability of a path cylinder.

    Every path fixes its own source and destination, so for path ids
    ``p_0..p_k`` the event is the waypoint cylinder through their endpoints:
    the value is 0 unless ``dest(p_i) == source(p_i+1)`` for every i, and
    otherwise ``waypoint_cylinder_prob`` of
    ``(source p_0, dest p_0, ..., dest p_k)`` at ``event.start`` times
    ``1 / |family(source p_i, dest p_i)|`` for each path. Endpoints and
    family sizes are read from the alphabet's tables, so nothing is
    enumerated and the cost is O(event length) plus that of the waypoint
    marginal at ``event.start``.

    Raises ``ValueError`` when the spec and the alphabet use different
    grids, when a path id names no path of the alphabet, or when
    ``horizon`` (the waypoint prefix length marginalized over) is shorter
    than the ``event.end + 2`` waypoints the event needs; a longer
    ``horizon`` gives the same value, since the extra coordinates integrate
    out.
    """
    grid = alphabet.grid
    if spec.grid is not grid and spec.grid != grid:
        raise ValueError("waypoint process and alphabet use different grids")
    needed = event.end + 2
    if horizon is not None and horizon < needed:
        raise ValueError(f"horizon {horizon} shorter than the {needed} waypoints needed")
    sources, dests = alphabet.endpoints(event.symbols)
    if (dests[:-1] != sources[1:]).any():
        return Fraction(0)
    cells = tuple(map(grid.cell_at, [int(sources[0]), *dests.tolist()]))
    prob = waypoint_cylinder_prob(spec, CylinderEvent(event.start, cells))
    for size in alphabet.family_ranges(sources, dests)[1].tolist():
        prob /= size
    return prob


@dataclass(frozen=True, eq=False)
class WaypointTrace:
    """A realized finite waypoint sequence for one node (cell ids)."""

    grid: GridSpec
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def cell(self, index: int) -> Cell:
        return self.grid.cell_at(int(self.ids[index]))


@dataclass(frozen=True, eq=False)
class PathTrace:
    """A realized finite path sequence for one node (alphabet path ids)."""

    alphabet: PathAlphabet
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def lengths(self) -> np.ndarray:
        return self.alphabet.lengths(self.ids)


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _walk(
    succ: list[list[int]], cum: list[list[int]], state: int, draws: list[int]
) -> list[int]:
    """The states visited from ``state`` when draw k selects step k's successor."""
    return [state := succ[state][bisect_right(cum[state], u)] for u in draws]


def sample_waypoints(
    spec: WaypointProcessSpec,
    count: int,
    seed: SeedLike,
) -> WaypointTrace:
    """Draw a reproducible waypoint sequence of ``count`` symbols.

    Markov waypoints are drawn exactly from the spec's ``Fraction`` rows:
    each step draws an integer uniform on ``[0, D)`` for the common
    denominator ``D`` of the initial distribution and all rows, which must
    be below 2^63 (:class:`ConfigurationError` otherwise).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = _rng(seed)
    n = spec.grid.size
    if spec.kind == IID_UNIFORM:
        ids = rng.integers(0, n, size=count, dtype=np.int64)
        return WaypointTrace(spec.grid, ids)
    denominator, succ, cum = spec.sampling_rows
    if denominator >= 2**63:
        raise ConfigurationError(
            f"markov waypoint sampling needs a common denominator below 2^63, "
            f"this chain's is {denominator}"
        )
    draws = rng.integers(0, denominator, size=count, dtype=np.int64).tolist()
    states = _walk(succ, cum, n, draws)
    return WaypointTrace(spec.grid, np.array(states, dtype=np.int64))


def sample_paths(alphabet: PathAlphabet, waypoints: WaypointTrace, seed: SeedLike) -> PathTrace:
    """Draw one path per consecutive waypoint pair, uniform within its family.

    Raises ``ValueError`` when the waypoints and the alphabet use different
    grids, since the waypoint ids would then be read as the wrong cells.
    """
    if waypoints.grid != alphabet.grid:
        raise ValueError("waypoint process and alphabet use different grids")
    if len(waypoints) < 2:
        raise ValueError("need at least two waypoints to sample a path")
    rng = _rng(seed)
    first, sizes = alphabet.family_ranges(waypoints.ids[:-1], waypoints.ids[1:])
    path_ids = first + rng.integers(0, sizes)
    return PathTrace(alphabet, path_ids)


def uniform_prefix(grid: GridSpec, length: int, rng: np.random.Generator) -> tuple[Cell, ...]:
    """A uniformly random waypoint prefix, for quantifying over channel inputs."""
    ids = rng.integers(0, grid.size, size=length)
    return tuple(grid.cell_at(int(i)) for i in ids)
