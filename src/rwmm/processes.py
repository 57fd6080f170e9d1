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

    @property
    def end(self) -> int:
        """Last constrained index (inclusive)."""
        return self.start + len(self.symbols) - 1


def _bfs_depths(adjacency: Sequence[Iterable[int]]) -> list[int]:
    """Breadth-first depth of each state from state 0; -1 for a state not reached."""
    depth = [-1] * len(adjacency)
    depth[0] = 0
    queue = [0]
    for u in queue:  # grows as it is read: states in BFS order
        for v in adjacency[u]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def _check_irreducible_aperiodic(adjacency: Sequence[Iterable[int]]) -> None:
    """Refuse a chain whose transition digraph is not strongly connected, or is periodic.

    One forward BFS gives the depths, one pass over the edges builds the
    reverse graph, and a reverse BFS checks that every state reaches state 0.
    For a strongly connected digraph the period is the gcd over all edges of
    ``depth[u] + 1 - depth[v]``, with depths from any BFS tree.
    """
    depth = _bfs_depths(adjacency)
    reverse: list[list[int]] = [[] for _ in adjacency]
    period = 0
    for u, outs in enumerate(adjacency):
        for v in outs:
            reverse[v].append(u)
            period = math.gcd(period, depth[u] + 1 - depth[v])
    if min(depth) < 0 or min(_bfs_depths(reverse)) < 0:
        raise ConfigurationError("markov waypoint chain must be irreducible")
    if period != 1:
        raise ConfigurationError("markov waypoint chain must be aperiodic")


# entries of a markov chain's bucket table and of its pair table at most: a
# table over the bound is left out and the walk takes its slower route
_TABLE_ENTRIES = 2**16


class SuccessorTable(NamedTuple):
    """A markov chain's exact sampling table: see :attr:`WaypointProcessSpec.sampling_table`."""

    denominator: int
    cuts: np.ndarray  # int64, ascending
    bucket_of: np.ndarray | None  # int32, the bucket of every draw in [0, D)
    successor: np.ndarray  # int64, n x B
    steps: list[list[int]]  # successor, as lists
    pairs: list[list[int]]  # the state two steps on, n x B², as lists; [] if too large
    start: list[int]
    start_sums: list[int]


@dataclass(frozen=True)
class WaypointProcessSpec:
    """Distribution of the per-node waypoint sequence over a grid's cells.

    Without ``transition`` rows every waypoint is drawn independently with
    probability 1/|cells| (iid uniform). With them the spec is an exact
    Markov chain started from ``initial``, a dense tuple of n ``Fraction``s;
    ``transition[i]`` maps each successor of state ``i``, ids ascending, to
    its positive ``Fraction`` probability. The chain must be irreducible and
    aperiodic so that long-run time averages over the induced movement exist
    and are seed-independent.
    """

    grid: GridSpec
    transition: tuple[dict[int, Fraction], ...] | None = None
    initial: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if (self.transition is None) != (self.initial is None):
            raise ConfigurationError("markov waypoint process needs matrix and initial")
        if self.transition is None:
            return
        n = self.grid.size
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
        _check_irreducible_aperiodic(self.transition)

    @cached_property
    def sampling_table(self) -> SuccessorTable:
        """Exact integer sampling table of a markov chain, built once per spec.

        Every waypoint takes one integer ``u`` uniform on ``[0, D)``, where
        ``D`` is the lcm of the denominators of the initial distribution and
        every transition row; it must be below 2^63
        (:class:`ConfigurationError` otherwise). A row gives its successors,
        ids ascending, consecutive runs of ``p·D`` draws. ``cuts`` is the
        sorted union of every transition row's run boundaries inside
        ``(0, D)``. It splits ``[0, D)`` into ``B = len(cuts) + 1`` buckets,
        bucket ``b`` being ``[cuts[b - 1], cuts[b])`` with 0 and ``D`` at the
        ends, and no row has a boundary inside a bucket, so state ``s`` moves
        to ``successor[s][b]`` on every draw in bucket ``b``, each successor
        with probability exactly ``p``. The table holds n·B entries. A lazy
        walk's rows take a few shapes, so its B stays small whatever n: at
        most 11 on grids from 1x2 to 100x100. The initial distribution is
        left out of ``cuts``, where its boundaries would make B grow with n
        (404 on 20x20 at stay 1/2): the first waypoint is
        ``start[bisect_right(start_sums, u)]``, over its support and run
        boundaries.

        Two more tables make the walk cheaper, each kept only when it has at
        most ``_TABLE_ENTRIES`` (2^16) entries. ``bucket_of[u]`` is the
        bucket of draw ``u``, one int32 per draw in ``[0, D)``: 30,000
        entries on a 100x100 lazy walk at stay 1/2, whose D at stay 1/3
        (90,000) is over the bound. ``pairs[s][b0·B + b1]`` is the state two
        steps on from ``s`` through buckets ``b0`` then ``b1``, ``successor``
        gathered through itself: n·B² entries, 40,000 on a 20x20 lazy walk
        and over the bound from 21x21 at stay 1/2. ``steps`` and ``pairs``
        are nested lists, which the walk's Python loops index fastest.
        """
        assert self.transition is not None and self.initial is not None
        start = {j: p for j, p in enumerate(self.initial) if p}
        rows = (*self.transition, start)
        denominator = math.lcm(*(p.denominator for row in rows for p in row.values()))
        if denominator >= 2**63:
            raise ConfigurationError(
                f"markov waypoint sampling needs a common denominator below 2^63, "
                f"this chain's is {denominator}"
            )

        def boundaries(row: dict[int, Fraction]) -> list[int]:
            weights = (p.numerator * (denominator // p.denominator) for p in row.values())
            return list(itertools.accumulate(weights))[:-1]

        bounds = [boundaries(row) for row in self.transition]
        cuts = np.array(sorted(set(itertools.chain.from_iterable(bounds))), dtype=np.int64)
        lows = [0, *cuts.tolist()]
        steps = [
            [targets[bisect_right(row_bounds, low)] for low in lows]
            for targets, row_bounds in zip(map(list, self.transition), bounds)
        ]
        successor = np.array(steps, dtype=np.int64)
        bucket_of = None
        if denominator <= _TABLE_ENTRIES:
            bucket_of = np.searchsorted(cuts, np.arange(denominator), side="right").astype(np.int32)
        pairs = []
        if successor.size * len(lows) <= _TABLE_ENTRIES:
            # the rows of steps, joined: every entry is an int that steps
            # already holds, where ndarray.tolist() made one per entry
            pairs = [
                list(itertools.chain.from_iterable(map(steps.__getitem__, row))) for row in steps
            ]
        return SuccessorTable(
            denominator, cuts, bucket_of, successor, steps, pairs, list(start), boundaries(start)
        )

    @classmethod
    def iid_uniform(cls, grid: GridSpec) -> "WaypointProcessSpec":
        return cls(grid=grid)

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
        return cls(grid=grid, transition=tuple(rows), initial=(Fraction(1, n),) * n)


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
    ids = []
    for sym in event.symbols:
        if not isinstance(sym, Cell):
            raise ValueError(f"waypoint cylinder symbols must be cells, got {sym!r}")
        ids.append(spec.grid.cell_id(sym))
    return _waypoint_ids_prob(spec, event.start, ids)


def _waypoint_ids_prob(spec: WaypointProcessSpec, start: int, ids: Sequence[int]) -> Fraction:
    """Probability that the waypoints from index ``start`` are the cell ids ``ids``."""
    if spec.transition is None:
        return Fraction(1, spec.grid.size ** len(ids))
    dist = _markov_distribution_at(spec, start)
    prob = dist[ids[0]]
    for a, b in zip(ids, ids[1:]):
        if not prob:
            return Fraction(0)
        prob *= spec.transition[a].get(b, 0)
    return prob


def _families(alphabet: PathAlphabet, waypoints: Sequence[Cell], pairs: int) -> list[range]:
    """The path family of each of the first ``pairs`` waypoint pairs, as id ranges.

    The prefix becomes cell ids once and one
    :meth:`~rwmm.geometry.PathAlphabet.walk_family_ranges` call reads every
    family. Ids are ``source * M + member``, so the families of two
    different waypoint pairs are disjoint id ranges. Raises ``ValueError``
    when the prefix has fewer than ``pairs + 1`` waypoints, and, as
    :meth:`~rwmm.geometry.GridSpec.cell_id` does, for a waypoint outside
    the grid.
    """
    if len(waypoints) < pairs + 1:
        raise ValueError(f"need at least {pairs + 1} waypoints, got {len(waypoints)}")
    grid = alphabet.grid
    waypoints = waypoints[: pairs + 1]
    outside = next((cell for cell in waypoints if not grid.contains(cell)), None)
    if outside is not None:
        grid.cell_id(outside)  # raises, naming the cell
    ids = grid.ids(
        np.array([cell.x for cell in waypoints], dtype=np.int64),
        np.array([cell.y for cell in waypoints], dtype=np.int64),
    )
    first, sizes = alphabet.walk_family_ranges(ids)
    return [range(f, f + size) for f, size in zip(first.tolist(), sizes.tolist())]


def _constrained_channel_prob(
    alphabet: PathAlphabet,
    families: Sequence[range],
    constraints: dict[int, int],
) -> Fraction:
    """Channel probability of an event fixing path symbols at given indices.

    The channel draws path coordinate i independently and uniformly from
    ``families[i]`` (:func:`_families`), so the event probability is the
    product of ``1 / |families[i]|`` over the constrained indices, and 0
    when a fixed path lies outside its family. Only such a path id is
    validated.
    """
    for index, path_id in sorted(constraints.items()):
        if path_id not in families[index]:
            alphabet.endpoints([path_id])  # raises for an id that names no path
            return Fraction(0)
    return Fraction(1, math.prod(len(families[index]) for index in constraints))


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
    families = _families(alphabet, waypoints, event.end + 1)
    constraints = {event.start + k: pid for k, pid in enumerate(event.symbols)}
    return _constrained_channel_prob(alphabet, families, constraints)


def _stationarity_gap(pairs: Sequence[tuple[range, range]]) -> Fraction:
    """Max over path tuples of ``|prod a_i(p_i) - prod b_i(p_i)|``.

    ``pairs[i] = (A_i, B_i)`` are two families, with ``a_i = 1/|A_i|`` on
    ``A_i`` and 0 off it (``b_i`` alike). Two families are equal or disjoint
    id ranges (:func:`_families`). If every ``A_i`` is ``B_i`` the measures
    agree and the gap is 0. Otherwise every tuple inside all ``A_i`` lies
    outside some ``B_i`` and gives ``prod 1/|A_i|``, B alike, and the gap is
    the larger of the two.
    """
    if all(side_a == side_b for side_a, side_b in pairs):
        return Fraction(0)
    sizes_a = math.prod(len(side_a) for side_a, _ in pairs)
    sizes_b = math.prod(len(side_b) for _, side_b in pairs)
    return Fraction(1, min(sizes_a, sizes_b))


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
    # coordinate i of the shifted input waypoints[1:] reads pair i + 1, as
    # does coordinate i + 1 of the original, which the shift preimage fixes
    families = _families(alphabet, waypoints, horizon + 1)[1:]
    return _stationarity_gap([(family, family) for family in families])


class MixingCheck(NamedTuple):
    """Result of one output-mixing decoupling check."""

    discrepancy: Fraction
    premise_met: bool  # shift >= second event's length, where decoupling is exact


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
    b = dict(enumerate(event_b))
    families = _families(alphabet, waypoints, max([*a, *b], default=-1) + 1)
    if any(b.get(i, pid) != pid for i, pid in a.items()):
        joint = Fraction(0)
    else:
        joint = _constrained_channel_prob(alphabet, families, {**b, **a})
    split = _constrained_channel_prob(alphabet, families, a) * _constrained_channel_prob(
        alphabet, families, b
    )
    return MixingCheck(discrepancy=abs(joint - split), premise_met=shift >= len(event_b))


def channel_total_mass(
    alphabet: PathAlphabet,
    waypoints: Sequence[Cell],
    horizon: int,
) -> Fraction:
    """Sum of the channel measure over all admissible length-``horizon`` cylinders.

    The coordinates are independent, so the sum is the product over
    coordinates of each family's summed factors: ``|F|`` members of
    probability ``1/|F|``. O(horizon), nothing enumerated. A correctly
    normalized channel returns 1.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    total = Fraction(1)
    for family in _families(alphabet, waypoints, horizon):
        total *= len(family) * Fraction(1, len(family))
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
    if spec.grid != alphabet.grid:
        raise ValueError("waypoint process and alphabet use different grids")
    needed = event.end + 2
    if horizon is not None and horizon < needed:
        raise ValueError(f"horizon {horizon} shorter than the {needed} waypoints needed")
    sources, dests = alphabet.endpoints(event.symbols)
    if (dests[:-1] != sources[1:]).any():
        return Fraction(0)
    prob = _waypoint_ids_prob(spec, event.start, [int(sources[0]), *dests.tolist()])
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


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


# waypoints a markov walk draws at once: the block's draws, buckets, pair
# keys and states are its only temporaries
_WALK_BLOCK = 2**16


def sample_waypoints(
    spec: WaypointProcessSpec,
    count: int,
    seed: SeedLike,
) -> WaypointTrace:
    """Draw a reproducible waypoint sequence of ``count`` symbols.

    Markov waypoints are drawn exactly through the spec's
    :attr:`~WaypointProcessSpec.sampling_table`, each from one integer
    uniform on ``[0, D)`` (:class:`ConfigurationError` for ``D >= 2^63``).
    The first waypoint bisects the initial distribution. The others come
    ``_WALK_BLOCK`` at a time. One ``take`` from ``bucket_of`` turns a
    block's draws into buckets, or, for a table with no ``bucket_of``, one
    ``searchsorted`` over ``cuts``. The walk then takes two steps a Python
    iteration: it follows ``pairs`` over each pair of buckets and writes
    the second state of the pair, and one gather from ``successor`` fills
    in the first states from the states before them. A block's odd last
    step, and every step of a table with no ``pairs``, follows ``steps``
    one step an iteration. A generator gives the same integers from one
    call as from consecutive calls over its parts, so the waypoints do not
    depend on the block size.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = _rng(seed)
    if spec.transition is None:
        ids = rng.integers(0, spec.grid.size, size=count, dtype=np.int64)
        return WaypointTrace(spec.grid, ids)
    table = spec.sampling_table
    ids = np.empty(count, dtype=np.int64)
    (first,) = rng.integers(0, table.denominator, size=1, dtype=np.int64).tolist()
    state = ids[0] = table.start[bisect_right(table.start_sums, first)]
    successor, steps, pairs = table.successor, table.steps, table.pairs
    bucket_count = len(table.cuts) + 1
    for lo in range(1, count, _WALK_BLOCK):
        draws = rng.integers(0, table.denominator, min(_WALK_BLOCK, count - lo), np.int64)
        if table.bucket_of is None:
            buckets = np.searchsorted(table.cuts, draws, side="right")
        else:
            buckets = table.bucket_of.take(draws)
        paired = len(buckets) & -2 if pairs else 0  # the block's steps taken two at a time
        mid, hi = lo + paired, lo + len(buckets)
        b0, b1 = buckets[:paired:2], buckets[1:paired:2]
        keys = (b0 * bucket_count + b1).tolist()
        ids[lo + 1 : mid : 2] = [state := pairs[state][k] for k in keys]
        ids[lo:mid:2] = successor.take(ids[lo - 1 : mid - 1 : 2] * bucket_count + b0)
        ids[mid:hi] = [state := steps[state][b] for b in buckets[paired:].tolist()]
    return WaypointTrace(spec.grid, ids)


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
    first, sizes = alphabet.walk_family_ranges(waypoints.ids)
    path_ids = first + rng.integers(0, sizes)
    return PathTrace(alphabet, path_ids)


def uniform_prefix(grid: GridSpec, length: int, rng: np.random.Generator) -> tuple[Cell, ...]:
    """A uniformly random waypoint prefix, for quantifying over channel inputs."""
    ids = rng.integers(0, grid.size, size=length)
    return tuple(grid.cell_at(int(i)) for i in ids)
