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
from functools import cached_property, partial
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import ConfigurationError
from .geometry import GridSpec, PathAlphabet, integer_ids

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


@dataclass(frozen=True)
class CylinderEvent:
    """The event fixing a sequence's symbols on indices start..start+len-1.

    Symbols are ints: cell ids of a :class:`~rwmm.geometry.GridSpec` for
    waypoint events and path ids of a :class:`~rwmm.geometry.PathAlphabet`
    for path events.
    """

    start: int
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.start, int) or self.start < 0:  # refused, never cast
            raise ValueError(f"cylinder start index must be an int >= 0, got {self.start!r}")
        if not self.symbols:
            raise ValueError("cylinder events need at least one symbol")

    @property
    def end(self) -> int:
        """Last constrained index (inclusive)."""
        return self.start + len(self.symbols) - 1


def _check_denominator(denominator: int) -> int:
    """``denominator``, refused unless one int64 draw reaches every value below it."""
    if denominator < 2**63:
        return denominator
    raise ConfigurationError(
        f"markov waypoint sampling needs a common denominator below 2^63, "
        f"this chain's is {denominator}"
    )


def _running_sums(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each entry's int64 running sum along its CSR row; past 2^63 - 1 a positive one wraps < 0."""
    running = np.cumsum(weights)
    return running - (running - weights)[np.repeat(indptr[:-1], np.diff(indptr))]


def _bfs_depths(indptr: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Breadth-first depth of each state from state 0 along CSR rows; -1 for a state not reached."""
    sizes = np.diff(indptr)
    depth, slot = np.full(len(sizes), -1, dtype=np.int64), np.empty(len(sizes), dtype=np.int64)
    depth[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:  # a level gathers all its states' rows at once
        counts = sizes[frontier]
        ends = np.cumsum(counts)
        reached = targets[np.arange(ends[-1]) + np.repeat(indptr[frontier] + counts - ends, counts)]
        reached = reached[depth[reached] < 0]
        depth[reached] = depth[frontier[0]] + 1
        slot[reached] = places = np.arange(len(reached))  # one place a state stays: no sort
        frontier = reached[slot[reached] == places]
    return depth


def _check_irreducible_aperiodic(indptr: np.ndarray, targets: np.ndarray) -> None:
    """Refuse a chain whose transition digraph is not strongly connected, or is periodic.

    BFS along the rows and the reversed rows finds whether state 0 reaches and is reached by
    all; the period is the gcd over edges ``u -> v`` of ``depth[u] + 1 - depth[v]``.
    """
    depth = _bfs_depths(indptr, targets)
    if depth.min() < 0 or _bfs_depths(*_reversed_rows(indptr, targets)).min() < 0:
        raise ConfigurationError("markov waypoint chain must be irreducible")
    if np.gcd.reduce(np.repeat(depth + 1, np.diff(indptr)) - depth[targets]) != 1:
        raise ConfigurationError("markov waypoint chain must be aperiodic")


def _reversed_rows(indptr: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows of the reversed digraph: row ``v`` lists the sources of edges into ``v``."""
    order = np.argsort(targets, kind="stable")
    sources = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))[order]
    return np.searchsorted(targets[order], np.arange(len(indptr))), sources


def _from_padded_rows(targets: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """CSR ``indptr``, ``targets``, ``weights`` of n rows of one width, ids ascending along each.

    Entries of zero weight drop.
    """
    kept = weights != 0
    return np.concatenate(([0], np.cumsum(kept.sum(axis=1)))), targets[kept], weights[kept]


def _lazy_walk_rows(grid: GridSpec, stay: Fraction) -> tuple:
    """``D``, ``initial`` and the CSR rows of the lazy walk at ``stay`` on a grid of 2+ cells.

    The rows are built n x 5, one entry per move, and only their compressed
    form is returned, so the padded arrays are freed before the spec's checks.
    """
    n = grid.size
    a, q = stay.numerator, stay.denominator
    moves = np.array([(1, -1, 0, 0, 0), (0, 0, 1, -1, 0)])  # dx, dy; the last one stays
    dx, dy = moves[:, np.argsort(grid.ids(*moves))]  # in the order of the targets' ids
    moving = (dx != 0) | (dy != 0)
    x, y = grid.xy(np.arange(n))
    to_x, to_y = x[:, None] + dx, y[:, None] + dy
    inside = (to_x >= 0) & (to_x < grid.width) & (to_y >= 0) & (to_y < grid.height)
    degree = (inside & moving).sum(axis=1)
    degrees = np.flatnonzero(np.bincount(degree)).tolist()
    # each of k moves takes (q - a)·D / (q·k) for stay = a/q
    lcm = math.lcm(n, q, *(q * k // math.gcd(q - a, q * k) for k in degrees))
    denominator = _check_denominator(lcm)
    share = np.zeros(5, dtype=np.int64)  # by degree
    share[degrees] = [(q - a) * denominator // (q * k) for k in degrees]
    weights = np.where(moving, share[degree][:, None], a * denominator // q) * inside
    initial = np.full(n, denominator // n, dtype=np.int64)
    return denominator, initial, *_from_padded_rows(grid.ids(to_x, to_y), weights)


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


@dataclass(frozen=True, eq=False)
class WaypointProcessSpec:
    """Distribution of the per-node waypoint sequence over a grid's cells.

    Without a ``denominator`` every waypoint is iid uniform over the cells.
    With one it is an exact Markov chain of int64 weights over that common
    denominator ``D < 2^63``: the n ``initial`` weights, nonnegative, and the
    CSR transition rows, row ``i`` being entries ``indptr[i]:indptr[i + 1]``
    of ``targets``, ids ascending, and of ``weights``, positive; each sums
    to ``D``. The chain must be irreducible and aperiodic so that long-run
    time averages exist and are seed-independent.
    """

    grid: GridSpec
    denominator: int | None = None
    initial: np.ndarray | None = None
    indptr: np.ndarray | None = None
    targets: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        arrays = (self.initial, self.indptr, self.targets, self.weights)
        if len({value is None for value in (self.denominator, *arrays)}) == 2:  # some, not all
            raise ConfigurationError("markov waypoint process needs matrix and initial")
        if self.denominator is None:
            return
        if any(not isinstance(a, np.ndarray) or a.dtype != np.int64 or a.ndim != 1 for a in arrays):
            raise ConfigurationError("markov waypoint process needs 1-D int64 arrays")
        denominator, n = _check_denominator(self.denominator), self.grid.size
        initial, indptr, targets, weights = arrays
        if len(indptr) != n + 1 or indptr[0] or (np.diff(indptr) < 0).any() or (
            not len(targets) == len(weights) == indptr[-1]
        ):
            raise ConfigurationError(f"transition matrix must be {n}x{n}")
        if len(initial) != n:
            raise ConfigurationError(f"initial distribution must have {n} entries")
        keys = np.repeat(np.arange(n), np.diff(indptr)) * n + targets  # rise as ids rise in rows
        if (targets < 0).any() or (targets >= n).any() or (np.diff(keys) <= 0).any():
            raise ConfigurationError(f"transition rows must list ascending ids below {n}")
        running = _running_sums(indptr, weights)
        if not np.diff(indptr).all() or (weights <= 0).any() or (running <= 0).any() or (
            running[indptr[1:] - 1] != denominator
        ).any():
            raise ConfigurationError("transition rows must be positive and sum to 1")
        # a running sum of nonnegative entries turns negative only where it wraps
        if (np.minimum(initial, np.cumsum(initial)) < 0).any() or initial.sum() != denominator:
            raise ConfigurationError("initial distribution must be nonnegative and sum to 1")
        del keys, running  # an int64 an edge each: freed before the digraph check makes its own
        _check_irreducible_aperiodic(indptr, targets)

    @cached_property
    def sampling_table(self) -> SuccessorTable:
        """Exact integer sampling table of a markov chain, built once per spec.

        Every waypoint takes one integer ``u`` uniform on ``[0, D)``; a row
        gives its successors consecutive runs of ``weight`` draws, ending at
        its running sums. ``cuts``, the transition rows' run ends inside
        ``(0, D)``, split ``[0, D)`` into ``B = len(cuts) + 1`` buckets, so
        state ``s`` moves to ``successor[s][b]`` on every draw in bucket ``b``
        (B <= 11 on lazy walks up to 100x100). The first waypoint is
        ``start[bisect_right(start_sums, u)]``: the initial run ends would make
        B grow with n. The walk indexes ``bucket_of[u]``, the bucket of draw
        ``u``, and nested lists sharing one int per state: ``steps`` and
        ``pairs[s][b0·B + b1]``, two steps on. ``bucket_of`` and ``pairs`` are
        kept only with at most ``_TABLE_ENTRIES`` (2^16) entries, D and n·B²:
        30,000 and 40,000 on 100x100 and 20x20 lazy walks at stay 1/2.
        """
        denominator = self.denominator
        running = _running_sums(self.indptr, self.weights)
        ends = np.sort(running[running < denominator])
        cuts = ends[np.diff(ends, prepend=0) > 0]  # distinct, as every run end is positive
        first = np.searchsorted(cuts, running - self.weights, side="right")  # a run's first bucket
        buckets = np.searchsorted(cuts, running) + 1 - first  # and how many it spans
        successor = np.repeat(self.targets, buckets).reshape(len(self.initial), -1)
        steps = np.arange(len(successor)).astype(object)[successor].tolist()
        bucket_of = None
        if denominator <= _TABLE_ENTRIES:
            bucket_of = np.searchsorted(cuts, np.arange(denominator), side="right").astype(np.int32)
        pairs = []
        if successor.size * (len(cuts) + 1) <= _TABLE_ENTRIES:
            pairs = [  # the rows of steps, joined, with no new int per entry
                list(itertools.chain.from_iterable(map(steps.__getitem__, row))) for row in steps
            ]
        start = np.flatnonzero(self.initial).tolist()
        sums = np.cumsum(self.initial[start])[:-1].tolist()
        return SuccessorTable(denominator, cuts, bucket_of, successor, steps, pairs, start, sums)

    @classmethod
    def iid_uniform(cls, grid: GridSpec) -> "WaypointProcessSpec":
        return cls(grid=grid)

    @classmethod
    def markov(
        cls, grid: GridSpec, transition: Sequence[Sequence], initial: Sequence
    ) -> "WaypointProcessSpec":
        """A chain from a dense n×n transition matrix: ``p`` becomes ``p·D``, D the lcm."""
        n = grid.size
        if len(transition) != n or any(len(row) != n for row in transition):
            raise ConfigurationError(f"transition matrix must be {n}x{n}")
        matrix = [Fraction(p) for row in transition for p in row]
        start = [Fraction(v) for v in initial]
        if not all(0 <= p <= 1 for p in matrix):  # so that every p·D is an int64
            raise ConfigurationError("transition rows must be positive and sum to 1")
        if not all(0 <= p <= 1 for p in start):
            raise ConfigurationError("initial distribution must be nonnegative and sum to 1")
        denominator = _check_denominator(math.lcm(*(p.denominator for p in (*matrix, *start))))
        scaled = [p.numerator * denominator // p.denominator for p in (*matrix, *start)]
        weights, initial = np.split(np.array(scaled, dtype=np.int64), [n * n])
        targets = np.broadcast_to(np.arange(n), (n, n))
        return cls(grid, denominator, initial, *_from_padded_rows(targets, weights.reshape(n, n)))

    @classmethod
    def lazy_walk(cls, grid: GridSpec, stay: Fraction = Fraction(1, 2)) -> "WaypointProcessSpec":
        """Lazy nearest-neighbor walk on the grid, uniform initial distribution.

        Stays put with probability ``stay`` and otherwise moves to a uniformly
        chosen in-grid 4-neighbor. Irreducible for every grid; the self loop
        makes it aperiodic (so ``stay`` must be positive on grids with more
        than one cell). ``D`` is the least that makes every weight an int.
        """
        stay = Fraction(stay)
        if not 0 <= stay < 1:
            raise ConfigurationError(f"stay probability must be in [0, 1), got {stay}")
        if grid.size == 1:
            return cls.markov(grid, [[Fraction(1)]], [Fraction(1)])
        return cls(grid, *_lazy_walk_rows(grid, stay))


def _markov_distribution_at(spec: WaypointProcessSpec, index: int) -> np.ndarray:
    """initial @ P^index as Python ints over D^(index + 1), each step O(entries), not O(n²)."""
    masses = spec.initial.astype(object)
    for _ in range(index):
        pushed = np.repeat(masses, np.diff(spec.indptr)) * spec.weights  # object: Python ints
        masses = np.zeros(len(masses), dtype=object)
        np.add.at(masses, spec.targets, pushed)
    return masses


def waypoint_cylinder_prob(spec: WaypointProcessSpec, event: CylinderEvent) -> Fraction:
    """Exact probability that the waypoint sequence matches the cylinder of cell ids."""
    start, ids = event.start, spec.grid.check_ids(event.symbols).tolist()
    if spec.denominator is None:
        return Fraction(1, spec.grid.size ** len(ids))
    mass = _markov_distribution_at(spec, start)[ids[0]]  # over D^(start + 1), and D more each move
    for a, b in zip(ids, ids[1:]):
        lo, hi = spec.indptr[a : a + 2].tolist()
        row = spec.targets[lo:hi].tolist()
        mass *= int(spec.weights[lo + row.index(b)]) if b in row else 0
    return Fraction(mass, spec.denominator ** (start + len(ids)))


def _prefix(grid: GridSpec, waypoints: Sequence[int], pairs: int) -> np.ndarray:
    """The first ``pairs + 1`` waypoints as :meth:`~rwmm.geometry.GridSpec.check_ids` gives them.

    Raises ``ValueError`` when there are fewer, or as ``check_ids`` does.
    """
    if len(waypoints) < pairs + 1:
        raise ValueError(f"need at least {pairs + 1} waypoints, got {len(waypoints)}")
    return grid.check_ids(waypoints[: pairs + 1])


def _families(alphabet: PathAlphabet, waypoints: Sequence[int], pairs: int) -> list[range]:
    """The path family of each of the first ``pairs`` pairs of waypoint cell ids, as id ranges.

    One :meth:`~rwmm.geometry.PathAlphabet.family_ranges` call on the
    :func:`_prefix` reads every family; those of different pairs are disjoint.
    """
    ids = _prefix(alphabet.grid, waypoints, pairs)
    first, sizes = alphabet.family_ranges(ids[:-1], ids[1:])
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
    when a fixed path lies outside its family. The path ids are ints; one
    inside its family names a path, so only those outside are validated.
    """
    outside = [pid for index, pid in constraints.items() if pid not in families[index]]
    if outside:
        alphabet.endpoints(outside)  # raises for an id that names no path
        return Fraction(0)
    return Fraction(1, math.prod(len(families[index]) for index in constraints))


def channel_cylinder_prob(
    alphabet: PathAlphabet,
    waypoints: Sequence[int],
    event: CylinderEvent,
) -> Fraction:
    """Exact conditional probability of a path cylinder given the waypoints.

    The value is the product over constrained indices i of
    ``1 / |family(w_i, w_i+1)|`` when every fixed path belongs to its
    family, and exactly 0 otherwise. The waypoint prefix must cover index
    ``event.end + 1``. Raises ``ValueError`` for a path id that is not an
    int, before any lookup, and for one that names no path.
    """
    symbols = integer_ids(event.symbols, "path").tolist()
    families = _families(alphabet, waypoints, event.end + 1)
    constraints = dict(enumerate(symbols, event.start))
    return _constrained_channel_prob(alphabet, families, constraints)


def check_channel_stationarity(
    alphabet: PathAlphabet,
    waypoints: Sequence[int],
    horizon: int,
) -> Fraction:
    """Max over length-``horizon`` path cylinders of the stationarity gap.

    Compares the shifted-input channel measure of ``[p_0..p_{n-1}]`` with the
    original channel measure of the shift preimage (the same symbols fixed at
    indices 1..n). Both are products of per-coordinate factors, and
    coordinate i of the shifted input ``waypoints[1:]`` reads the same
    waypoint pair, so the same family, as coordinate i + 1 of the original:
    the two measures are equal and the gap is 0 once :func:`_prefix` has
    checked the ``horizon + 2`` waypoint cell ids. No family is looked up.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _prefix(alphabet.grid, waypoints, horizon + 1)
    return Fraction(0)


class MixingCheck(NamedTuple):
    """Result of one output-mixing decoupling check."""

    discrepancy: Fraction
    premise_met: bool  # shift >= second event's length, where decoupling is exact


def check_output_mixing(
    alphabet: PathAlphabet,
    waypoints: Sequence[int],
    event_a: Sequence[int],
    event_b: Sequence[int],
    shift: int,
) -> MixingCheck:
    """Exact decoupling gap ``|nu(T^-shift A and B) - nu(T^-shift A) nu(B)|``.

    ``event_a`` and ``event_b`` fix path symbols from index 0; the first is
    then shifted. For ``shift >= len(event_b)`` the constrained index sets
    are disjoint and the product measure factorizes, so the gap is exactly 0;
    smaller shifts are still evaluated but flagged as not meeting that
    premise. Path ids are refused as in :func:`channel_cylinder_prob`.
    """
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    ids = integer_ids([*event_a, *event_b], "path").tolist()
    a = dict(enumerate(ids[: len(event_a)], shift))
    b = dict(enumerate(ids[len(event_a) :]))
    families = _families(alphabet, waypoints, max([*a, *b], default=-1) + 1)
    prob = partial(_constrained_channel_prob, alphabet, families)
    joint = Fraction(0) if any(b.get(i, pid) != pid for i, pid in a.items()) else prob({**b, **a})
    return MixingCheck(abs(joint - prob(a) * prob(b)), premise_met=shift >= len(event_b))


def channel_total_mass(
    alphabet: PathAlphabet,
    waypoints: Sequence[int],
    horizon: int,
) -> Fraction:
    """Sum of the channel measure over all admissible length-``horizon`` cylinders.

    The coordinates are independent, so the sum is the product over
    coordinates of each family's summed factors: ``|F|`` members of
    probability ``1/|F|``, 1 for every family. So the mass is 1 once
    :func:`_prefix` has checked the ``horizon + 1`` waypoint cell ids; every
    family is nonempty, as it holds the pair's path at the fastest speed.
    No family is looked up.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _prefix(alphabet.grid, waypoints, horizon)
    return Fraction(1)


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
    grids, when a path id is not an int or names no path, or when
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
    waypoints = CylinderEvent(event.start, (int(sources[0]), *dests.tolist()))
    prob = waypoint_cylinder_prob(spec, waypoints)
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
    uniform on ``[0, D)``. The first waypoint bisects the initial
    distribution. The others come ``_WALK_BLOCK`` at a time. One ``take``
    from ``bucket_of`` turns a block's draws into buckets, or, for a table
    with no ``bucket_of``, one ``searchsorted`` over ``cuts``. The walk
    then takes two steps a Python iteration: it follows ``pairs`` over each
    pair of buckets and writes the second state of the pair, and one gather
    from ``successor`` fills in the first states from the states before
    them. A block's odd last step, and every step of a table with no
    ``pairs``, follows ``steps`` one step an iteration. A generator gives
    the same integers from one call as from consecutive calls over its
    parts, so the waypoints do not depend on the block size.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = _rng(seed)
    if spec.denominator is None:
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
        ids[lo + 1 : mid : 2] = np.fromiter(
            [state := pairs[state][k] for k in keys], np.int64, len(keys)
        )
        ids[lo:mid:2] = successor.take(ids[lo - 1 : mid - 1 : 2] * bucket_count + b0)
        ids[mid:hi] = [state := steps[state][b] for b in buckets[paired:].tolist()]
    return WaypointTrace(spec.grid, ids)


def sample_paths(alphabet: PathAlphabet, waypoints: WaypointTrace, seed: SeedLike) -> PathTrace:
    """Draw one path per consecutive waypoint pair, uniform within its family.

    Where every family has one member there is no choice, and no
    ``integers`` call is made: numpy draws nothing for a one-value range, so
    the generator's stream is the same either way. Raises ``ValueError``
    when the waypoints and the alphabet use different grids, since the
    waypoint ids would then be read as the wrong cells.
    """
    if waypoints.grid != alphabet.grid:
        raise ValueError("waypoint process and alphabet use different grids")
    if len(waypoints) < 2:
        raise ValueError("need at least two waypoints to sample a path")
    rng = _rng(seed)
    first, sizes = alphabet.family_ranges(waypoints.ids[:-1], waypoints.ids[1:])
    if sizes.max() == 1:
        return PathTrace(alphabet, first)
    return PathTrace(alphabet, first + rng.integers(0, sizes))


def uniform_prefix(grid: GridSpec, length: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random int64 prefix of waypoint cell ids, for quantifying over channel inputs."""
    return rng.integers(0, grid.size, size=length)
